"""CLI contract: golden JSON, exit codes, determinism, formats, env vars."""

import argparse
import ast
import collections
import inspect
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adelicdyn import cli as cli_module
from adelicdyn import errors
from adelicdyn.cli import COMMANDS, COUNT, Parser, main
from adelicdyn.dynamics import DEFAULT_BIT_GUARD
from adelicdyn.exact import LIMITS, MAX_PRIME_SCAN, int_digit_limit, shown
from adelicdyn.moebius import MoebiusMap
from adelicdyn.padic import Place
import oracle
from goldens import GOLDEN_COMMANDS, GOLDEN_DIR, ROOT, _run, run_cli
from helpers import counted

#: Longer than the interpreter's default int/str conversion limit (4300).
HUGE = "7" * 5000
GOLDEN_IDS = [name for name, _ in GOLDEN_COMMANDS]


def assert_one_error_line(result, code=2):
    got, out, err = result
    assert got == code
    assert out == b""
    lines = err.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err[:300]


@pytest.mark.parametrize("name,args", GOLDEN_COMMANDS, ids=[n for n, _ in GOLDEN_COMMANDS])
def test_golden_output(name, args):
    code, out, err = run_cli(args)
    assert code == 0
    assert err == b""
    assert out == (GOLDEN_DIR / f"{name}.json").read_bytes()
    json.loads(out)  # stdout is a single valid JSON document


def test_exit_code_domain_error_on_irrational_fixed_points():
    code, out, err = run_cli(["classify", "--map", "1,1,1,2"])
    assert code == 3
    assert out == b""
    assert b"not a rational square" in err


def test_exit_code_domain_error_on_affine_map():
    code, _, err = run_cli(["classify", "--map", "1,1,0,1"])
    assert code == 3
    assert b"c != 0" in err


def test_exit_code_parse_errors():
    assert run_cli(["classify", "--map", "1,2,3"])[0] == 2
    assert run_cli(["classify", "--map", "1, 2,3,4"])[0] == 2
    assert run_cli(["classify", "--map", "1,2,2,4"])[0] == 2  # singular
    assert run_cli(["iterate", "--map", "1/2,0,1,2", "--x0", "1", "--place", "four"])[0] == 2


def test_exit_code_zero_rational():
    code, out, err = run_cli(["product-formula", "-r", "0"])
    assert code == 2
    assert out == b""


def test_exit_code_unknown_family():
    assert run_cli(["modular", "--family", "6", "--c", "1"])[0] == 2


def test_exit_code_resource_guard():
    # multiplier (1009)^2 cannot be factored with bound 10
    code, _, err = run_cli(
        ["--factor-bound", "10", "classify", "--map", "1/1009,0,1,1009"]
    )
    assert code == 4
    assert b"cofactor" in err


def test_each_error_class_carries_its_exit_code():
    bases = {errors.ResourceLimitError: 4, errors.MathDomainError: 3, errors.AdelicDynError: 2}
    classes = [c for c in vars(errors).values() if isinstance(c, type)]
    for cls in classes:
        code = next(code for base, code in bases.items() if issubclass(cls, base))
        assert cls.exit_code == code, cls


def test_factorization_error_names_the_bound_that_decides_it():
    result = run_cli(["--factor-bound", "2", "product-formula", "-r", "25"])
    assert_one_error_line(result, code=4)
    assert result[2].endswith(b"; a factor bound of 5 decides it\n")
    assert run_cli(["--factor-bound", "5", "product-formula", "-r", "25"])[0] == 0


@pytest.mark.parametrize(
    "args",
    [
        ["classify", "--map", f"{'7' * 4000},0,1,1/{'7' * 4000}"],
        ["product-formula", "-r", "7" * 4290],
    ],
    ids=["classify", "product-formula"],
)
def test_factorization_error_on_a_long_input_is_one_short_line(args):
    result = run_cli(["--factor-bound", "2", *args])
    assert_one_error_line(result, code=4)
    assert len(result[2].rstrip(b"\n")) <= 200, result[2][:300]
    assert re.search(rb"cofactor <\d+-bit integer>", result[2])


#: A number whose value has 4001 digits: short enough to parse, too long to
#: show in a message.
BIG = "1" + "0" * 4000


#: How a message shows BIG, or a number made from it.
BITS = b"-bit integer>"


@pytest.mark.parametrize(
    "args,code,shows",
    [
        (["classify", "--map", f"{BIG},1,1,1"], 3, BITS),
        # a singular map's message shows no coefficient at all
        (["classify", "--map", ",".join([BIG] * 4)], 2, b"error: '--map': ad - bc = 0\n"),
        (["iterate", "--map", "1/2,0,1,2", "--x0", "1", "--place", "3", "--xi", BIG], 2, BITS),
        (["cross-ratio", "--map", f"1,0,1,{BIG}", "--points", f"-{BIG},0,1,2"], 2, BITS),
        (["adele-step", "--map", "1/2,0,1,2", "--real", "1", "--elsewhere", f"1/{BIG}"], 2, BITS),
        (["product-formula", "-r", f"{BIG}/0"], 2, BITS),
        (["--factor-bound", f"-{BIG}", "product-formula", "-r", "6"], 2, BITS),
        (["modular", "--family", BIG, "--c", "1"], 2, BITS),
        (["--bit-guard", BIG, "iterate", "--map", "1/2,0,1,2", "--x0", "1", "--place", "3"], 4, BITS),
        (["--audit-primes", BIG, "classify", "--map", "1/2,0,1,2"], 4, BITS),
    ],
    ids=[
        "discriminant", "singular", "xi", "pole", "tail", "zero-denominator",
        "factor-bound", "family", "bit-guard", "audit-primes",
    ],
)
def test_a_long_number_in_a_message_is_shown_by_its_bit_size(args, code, shows):
    result = run_cli(args)
    assert_one_error_line(result, code=code)
    assert len(result[2].rstrip(b"\n")) <= 200, result[2][:300]
    assert shows in result[2]


@pytest.mark.skipif(not int_digit_limit(), reason="the interpreter prints any integer")
def test_a_result_past_the_digit_limit_is_a_resource_error():
    # the fixed point (P^2 - Q^2)/(PQ) has about 7800 digits; P and Q parse
    p, q = str(2**13000), str(3**8000)
    result = run_cli(["classify", "--map", f"{p}/{q},0,1,{q}/{p}"])
    assert_one_error_line(result, code=4)
    assert len(result[2].rstrip(b"\n")) <= 200, result[2][:300]
    assert f"more than {int_digit_limit()} digits".encode() in result[2]


def _timed_cli(args):
    start = time.perf_counter()
    result = run_cli(args)
    return result, time.perf_counter() - start


def test_a_large_prime_place_is_proven_fast():
    # a few steps: the default orbit prints 30 MB, which alone takes a second
    args = ["iterate", "--map", "1/2,0,1,2", "--x0", "3", "--steps", "24"]
    (code, out, _), seconds = _timed_cli([*args, "--place", "1000000000039"])
    assert code == 0 and out
    assert seconds < 1


def test_a_place_above_the_proven_range_is_a_resource_error():
    args = ["iterate", "--map", "1/2,0,1,2", "--x0", "3"]
    result, seconds = _timed_cli([*args, "--place", str(2**127 - 1)])
    assert_one_error_line(result, code=4)
    assert len(result[2].rstrip(b"\n")) <= 200
    assert b"127-bit" in result[2] and b"MR_LIMIT" in result[2], result[2]
    assert seconds < 1


def test_a_long_composite_place_is_refused_fast_in_one_short_line():
    # 4300 sevens, divisible by 7: the first factor decides, and the error
    # names the 14284-bit place by its size, not by its digits
    args = ["iterate", "--map", "1/2,0,1,2", "--x0", "3"]
    result, seconds = _timed_cli([*args, "--place", "7" * 4300])
    assert_one_error_line(result, code=2)
    assert len(result[2].rstrip(b"\n")) <= 200, result[2][:300]
    assert seconds < 1


def test_audit_above_the_prime_scan_cap_is_a_resource_error():
    code, out, err = run_cli(
        ["--audit-primes", "1000001", "classify", "--map", "1/2,0,1,2"]
    )
    assert code == 4
    assert out == b""
    lines = err.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_case_command_validation():
    assert run_cli(["case", "--tag", "A", "--a", "1/2"])[0] == 2  # missing --c
    assert run_cli(["case", "--tag", "B", "--t", "1"])[0] == 3  # collapses to c = 0
    assert run_cli(["case", "--tag", "B", "--t", "3", "--a", "1"])[0] == 2


def test_case_command_builds_the_signed_families():
    for tag, sign, c in (("C", "-", "2"), ("D", "+", "3")):
        code, out, err = run_cli(
            ["--format", "json", "case", "--tag", tag, "--sign", sign, "--c", c]
        )
        assert code == 0, err
        assert tag in json.loads(out)["cases"]


def test_classify_lists_no_case_for_a_non_square_det():
    code, out, err = run_cli(["--format", "json", "classify", "--map", "1,0,1,2"])
    assert code == 0, err
    assert json.loads(out)["cases"] == []


@pytest.mark.parametrize(
    "line",
    [
        "modular --family 1 --c 3",
        "modular --family 5 --sign - --c 2",
        "case --tag A --a 2 --c 1",
        "case --tag C --sign - --c 2",
        "case --tag E --a 2 --c 1",
    ],
)
def test_an_audited_family_classifies_as_its_map(line):
    # modular and case write classify's document of their map, after
    # their own fields, and classify's rows
    args = line.split()
    own = {"family", "sign", "param"} if args[0] == "modular" else {"tag"}
    audit = ["--audit-primes", "30"]
    code, out, err = run_cli([*audit, "--format", "json", *args])
    assert code == 0, err
    doc = json.loads(out)
    assert own <= doc.keys() and doc["audit"]
    entries = ",".join(doc["map"][name] for name in "abcd")
    classify = [*audit, "classify", "--map", entries]
    assert {k: v for k, v in doc.items() if k not in own} == json.loads(
        run_cli(["--format", "json", *classify])[1]
    )
    for fmt in ("csv", "table"):
        result = run_cli([*audit, "--format", fmt, *args])
        assert result == run_cli(["--format", fmt, *classify])


def test_an_audited_classify_factors_the_multiplier_once(monkeypatch):
    # the reports, the fixed points and the audit share one multiplier and
    # its support, wherever either function is looked up
    from adelicdyn import classification, dynamics, moebius, padic

    calls = collections.Counter()
    for module, name in [(padic, "norm_support"), (moebius, "fixed_points")]:
        original = getattr(module, name)
        counting = counted(calls, name, original)
        for namespace in (classification, cli_module, dynamics, moebius, padic):
            if getattr(namespace, name, None) is original:
                monkeypatch.setattr(namespace, name, counting)
    argv = ["--audit-primes", "30", "--format", "json", "classify", "--map", "1/2,0,1,2"]
    code, out, err = run_cli(argv)
    assert code == 0 and json.loads(out)["audit"], err
    assert calls == {"norm_support": 1, "fixed_points": 1}


@pytest.mark.parametrize(
    "flags",
    [["--principal", "1", "--real", "1"], ["--real", "1"]],
    ids=["principal-and-real", "no-elsewhere"],
)
def test_adele_step_needs_one_way_to_give_the_adele(flags):
    assert_one_error_line(run_cli(["adele-step", "--map", "1/2,0,1,2", *flags]))


def test_cross_ratio_rejects_repeated_points():
    code, _, err = run_cli(
        ["cross-ratio", "--map", "1/2,0,1,2", "--points", "0,1,1,3"]
    )
    assert code == 2
    assert b"distinct" in err


def test_pole_start_is_reported_in_band():
    code, out, _ = run_cli(
        [
            "--format", "json",
            "iterate", "--map", "1/2,0,1,2", "--x0", "-2", "--place", "real",
            "--steps", "5", "--xi", "0",
        ]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["terminated_by"] == "pole_hit"
    assert len(doc["steps"]) == 1
    assert doc["verdict"]["kind"] == "undetermined"


@pytest.mark.parametrize(
    "flags",
    [
        # -7/2 attracts (f' = 7/8); the orbit leaves the repeller 0 for the pole
        ["--map", "-4,0,1/7,-7/2", "--x0", "1/3", "--xi", "-7/2", "--steps", "17"],
        # -1 is fused (f' = 1); the distance 1/|w| grows as w = -100, -98, ...
        ["--map", "-1,-2,2,3", "--x0", "-101/100", "--xi", "-1", "--steps", "20"],
    ],
    ids=["attracting", "fused"],
)
def test_real_growth_near_a_point_that_does_not_repel_is_no_escape(flags):
    code, out, _ = run_cli(["--format", "json", "iterate", "--place", "real", *flags])
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert verdict["kind"] == "undetermined"
    assert verdict["evidence"]["strictly_increasing"] is True
    assert verdict["evidence"]["start_inside_radius"] is True


def test_env_var_overrides_format():
    args = ["classify", "--map", "1/2,0,1,2"]
    code, out, _ = run_cli(args, env_extra={"ADELICDYN_FORMAT": "json"})
    assert code == 0
    assert json.loads(out)["det"] == "1"
    # without the override the default is the table format
    _, table_out, _ = run_cli(args)
    assert table_out.startswith(b"xi")


def test_env_var_overrides_subcommand_flags():
    # every flag is addressable as ADELICDYN_<COMMAND>_<FLAG>
    code, out, _ = run_cli(
        ["classify"],
        env_extra={
            "ADELICDYN_FORMAT": "json",
            "ADELICDYN_CLASSIFY_MAP": "1/2,0,1,2",
        },
    )
    assert code == 0
    assert json.loads(out)["map"] == {"a": "1/2", "b": "0", "c": "1", "d": "2"}
    code, out, _ = run_cli(
        ["product-formula"],
        env_extra={"ADELICDYN_PRODUCT_FORMULA_RATIONAL": "6"},
    )
    assert code == 0
    assert out.splitlines()[-1].split() == [b"product", b"1"]


def test_env_var_names_come_from_the_last_long_flag():
    env = {"ADELICDYN_FORMAT": "json", "ADELICDYN_MODULAR_PARAM": "2"}
    code, out, _ = run_cli(["modular", "--family", "1"], env_extra=env)
    assert code == 0
    assert json.loads(out)["param"] == 2


ADELE_FROM_ENV = [
    "--format", "json",
    "adele-step", "--map", "1/2,0,1,2", "--real", "1", "--elsewhere", "1",
]


def _listed_primes(out):
    return [c["p"] for c in json.loads(out)["input"]["components"]]


def test_env_var_lists_each_repeated_value():
    env = {"ADELICDYN_ADELE_STEP_AT": "2=1/2 3=1"}
    code, out, _ = run_cli(ADELE_FROM_ENV, env_extra=env)
    assert code == 0
    assert _listed_primes(out) == [2, 3]
    # values on the command line replace the environment's, as for every flag
    code, out, _ = run_cli([*ADELE_FROM_ENV, "--at", "5=1"], env_extra=env)
    assert code == 0
    assert _listed_primes(out) == [5]


def test_env_value_is_read_only_for_the_command_that_runs():
    env = {"ADELICDYN_ADELE_STEP_AT": "2=x"}
    assert run_cli(["classify", "--map", "1/2,0,1,2"], env_extra=env)[0] == 0
    result = run_cli(ADELE_FROM_ENV, env_extra=env)
    assert_one_error_line(result)
    assert b"'--at'" in result[2]


@pytest.mark.parametrize(
    "args",
    [
        ["classify", "--map", "-1/2,0,1,-2"],
        ["iterate", "--map", "1/2,0,1,2", "--x0", "-1/3", "--place", "3", "--steps", "2"],
        ["cross-ratio", "--map", "1/2,0,1,2", "--points", "-1,0,1,3"],
    ],
    ids=["map", "x0", "points"],
)
def test_negative_values_are_values_not_flags(args):
    assert run_cli(args)[0] == 0


@pytest.mark.parametrize(
    "args,flag",
    [
        (["--form", "json", "classify", "--map", "1/2,0,1,2"], "--form"),
        (["--nope", "classify"], "--nope"),
        (["classify", "--ma", "1/2,0,1,2"], "--ma"),
        (["product-formula", "--rat", "6"], "--rat"),
    ],
    ids=["global", "unknown-global", "subcommand", "long-name"],
)
def test_flag_abbreviations_are_refused(args, flag):
    result = run_cli(args)
    assert_one_error_line(result)
    assert repr(flag).encode() in result[2], result[2]


@pytest.mark.parametrize(
    "args,command",
    [
        (["foo", "--map", "1"], "foo"),
        (["--format", "json", "foo", "--map", "1"], "foo"),
        (["--max-steps", "5", "bar", "--xi", "0"], "bar"),
    ],
    ids=["first", "after-a-flag", "after-a-count"],
)
def test_an_unknown_command_is_named_before_its_flags(args, command):
    assert run_cli(args) == (2, b"", f"error: unknown command '{command}'\n".encode())


def test_no_arguments_at_all_name_the_missing_command():
    expected = b"error: the following arguments are required: COMMAND\n"
    assert run_cli([]) == (2, b"", expected)


#: Each flag's kind, for each entry of `COMMANDS` ("" is global), help aside.
FLAG_KINDS = {
    command: {name: kind for spec, kind, *_ in specs for name in spec.split("/")}
    for command, (_, *specs) in COMMANDS.items()
}
HELP_FLAGS = ("-h", "--help")
COMMAND_NAMES = [c for c in COMMANDS if c]
VALUES = st.one_of(
    st.sampled_from(["1/2,0,1,2", "-1/3", "real", "x", "-", "2=1/2", "json", "E"]),
    st.integers(-50, 50).map(str),
)
#: Commands, every flag, help flags, '--', unknown flags and values.
TOKENS = st.one_of(
    st.sampled_from(
        COMMAND_NAMES
        + sorted(set().union(*FLAG_KINDS.values()))
        + [*HELP_FLAGS, "--", "--nope", "--ma", "-x"]
    ),
    VALUES,
)


def _pair(command):
    """One of the command's own flags ("" is global) and a value."""
    return st.tuples(st.sampled_from(sorted(FLAG_KINDS[command])), VALUES).map(list)


def _argv_around(command):
    """Up to 8 tokens around the command, so that its parser is reached;
    help flags are drawn more often there, so that some argv reach one."""
    single = st.one_of(TOKENS, st.sampled_from(HELP_FLAGS)).map(lambda t: [t])
    tail = st.lists(st.one_of(single, _pair(command)), max_size=4)
    return st.tuples(st.lists(_pair(""), max_size=1), tail).map(
        lambda parts: [*sum(parts[0], []), command, *sum(parts[1], [])][:8]
    )


ARGV = st.one_of(
    st.lists(TOKENS, max_size=8), st.sampled_from(COMMAND_NAMES).flatmap(_argv_around)
)


def _reads(kind, text):
    """Whether a flag of this kind takes the text as its value."""
    if isinstance(kind, tuple):
        return text in kind
    try:
        kind(text)
    except errors.AdelicDynError:
        return False
    return True


def _first_structural_error(argv):
    """(kind, token) for the first structural error in argv, or ("help",
    flag) if a help flag comes first; None if neither does, or if a value
    before the help flag is bad.  Read from the flag table alone: every
    known flag takes the next argument."""
    command, kind, read = "", None, True  # read: every value so far is good
    for arg in argv:
        if kind is not None:
            kind, read = None, read and _reads(kind, arg)
        elif arg in HELP_FLAGS:
            return ("help", arg) if read else None
        elif arg in FLAG_KINDS[command]:
            kind = FLAG_KINDS[command][arg]
        elif arg.startswith("-") and arg != "-" and not arg[1].isdigit():
            return "unrecognized flag", arg
        elif command:
            return "unrecognized argument", arg
        elif arg not in COMMAND_NAMES:
            return "unknown command", arg
        else:
            command = arg
    return None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=ARGV)
def test_the_first_structural_error_is_named(argv):
    code, out, err = run_cli(argv, {"ADELICDYN_MAX_STEPS": "8"})
    assert code in (0, 2, 3, 4), (argv, code, err)
    if code:
        assert out == b""
        assert err.startswith(b"error: ") and err.count(b"\n") == 1 and err.endswith(b"\n")
        assert len(err.rstrip(b"\n")) <= 200
    found = _first_structural_error(argv)
    if found is None:
        assert not err.startswith((b"error: unrecognized", b"error: unknown command")), err
    elif found[0] == "help":
        assert (code, err) == (0, b"") and out.startswith(b"usage: ")
    else:
        assert (code, err) == (2, f"error: {found[0]} {shown(found[1])}\n".encode()), argv


@pytest.mark.parametrize(
    "args,expected",
    [
        (["-h", "foo", "--map", "1"], None),
        (["classify", "stray", "-h"], "unrecognized argument 'stray'"),
        (["classify", "stray"], "unrecognized argument 'stray'"),
        (["--max-steps", "x", "classify", "stray"], "unrecognized argument 'stray'"),
        (["--format", "case", "real"], "unknown command 'real'"),
        (["--"], "unrecognized flag '--'"),
        (["classify", "--map", "1/2,0,1,2", "--"], "unrecognized flag '--'"),
    ],
    ids=[
        "help-first", "stray-before-help", "stray", "stray-after-a-bad-value",
        "command-as-value", "dashes", "dashes-last",
    ],
)
def test_one_scan_names_the_first_bad_argument(args, expected):
    code, out, err = run_cli(args)
    if expected is None:
        assert (code, err) == (0, b"") and out.startswith(b"usage: adelicdyn ")
    else:
        assert (code, out, err) == (2, b"", f"error: {expected}\n".encode())


@pytest.mark.parametrize(
    "args,parsers",
    [
        (["product-formula", "-r", "6"], 2),
        (["--format", "csv", "classify", "--map", "1/2,0,1,2"], 2),
        (["classify", "-h"], 2),
        (["-h", "classify"], 1),
        (["--format", "json"], 1),
    ],
    ids=["command", "global-flag", "command-help", "global-help", "no-command"],
)
def test_a_run_builds_one_parser_a_part_and_scans_once(args, parsers):
    # the global parser reads the line up to the command, the command's
    # parser the rest; one scan splits the line
    counts = collections.Counter()
    with mock.patch.object(Parser, "__init__", counted(counts, "parsers", Parser.__init__)), \
            mock.patch.object(Parser, "split", counted(counts, "scans", Parser.split)):
        code, out, err = run_cli(args)
    assert code in (0, 2), err
    assert counts == {"parsers": parsers, "scans": 1}


def test_no_sub_parsers_and_no_second_scan():
    assert "parse_known_args" not in vars(Parser)
    for path in Path(cli_module.__file__).parent.glob("*.py"):
        assert "add_subparsers" not in path.read_text(encoding="utf-8"), path


@pytest.mark.parametrize(
    "code,args",
    [
        (0, ["product-formula", "-r", "6"]),
        (2, ["classify", "--map", "1,2,3"]),
        (3, ["classify", "--map", "1,1,1,2"]),
        (4, ["--factor-bound", "2", "product-formula", "-r", "25"]),
    ],
    ids=["exit0", "exit2", "exit3", "exit4"],
)
def test_the_cli_module_runs_as_a_script(code, args):
    # the child exits and writes what `run_cli` gives in this process
    expected = run_cli(args)
    assert expected[0] == code and expected[1 if code == 0 else 2]
    assert _run([sys.executable, "-m", "adelicdyn.cli", *args]) == expected


#: Exit codes when the reader closes the pipe after a few bytes, with
#: stdout buffered (the default) or not (PYTHONUNBUFFERED).  Every format
#: is written until every byte is out, so a closed pipe always fails.
CLOSED_PIPE_EXIT = {
    (False, "json"): 1, (False, "csv"): 1, (False, "table"): 1,
    (True, "json"): 1, (True, "csv"): 1, (True, "table"): 1,
}


@pytest.mark.parametrize(
    "unbuffered,fmt",
    sorted(CLOSED_PIPE_EXIT),
    ids=[f"{'unbuffered' if u else 'buffered'}-{f}" for u, f in sorted(CLOSED_PIPE_EXIT)],
)
def test_a_closed_stdout_ends_quietly(unbuffered, fmt):
    proc = _cli_process(["--format", fmt, *ITERATE_SPHERE], unbuffered)
    assert proc.stdout.read(16)
    proc.stdout.close()
    _assert_ends_quietly(proc, CLOSED_PIPE_EXIT[unbuffered, fmt])


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_stdout_closed_before_the_first_write_ends_quietly(unbuffered):
    # buffered, the closed pipe shows only when the output is flushed,
    # which must happen before the interpreter exits
    proc = _cli_process(["product-formula", "-r", "6"], unbuffered)
    proc.stdout.close()
    _assert_ends_quietly(proc, 1)


def _cli_process(args, unbuffered):
    env = {k: v for k, v in os.environ.items() if not k.startswith("ADELICDYN_")}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "adelicdyn", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )


def _assert_ends_quietly(proc, code):
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == code
    assert b"Traceback" not in err and b"Exception ignored" not in err, err[:300]


def test_csv_output():
    code, out, _ = run_cli(
        [
            "--format", "csv",
            "iterate", "--map", "1/2,0,1,2", "--x0", "3", "--place", "3",
            "--steps", "3",
        ]
    )
    assert code == 0
    lines = out.decode().splitlines()
    assert lines[0] == "n,x,dist"
    assert lines[1] == "0,3,1/3"
    assert len(lines) == 5

    code, out, _ = run_cli(
        [
            "--format", "csv", "--max-steps", "40",
            "basin", "--map", "1/2,0,1,2", "--xi", "0", "--place", "2",
            "--height", "1",
        ]
    )
    assert out.decode().splitlines()[0] == "x0,verdict,steps_used"


@pytest.mark.parametrize("height", ["0", "2"])
def test_basin_names_a_point_the_map_does_not_fix_at_every_height(height):
    # the map fixes only -3/2 and 0; height 0 has no start to run
    args = ["basin", "--map", "1/2,0,1,2", "--xi", "5", "--place", "3", "--height", height]
    result = run_cli(args)
    assert_one_error_line(result)
    assert result[2] == b"error: 5 is not fixed by the map\n"


def test_table_output_aligns_columns():
    code, out, _ = run_cli(["product-formula", "-r", "-10/21"])
    assert code == 0
    lines = out.decode().splitlines()
    assert lines[0].split() == ["place", "norm"]
    assert lines[-1].split() == ["product", "1"]


ITERATE_SPHERE = ["iterate", "--map", "1/2,0,1,2", "--x0", "3", "--place", "3"]


def test_iterate_short_orbit_is_undetermined():
    # the same sphere orbit as the spec example, but shorter than the
    # 16-step window: constant distances alone do not make a verdict
    code, out, _ = run_cli(["--format", "json", *ITERATE_SPHERE, "--steps", "3"])
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert verdict["kind"] == "undetermined"
    assert verdict["evidence"]["window"] == 3


@pytest.mark.parametrize(
    "args",
    [
        ["iterate", "--map", "1/2,0,1,2", "--x0", "1", "--place", "\u00b2"],
        ["iterate", "--map", "1/2,0,1,2", "--x0", "\u0663", "--place", "3"],
        [
            "adele-step", "--map", "1/2,0,1,2", "--real", "1",
            "--elsewhere", "1", "--at", "\u00b2=1",
        ],
        [*ITERATE_SPHERE, "--steps", "-1"],
        ["basin", "--map", "1/2,0,1,2", "--xi", "0", "--place", "2", "--height", "-1"],
        ["--audit-primes", "-1", "classify", "--map", "1/2,0,1,2"],
        ["--max-steps", "-1", *ITERATE_SPHERE],
        ["--bit-guard", "-1", *ITERATE_SPHERE],
        ["modular", "--family", "1", "--c", "\u0663"],
        ["modular", "--family", "\u0661", "--c", "1"],
        ["--max-steps", "\u0661\u0660", *ITERATE_SPHERE],
        [*ITERATE_SPHERE, "--steps", "1_6"],
        [
            "basin", "--map", "1/2,0,1,2", "--xi", "0", "--place", "2",
            "--height", "\u0662",
        ],
        ["--audit-primes", "\u0665\u0660", "classify", "--map", "1/2,0,1,2"],
        ["--audit-primes", " 50", "classify", "--map", "1/2,0,1,2"],
        ["--factor-bound", "1_000_000", "product-formula", "-r", "6"],
        ["--bit-guard", "+50", *ITERATE_SPHERE],
        [*ITERATE_SPHERE, "--steps", "9" * 5000],
        ["iterate", "--map", "1/2,0,1,2", "--x0", HUGE, "--place", "real"],
        ["classify", "--map", f"1/2,{HUGE},1,2"],
        ["product-formula", "-r", f"1/{HUGE}"],
        ["iterate", "--map", "1/2,0,1,2", "--x0", "1", "--place", "3", "--xi", HUGE],
        [
            "adele-step", "--map", "1/2,0,1,2", "--real", "1",
            "--elsewhere", "1", "--at", f"{HUGE}=1",
        ],
        [
            "adele-step", "--map", "1/2,0,1,2", "--real", "1",
            "--elsewhere", "1", "--at", f"2=-{HUGE}",
        ],
        ["cross-ratio", "--map", "1/2,0,1,2", "--points", f"0,1,3,{HUGE}"],
        ["--nope", "classify", "--map", "1/2,0,1,2"],
        ["classify-all", "--map", "1/2,0,1,2"],
        ["iterate", "--map", "1/2,0,1,2", "--x0", "3"],
        ["classify", "--map"],
        ["--format", "xml", "classify", "--map", "1/2,0,1,2"],
        ["modular", "--family", "1", "--sign", "0", "--c", "1"],
        ["case", "--tag", "G", "--a", "1", "--c", "1"],
        ["modular", "--family", "0", "--c", "1"],
        ["modular", "--family", "6", "--c", "1"],
        [],
    ],
    ids=[
        "superscript-place", "arabic-indic-x0", "superscript-at",
        "negative-steps", "negative-height", "negative-audit-primes",
        "negative-max-steps", "negative-bit-guard",
        "arabic-indic-param", "arabic-indic-family", "arabic-indic-max-steps",
        "underscore-steps", "arabic-indic-height", "arabic-indic-audit-primes",
        "spaced-audit-primes", "underscore-factor-bound", "plus-bit-guard",
        "5000-digit-steps", "5000-digit-x0", "5000-digit-map", "5000-digit-r",
        "5000-digit-xi", "5000-digit-at-prime", "5000-digit-at-value",
        "5000-digit-points", "unknown-option", "unknown-subcommand",
        "missing-required-option", "option-without-value", "bad-format",
        "bad-sign", "bad-tag", "family-0", "family-6", "no-arguments",
    ],
)
def test_bad_numbers_are_bad_input(args):
    assert_one_error_line(run_cli(args))


def test_bad_env_value_is_bad_input():
    result = run_cli(ITERATE_SPHERE, env_extra={"ADELICDYN_MAX_STEPS": "ten"})
    assert_one_error_line(result)
    assert b"--max-steps" in result[2]
    result = run_cli(ITERATE_SPHERE, env_extra={"ADELICDYN_FORMAT": "xml"})
    assert_one_error_line(result)
    assert b"--format" in result[2]


def test_over_long_numbers_are_not_echoed():
    limit = str(sys.get_int_max_str_digits()).encode()
    negative_steps = [*ITERATE_SPHERE, "--steps", "-" + HUGE]
    for args in (["product-formula", "-r", HUGE], negative_steps):
        result = run_cli(args)
        assert_one_error_line(result)
        assert HUGE.encode() not in result[2] and limit in result[2]


def test_over_long_text_is_named_as_no_number():
    text = "x" * 5000
    basin = ["basin", "--map", "1/2,0,1,2", "--xi", "0", "--height", "1"]
    for result in (
        run_cli([*basin, "--place", text]),
        run_cli(basin, env_extra={"ADELICDYN_BASIN_PLACE": text}),
    ):
        assert_one_error_line(result)
        assert f"{shown(text)} is not 'real' or a prime".encode() in result[2]


def test_the_cli_starts_without_dataclasses_or_inspect():
    # `dataclasses` loads inspect, ast, dis and tokenize, about a tenth of
    # a one-shot CLI call; -S keeps the environment's site hooks out
    code = "import sys, adelicdyn.cli; print({'dataclasses', 'inspect'} & set(sys.modules))"
    result = _run([sys.executable, "-S", "-c", code], {"PYTHONPATH": str(ROOT / "src")})
    assert result == (0, b"set()\n", b"")


@pytest.mark.parametrize("command", sorted(COMMANDS), ids=lambda c: c or "group")
def test_help_works_and_states_the_ranges(command):
    code, out, err = run_cli([command, "--help"] if command else ["--help"])
    assert code == 0
    assert err == b""
    assert out
    text = out.decode()
    count_flags = sum(kind is COUNT for _, kind, _, _ in COMMANDS[command][1:])
    assert text.lower().count("nonnegative") == count_flags
    if command == "":
        assert str(MAX_PRIME_SCAN) in text
        assert str(DEFAULT_BIT_GUARD) in text
        # every command with its docstring line
        for name, (run, *_) in list(COMMANDS.items())[1:]:
            assert re.search(rf"\n  {name} +{re.escape(run.__doc__)}\n", text), name
    # each capped flag's entry states its cap, read from its row
    entries = re.split(r"\n  (?=-)", text)
    for spec, *_ in COMMANDS[command][1:]:
        flag = spec.split("/")[-1]
        if flag in LIMITS:
            (entry,) = [e for e in entries if re.match(rf"(-\w, )?{flag} ", e)]
            assert f"at most {LIMITS[flag].cap}]" in " ".join(entry.split()), entry
    if command == "modular":
        assert "1..5" in text


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_default_sphere_orbit_ends_printable(fmt):
    # the orbit reaches Python's int/str digit limit near step 7142; the
    # default bit guard is the largest size that prints, so it stops first
    code, out, err = run_cli(["--format", fmt, *ITERATE_SPHERE])
    assert code == 0
    if fmt == "json":
        assert err == b""
        doc = json.loads(out)
        assert doc["terminated_by"] == "overflow_guard"
        n = len(doc["steps"])
    else:
        notice = re.fullmatch(rb"note: overflow_guard ended the orbit before step (\d+)\n", err)
        assert notice, err[:300]
        n = int(notice.group(1))
        last = out.rstrip(b"\n").rsplit(b"\n", 1)[1]
        assert re.split(rb"[ ,]", last)[0] == str(n - 1).encode()
    assert n > 7000


def test_bit_guard_above_the_cap_is_a_resource_error():
    result = run_cli(["--bit-guard", str(DEFAULT_BIT_GUARD + 1), *ITERATE_SPHERE])
    assert_one_error_line(result, code=4)
    assert f"cap {DEFAULT_BIT_GUARD}".encode() in result[2]
    at_cap = ["--bit-guard", str(DEFAULT_BIT_GUARD), *ITERATE_SPHERE, "--steps", "2"]
    assert run_cli(at_cap)[0] == 0


#: For each capped flag, an argv past its cap; each names a value that passes.
PAST_THE_CAP = {
    # (10^12 + 39)(10^12 + 61): trial division to 10^12 would take hours
    "factor-bound": [
        "--factor-bound", "1000000000000", "product-formula", "-r", "1000000000100000000002379",
    ],
    # a small orbit that never ends early: 10^9 steps once ran out of memory
    "max-steps": [
        "--max-steps", "1000000000", "iterate", "--map", "2,-1,1,0", "--x0", "3", "--place", "3",
    ],
    "steps": [
        "iterate", "--map", "2,-1,1,0", "--x0", "3", "--place", "3", "--steps", "1000000000",
    ],
    "height": [
        "--bit-guard", "100", "--max-steps", "100000",
        "basin", "--map", "1/2,0,1,2", "--xi", "0", "--place", "real", "--height", "3",
    ],
    "bit-guard": ["--bit-guard", str(DEFAULT_BIT_GUARD + 1), *ITERATE_SPHERE, "--steps", "2"],
    "audit-primes": ["--audit-primes", "1000001", "classify", "--map", "1/2,0,1,2"],
}


@pytest.mark.parametrize("name", list(PAST_THE_CAP))
def test_a_value_past_its_cap_names_the_flag_and_a_value_that_passes(name):
    args = PAST_THE_CAP[name]
    result, seconds = _timed_cli(args)
    assert_one_error_line(result, code=4)
    assert len(result[2].rstrip(b"\n")) <= 200 and seconds < 2, (result[2], seconds)
    flag = f"--{name}"
    line = result[2].decode()
    found = re.fullmatch(rf"error: {flag} \d+ is above the cap \d+.*; {flag} (\d+) passes\n", line)
    assert found, line
    passing = list(args)
    passing[passing.index(flag) + 1] = found[1]
    assert b"above the cap" not in run_cli(passing)[2]


def test_a_factor_bound_below_2_names_the_flag_where_it_is_used():
    classify = ["--factor-bound", "1", "classify", "--map", "1/2,0,1,2"]
    assert run_cli(classify) == (2, b"", b"error: --factor-bound must be >= 2, got 1\n")
    iterate = ["--factor-bound", "1", "iterate", "--map", "1/2,0,1,2", "--x0", "1",
               "--place", "real", "--steps", "2"]
    assert run_cli(iterate)[0] == 0


def test_a_limit_set_by_its_variable_is_checked_as_its_flag():
    args = PAST_THE_CAP["factor-bound"]
    result = run_cli(args[2:], env_extra={"ADELICDYN_FACTOR_BOUND": args[1]})
    assert result == run_cli(args)


@pytest.mark.parametrize("flag", ["-h", "--help="], ids=["short", "long"])
def test_a_help_flag_with_attached_text_is_an_unknown_flag(flag):
    result = run_cli([flag + "x" * 300])
    assert result == (2, b"", f"error: unrecognized flag {shown(flag + 'x' * 300)}\n".encode())


POLE_ORBIT = [
    "iterate", "--map", "1/2,0,1,2", "--x0", "-8/5", "--place", "real", "--xi", "0",
]
GUARDED_ORBIT = [
    "--bit-guard", "5", "iterate", "--map", "1/2,0,1,2", "--x0", "1", "--place", "real",
]


@pytest.mark.parametrize("fmt", ["csv", "table"])
@pytest.mark.parametrize(
    "args,stop,n",
    [(POLE_ORBIT, "pole_hit", 2), (GUARDED_ORBIT, "overflow_guard", 3)],
    ids=["pole_hit", "overflow_guard"],
)
def test_cut_short_orbit_notice_on_stderr(fmt, args, stop, n):
    # f(-8/5) = -2 is the pole; with 5 bits, x_3 = 1/106 is too long
    code, out, err = run_cli(["--format", fmt, *args])
    assert code == 0
    assert err == f"note: {stop} ended the orbit before step {n}\n".encode()
    assert len(out.splitlines()) == 1 + n  # the header and steps 0..n-1
    code, out, err = run_cli(["--format", "json", *args])
    assert (code, err) == (0, b"")
    doc = json.loads(out)
    assert doc["terminated_by"] == stop and len(doc["steps"]) == n


@pytest.mark.parametrize("fmt", ["csv", "table"])
def test_orbit_that_runs_its_steps_writes_no_stderr(fmt):
    code, out, err = run_cli(["--format", fmt, *ITERATE_SPHERE, "--steps", "3"])
    assert (code, err) == (0, b"")
    assert len(out.splitlines()) == 5


def _map_fixing(xi):
    """'a,b,c,d' of the map with fixed points xi and 1, multiplier 1/2 at xi."""
    return ",".join(str(k) for k in oracle.normal_form_map(2, xi, 1))


XI_2000, XI_9010 = Fraction(1, 3**2000), Fraction(1, 3**9010)
START_PAST_THE_GUARD = {
    # x0 prints, but |x0 - xi| has a denominator of about 5200 digits
    "iterate": [
        "iterate", "--map", _map_fixing(XI_2000), "--xi", str(XI_2000),
        "--x0", "1/" + "7" * 4290, "--place", "real", "--steps", "1",
    ],
    # xi's denominator has 14281 bits; the first start, x0 = -16, is already
    # at a distance with a 14285-bit numerator; at height 16 the default
    # steps would pass the cap on the sweep's work
    "basin": [
        "--max-steps", "2000", "basin", "--map", _map_fixing(XI_9010), "--xi", str(XI_9010),
        "--place", "real", "--height", "16",
    ],
    "bit-guard-0": ["--bit-guard", "0", *GUARDED_ORBIT[2:]],
}


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("name", list(START_PAST_THE_GUARD))
def test_a_start_past_the_bit_guard_is_a_resource_error(name, fmt):
    result = run_cli(["--format", fmt, *START_PAST_THE_GUARD[name]])
    assert_one_error_line(result, code=4)
    assert re.search(
        rb"a \d+-bit numerator or denominator, above the bit guard",
        result[2],
    )


def test_main_returns_on_success_and_ctrl_c_aborts(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["adelicdyn", "product-formula", "-r", "6"])
    assert main() is None
    assert capsys.readouterr().out.splitlines()[-1].split() == ["product", "1"]

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli_module, "verify_product_formula", interrupted)
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert exit_info.value.code == 1
    assert capsys.readouterr() == ("", "\nAborted!\n")


def test_only_the_digit_limit_value_error_is_an_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["adelicdyn", "product-formula", "-r", "6"])

    def failing(*args):
        raise ValueError("a fault in the program")

    monkeypatch.setattr(cli_module, "verify_product_formula", failing)
    with pytest.raises(ValueError, match="a fault in the program"):
        main()
    assert capsys.readouterr() == ("", "")


def test_adele_step_rejects_a_repeated_prime():
    code, out, err = run_cli(
        [
            "adele-step", "--map", "1/2,0,1,2", "--real", "1", "--elsewhere", "1",
            "--at", "2=1/2", "--at", "2=3",
        ]
    )
    assert code == 2
    assert out == b""
    assert b"twice" in err
    assert b"Traceback" not in err


def test_adele_step_tail_check_honours_factor_bound():
    # 1000036000099 = 1000003 * 1000033: factorable with bound 2e6 only
    code, out, err = run_cli(
        [
            "--format", "json", "--factor-bound", "2000000",
            "adele-step", "--map", "1/2,0,1,2", "--principal", "1/1000036000099",
        ]
    )
    assert code == 0, err
    listed = [c["p"] for c in json.loads(out)["input"]["components"]]
    assert listed == [1000003, 1000033]


def test_iterate_verdict_matches_spec_example():
    _, out, _ = run_cli(
        [
            "--format", "json",
            "iterate", "--map", "1/2,0,1,2", "--x0", "3", "--place", "3",
            "--steps", "24",
        ]
    )
    doc = json.loads(out)
    assert doc["xi"] == "0"
    assert {s["dist"] for s in doc["steps"]} == {"1/3"}
    assert doc["verdict"]["kind"] == "sphere_invariant"


@pytest.mark.parametrize(
    "map_text,place,xi",
    [
        ("1/2,0,1,2", "2", "-3/2"),  # the second point attracts
        ("1/2,0,1,2", "real", "0"),  # the first point attracts
        ("1/2,0,1,2", "3", "0"),  # both indifferent: the larger
        ("3,2,-2,-1", "real", "-1"),  # fused
    ],
)
def test_iterate_defaults_xi_to_the_attractive_point(map_text, place, xi):
    argv = ["iterate", "--map", map_text, "--x0", "1", "--place", place, "--steps", "2"]
    code, out, err = run_cli(["--format", "json", *argv])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["xi"] == xi
    # the rule as first written: the first fixed point that attracts, else the larger
    coeffs, p = MoebiusMap.from_string(map_text).coefficients(), Place.from_string(place).p
    points = oracle.fixed_points(coeffs)
    attracting = (x for x in points if oracle.norm(oracle.multiplier(coeffs, x), p) < 1)
    assert doc["xi"] == str(next(attracting, max(points)))


def test_classify_case_tags_in_output():
    _, out, _ = run_cli(["--format", "json", "classify", "--map", "3,2,-2,-1"])
    doc = json.loads(out)
    assert doc["cases"] == ["C", "E"]
    assert doc["fixed_points"] == {"fused": True, "points": ["-1"]}
    (report,) = doc["reports"]
    assert report["places"] == [
        {"place": "real", "kind": "indifferent", "multiplier_norm": "1"}
    ]


LONG_X = "x" * 5000
ITERATE_START = ["iterate", "--map", "1/2,0,1,2", "--place", "3", "--x0"]
ADELE_AT = [
    "adele-step", "--map", "1/2,0,1,2", "--real", "1", "--elsewhere", "1", "--at",
]


@pytest.mark.parametrize(
    "args",
    [
        ["product-formula", "-r", "+" + HUGE[1:]],
        ["classify", "--map", f"1,2,{LONG_X[6:]},4"],
        ["classify", "--map", "1," * 2500],
        ["cross-ratio", "--map", "1/2,0,1,2", "--points", "0," * 2500],
        [*ADELE_AT, LONG_X],
        [*ITERATE_START, LONG_X],
        [*ITERATE_START, "\u0663" * 5000],
        ["iterate", "--map", "1/2,0,1,2", "--x0", "1", "--place", LONG_X],
        [LONG_X],
        ["iterate", "--map", "1/2,0,1,2", "--x0", "1", "--place", "3", LONG_X],
        ["classify", "--map", ",".join([f"-{2**105}/{3**66}"] * 4)],
    ],
    ids=[
        "r-plus", "map-x", "map-count", "points", "at", "x0", "x0-arabic", "place",
        "command", "stray", "singular-map",
    ],
)
def test_malformed_over_long_values_are_not_echoed(args):
    # the malformed value is the last argument
    result = run_cli(args)
    assert_one_error_line(result)
    assert len(result[2].rstrip(b"\n")) <= 200, result[2][:300]
    assert args[-1].encode() not in result[2]


#: A valid invocation of each subcommand; a bad value for any one flag is
#: added to it (or replaces it) and must be reported with that flag's name.
VALID_ARGV = {
    "classify": ["--map", "1/2,0,1,2"],
    "iterate": ["--map", "1/2,0,1,2", "--x0", "3", "--place", "3", "--steps", "2"],
    "adele-step": ["--map", "1/2,0,1,2", "--principal", "1"],
    "basin": ["--map", "1/2,0,1,2", "--xi", "0", "--place", "2", "--height", "1"],
    "product-formula": ["-r", "6"],
    "modular": ["--family", "1", "--c", "1"],
    "case": ["--tag", "E", "--a", "2", "--c", "1"],
    "cross-ratio": ["--map", "1/2,0,1,2", "--points", "0,1,3,4"],
}


def _value_flags():
    """(command, names) for every flag that is not a choice; "" is global."""
    return [
        (command, spec.split("/"))
        for command in sorted(COMMANDS)
        for spec, kind, _, _ in COMMANDS[command][1:]
        if not isinstance(kind, tuple)
    ]


def _with_bad_value(command, names, bad="x"):
    if not command:
        return [names[0], bad, "classify", *VALID_ARGV["classify"]]
    argv = list(VALID_ARGV[command])
    for flag in names:
        if flag in argv:
            argv[argv.index(flag) + 1] = bad
            return [command, *argv]
    return [command, *argv, names[0], bad]


VALUE_FLAGS = _value_flags()


@pytest.mark.parametrize("command", sorted(VALID_ARGV))
def test_valid_argv_are_valid(command):
    assert run_cli([command, *VALID_ARGV[command]])[0] == 0


def test_every_listed_value_flag_is_covered():
    covered = {flag for _, names in VALUE_FLAGS for flag in names}
    assert covered >= {
        "--map", "--x0", "--xi", "--place", "--steps", "-r", "--points", "--at",
        "--principal", "--real", "--elsewhere", "--height", "--a", "--c", "--t",
        "--family", "--param", "--factor-bound", "--max-steps", "--bit-guard",
        "--audit-primes",
    }


@pytest.mark.parametrize(
    "command,names",
    VALUE_FLAGS,
    ids=[f"{c or 'group'}-{names[-1]}" for c, names in VALUE_FLAGS],
)
def test_every_value_error_names_its_flag(command, names):
    result = run_cli(_with_bad_value(command, names))
    assert_one_error_line(result)
    for flag in names:
        assert f"'{flag}'".encode() in result[2], result[2]


def test_a_composite_at_prime_names_the_flag():
    result = run_cli([*ADELE_AT, "4=1"])
    assert_one_error_line(result)
    assert b"'--at'" in result[2] and b"not a prime" in result[2]


#: The library parsers a flag's text may be read with, besides a choice.
LIBRARY_PARSERS = [
    cli_module.INTEGER, COUNT, cli_module.RATIONAL, cli_module.MAP,
    cli_module.PLACE, cli_module.POINTS, cli_module.COMPONENT,
]


def test_every_option_is_a_value_or_a_choice():
    for command in COMMANDS:
        for action in Parser(command)._actions:
            if action.dest in ("help", "command"):
                continue
            # every flag is read by _read, which names the flag in its error
            assert action.type.func is cli_module._read, action.dest
            names, kind = action.type.args
            assert names == action.option_strings
            if isinstance(kind, tuple):
                assert action.choices == kind and all(isinstance(c, str) for c in kind)
            else:
                assert any(kind is parse for parse in LIBRARY_PARSERS), action.dest


def test_cli_defines_one_class():
    types = [
        obj
        for obj in vars(cli_module).values()
        if isinstance(obj, type) and obj.__module__ == cli_module.__name__
    ]
    assert types == [Parser]
    assert issubclass(Parser, argparse.ArgumentParser)


def test_the_cli_needs_only_the_standard_library():
    # -S leaves site-packages off the path; the package comes from src/
    src = Path(cli_module.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import adelicdyn.cli"], capture_output=True, env=env
    )
    assert proc.returncode == 0, proc.stderr[-300:]


def test_no_command_body_parses_text():
    parsers = {"parse_rational", "parse_rationals", "parse_integer", "from_string"}
    for command in [main, *(run for run, *_ in COMMANDS.values() if run)]:
        source = inspect.getsource(command)
        called = {
            node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))
        }
        assert not called & parsers, command.__name__


def _rows(fmt, args):
    code, out, err = run_cli(["--format", fmt, *args])
    assert code == 0, err
    lines = out.decode().splitlines()
    if fmt == "csv":
        return [line.split(",") for line in lines]
    return [re.split(r" {2,}", line) for line in lines]


@pytest.mark.parametrize("args", [a for _, a in GOLDEN_COMMANDS], ids=GOLDEN_IDS)
def test_table_and_csv_give_the_same_rows(args):
    args = args[2:]  # drop "--format json"
    rows = _rows("csv", args)
    assert len(rows) > 1
    assert _rows("table", args) == rows


@pytest.mark.parametrize(
    "args,expected",
    [
        (
            ["adele-step", "--map", "1/2,0,1,2", "--principal", "1"],
            "place,input,output\nreal,1,1/6\n2,1,1/6\n3,1,1/6\nelsewhere,1,1/6\n",
        ),
        (
            ["cross-ratio", "--map", "1/2,0,1,2", "--points", "0,1,3,4"],
            "side,value\nbefore,9/8\nafter,9/8\nequal,true\n",
        ),
    ],
    ids=["adele-step", "cross-ratio"],
)
def test_csv_output_is_pinned(args, expected):
    assert run_cli(["--format", "csv", *args]) == (0, expected.encode(), b"")
