"""CLI contract: golden JSON, exit codes, determinism, formats, env vars."""

import argparse
import ast
import inspect
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from adelicdyn import cli as cli_module
from adelicdyn.cli import COMMANDS, COUNT, Parser, main
from adelicdyn.dynamics import DEFAULT_BIT_GUARD
from adelicdyn.exact import MAX_PRIME_SCAN
from goldens import GOLDEN_COMMANDS, GOLDEN_DIR, run_cli

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


def test_byte_identical_across_runs():
    for name, args in GOLDEN_COMMANDS[:4]:
        first = run_cli(args)
        second = run_cli(args)
        assert first == second


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
    """'a,b,c,d' of the map with fixed points xi and 1, multiplier 2 at xi."""
    coeffs = (2 * xi - 1, -xi, 1, xi - 2)
    return ",".join(str(k) for k in coeffs)


XI_2000, XI_9010 = Fraction(1, 3**2000), Fraction(1, 3**9010)
START_PAST_THE_GUARD = {
    # x0 prints, but |x0 - xi| has a denominator of about 5200 digits
    "iterate": [
        "iterate", "--map", _map_fixing(XI_2000), "--xi", str(XI_2000),
        "--x0", "1/" + "7" * 4290, "--place", "real", "--steps", "1",
    ],
    # xi's denominator has 14281 bits; the first start, x0 = -16, is already
    # at a distance with a 14285-bit numerator
    "basin": [
        "basin", "--map", _map_fixing(XI_9010), "--xi", str(XI_9010),
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
    ],
    ids=["r-plus", "map-x", "map-count", "points", "at", "x0", "x0-arabic", "place"],
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
