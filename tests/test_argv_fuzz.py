"""Hostile argv in a child process: the exit-code contract holds for each.

A derandomized `hypothesis` test draws a subcommand, one of its flags or a
global one, and a hostile value: huge, negative, non-ASCII, over-long, a
large prime or composite.  The value goes on the command line or into the
flag's ADELICDYN_* variable.  Each example runs `python -m adelicdyn` in a
child process with a wall-clock timeout and an address-space limit that is
set in the child only.  The run must exit 0, 2, 3 or 4.  A failure writes
nothing on stdout and one `error:` line of at most 200 bytes; the line
names the flag when the flag's reader refuses the value, and names a value
that passes when a cap refuses it.
"""

import os
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adelicdyn.cli import COMMANDS
from adelicdyn.exact import MR_LIMIT
from test_cli import VALID_ARGV, _reads

resource = pytest.importorskip("resource")

#: The child's address space; the largest default orbit prints in about 0.6 GB.
MEMORY_BYTES = 2 << 30
TIMEOUT_S = 30

SEMIPRIME = "1000000000100000000002379"  # (10^12 + 39)(10^12 + 61)
#: Argv that once hung, ran out of memory or repeated their text, and both
#: forms of a help flag with text attached.
SEEDS = [
    ["-h" + "x" * 300],
    ["--help=" + "x" * 300],
    ["--factor-bound", "1000000000000", "product-formula", "-r", SEMIPRIME],
    ["product-formula", "-r", SEMIPRIME],
    ["--max-steps", "1000000000", "iterate", "--map", "2,-1,1,0", "--x0", "3", "--place", "3"],
    ["basin", "--map", "1/2,0,1,2", "--xi", "0", "--place", "3", "--height", "9"],
]
HOSTILE = st.one_of(
    st.sampled_from(
        [
            "0", "1", "2", "-1", "-7/3", "1/0", "", " 5", "+5", "1_0",
            "1" + "0" * 4000,  # parses, but too long to show in a message
            "9" * 5000,  # past the interpreter's digit limit
            "-" + "9" * 40,
            str(2**127 - 1), str(MR_LIMIT), str(10**12), "1000000000039",
            SEMIPRIME,
            "٣", "²", "é", "x" * 5000, "1," * 2500,
            "1/2,0,1,2", "-1/2,0,1,-2", "real", "2=1/2", "E",
        ]
    ),
    st.integers(-(10**30), 10**30).map(str),
)


def _flags(owner):
    """(owner, names, kind, default) for each flag of `owner`, a command
    or "" for the global flags."""
    return st.sampled_from(
        [(owner, spec.split("/"), kind, default) for spec, kind, default, _ in COMMANDS[owner][1:]]
    )


def _case(command, flag, value, via_env):
    """(argv, environment, the flag the error must name or None)."""
    owner, names, kind, default = flag
    base = list(VALID_ARGV[command])
    for name in names:  # the drawn value replaces the valid one
        if name in base:
            del base[base.index(name) : base.index(name) + 2]
    argv, env = [command, *base], {}
    dest = names[-1].lstrip("-").replace("-", "_")
    if via_env:
        env["_".join(filter(None, ("ADELICDYN", owner, dest))).upper().replace("-", "_")] = value
        parts = value.split() if default == () else [value] if value else []
    else:
        setting = f"{names[-1]}={value}"
        argv = [setting, *argv] if not owner else [*argv, setting]
        parts = [value]
    refused = not all(_reads(kind, part) for part in parts)
    return argv, env, names[-1] if refused else None


CASES = st.sampled_from(sorted(VALID_ARGV)).flatmap(
    lambda command: st.builds(
        _case, st.just(command), _flags("") | _flags(command), HOSTILE, st.booleans()
    )
)


def _limited_child():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def _run_limited(argv, env_extra):
    env = {k: v for k, v in os.environ.items() if not k.startswith("ADELICDYN_")}
    env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "adelicdyn", *argv],
        capture_output=True,
        env=env,
        timeout=TIMEOUT_S,
        preexec_fn=_limited_child,
    )
    return proc.returncode, proc.stdout, proc.stderr


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(case=CASES)
def test_hostile_argv_keep_the_exit_code_contract(case):
    argv, env, named = case
    code, out, err = _run_limited(argv, env)
    assert code in (0, 2, 3, 4), (argv[:4], env.keys(), code, err[-300:])
    if not code:
        assert named is None, (argv[:4], env.keys())
        return
    assert out == b""
    line = err.decode()
    assert line.startswith("error: ") and line.count("\n") == 1 and line.endswith("\n"), line[:300]
    assert len(line.rstrip("\n").encode()) <= 200, line[:300]
    if named is not None:
        assert f"'{named}'" in line, (named, line)
    if "above the cap" in line:
        assert re.fullmatch(r"error: (--[a-z-]+) \S+ is above the cap \d+.*; \1 \d+ passes\n", line)


for _seed in reversed(SEEDS):
    test_hostile_argv_keep_the_exit_code_contract = example(case=(_seed, {}, None))(
        test_hostile_argv_keep_the_exit_code_contract
    )
