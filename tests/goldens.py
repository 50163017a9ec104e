"""Golden-file contract for the CLI and the demos.

Each entry runs one subcommand with --format json on a fixture map; the
bytes on stdout are frozen under tests/golden/, and each demo's stdout
under tests/golden/demos/.  Regenerate deliberately with
`python tests/goldens.py` after a reviewed schema change; it writes each
file from a child process, as the acceptance suite reads it.  `run_cli`
runs the CLI in this process; `_run` starts a child where the process
itself is what a test checks.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).parent / "golden"
DEMO_GOLDEN_DIR = GOLDEN_DIR / "demos"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

GOLDEN_COMMANDS = [
    ("classify_case_a", ["--format", "json", "classify", "--map", "1/2,0,1,2"]),
    ("classify_case_b", ["--format", "json", "classify", "--map", "5/3,4/3,4/3,5/3"]),
    ("classify_case_c", ["--format", "json", "classify", "--map", "3,2,-2,-1"]),
    ("classify_case_d", ["--format", "json", "classify", "--map", "3,-2,2,-1"]),
    (
        "classify_audited",
        ["--format", "json", "--audit-primes", "50", "classify", "--map", "1/2,0,1,2"],
    ),
    (
        "iterate_p3_sphere",
        [
            "--format", "json",
            "iterate", "--map", "1/2,0,1,2", "--x0", "3", "--place", "3",
            "--steps", "24",
        ],
    ),
    (
        "iterate_real_converges",
        [
            "--format", "json",
            "iterate", "--map", "1/2,0,1,2", "--x0", "1", "--place", "real",
            "--steps", "60",
        ],
    ),
    ("modular_f1", ["--format", "json", "modular", "--family", "1", "--sign", "+", "--c", "1"]),
    ("modular_f5", ["--format", "json", "modular", "--family", "5", "--sign", "+", "--c", "2"]),
    ("case_e", ["--format", "json", "case", "--tag", "E", "--a", "2", "--c", "1"]),
    ("product_formula", ["--format", "json", "product-formula", "-r", "-10/21"]),
    (
        "cross_ratio",
        ["--format", "json", "cross-ratio", "--map", "1/2,0,1,2", "--points", "0,1,3,4"],
    ),
    ("adele_step", ["--format", "json", "adele-step", "--map", "1/2,0,1,2", "--principal", "1"]),
    (
        "basin_p2",
        [
            "--format", "json", "--max-steps", "40",
            "basin", "--map", "1/2,0,1,2", "--xi", "0", "--place", "2",
            "--height", "2",
        ],
    ),
    (
        "basin_real_repelling",
        [
            "--format", "json", "--max-steps", "200",
            "basin", "--map", "1/2,0,1,2", "--xi", "-3/2", "--place", "real",
            "--height", "3",
        ],
    ),
]


def _run(argv: list[str], env_extra: dict[str, str] | None = None):
    """Run argv in a subprocess with ADELICDYN_* stripped from the env."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ADELICDYN_")}
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(argv, capture_output=True, env=env, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def run_cli(args: list[str], env_extra: dict[str, str] | None = None):
    """(exit code, stdout, stderr) of `adelicdyn.cli.main()` on args, in bytes,
    run in this process with ADELICDYN_* cleared, env_extra applied and
    COLUMNS=80; any exception but SystemExit propagates."""
    from adelicdyn.cli import main

    env = {k: v for k, v in os.environ.items() if not k.startswith("ADELICDYN_")}
    env.update(env_extra or {}, COLUMNS="80")
    out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8") for _ in range(2))
    code = 0
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.dict(os.environ, env, clear=True))
        stack.enter_context(mock.patch.object(sys, "argv", ["adelicdyn", *args]))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            main()
        except SystemExit as exc:
            code = exc.code
    out.flush()
    err.flush()
    return code, out.buffer.getvalue(), err.buffer.getvalue()


def run_demo(demo: Path):
    """Run one demo script against the library in src/."""
    return _run([sys.executable, str(demo)], {"PYTHONPATH": str(ROOT / "src")})


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, args in GOLDEN_COMMANDS:
        code, out, err = _run([sys.executable, "-m", "adelicdyn", *args])
        if code != 0:
            raise SystemExit(f"{name}: exit {code}: {err.decode()}")
        (GOLDEN_DIR / f"{name}.json").write_bytes(out)
        print(f"wrote golden/{name}.json ({len(out)} bytes)")
    DEMO_GOLDEN_DIR.mkdir(exist_ok=True)
    for demo in DEMOS:
        code, out, err = run_demo(demo)
        if code != 0:
            raise SystemExit(f"{demo.name}: exit {code}: {err.decode()}")
        (DEMO_GOLDEN_DIR / f"{demo.stem}.txt").write_bytes(out)
        print(f"wrote golden/demos/{demo.stem}.txt ({len(out)} bytes)")


if __name__ == "__main__":
    regenerate()
