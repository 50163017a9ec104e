"""Check the CLI goldens and the demo goldens on other interpreters.

    python tools/goldens_on.py PY [PY ...]

PY is a Python interpreter, or an installation directory that holds
bin/python3.  For each one, every command of `tests/goldens.py` runs as
`PY -m adelicdyn ...` and every demo as `PY demos/NAME.py`, both with
PYTHONPATH set to the `src` next to this file and every ADELICDYN_*
variable cleared.  A run must exit 0 and print exactly the bytes of its
golden under tests/golden/.  The tool prints one line per interpreter and
one per differing run, and exits 1 when any run differs.  It needs only
the standard library.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from goldens import (  # noqa: E402
    DEMO_GOLDEN_DIR,
    DEMOS,
    GOLDEN_COMMANDS,
    GOLDEN_DIR,
    _run,
)


def differing_runs(python: str) -> list[str]:
    """The goldens and demos that `python` does not reproduce, each with why."""
    env = {"PYTHONPATH": str(ROOT / "src")}
    runs = [
        (name, [python, "-m", "adelicdyn", *args], GOLDEN_DIR / f"{name}.json")
        for name, args in GOLDEN_COMMANDS
    ]
    runs += [
        (demo.stem, [python, str(demo)], DEMO_GOLDEN_DIR / f"{demo.stem}.txt")
        for demo in DEMOS
    ]
    differing = []
    for name, argv, golden in runs:
        code, out, err = _run(argv, env)
        if code != 0:
            last = err.decode(errors="replace").strip().splitlines()[-1:]
            differing.append(f"{name}: exit {code}: {''.join(last)}")
        elif out != golden.read_bytes():
            differing.append(f"{name}: stdout differs from {golden.relative_to(ROOT)}")
    return differing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("python", nargs="+", metavar="PY")
    pythons = parser.parse_args().python
    failed = False
    for python in pythons:
        if Path(python).is_dir():
            python = str(Path(python) / "bin" / "python3")
        differing = differing_runs(python)
        total = len(GOLDEN_COMMANDS) + len(DEMOS)
        print(f"{python}: {total - len(differing)} of {total} runs match")
        for line in differing:
            print(f"  {line}")
        failed = failed or bool(differing)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
