"""Every demo script runs to completion against the library in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_cleanly(demo):
    env = {k: v for k, v in os.environ.items() if not k.startswith("ADELICDYN_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    assert proc.stdout
