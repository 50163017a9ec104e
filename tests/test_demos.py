"""Every demo script runs to completion against the library in src/ and
prints its pinned stdout."""

import pytest

from goldens import DEMO_GOLDEN_DIR, DEMOS, run_demo


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_cleanly(demo):
    code, out, err = run_demo(demo)
    assert code == 0, err.decode()[-2000:]
    assert out == (DEMO_GOLDEN_DIR / f"{demo.stem}.txt").read_bytes()
