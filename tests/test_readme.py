"""The README's command lines run, and its table of limits is the code's."""

import re
import shlex
import sys
from pathlib import Path

import pytest

from adelicdyn.exact import DEFAULT_BIT_GUARD, DEFAULT_MAX_STEPS, LIMITS, STEP_BITS, int_digit_limit
from goldens import _run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _command_lines():
    """Every `adelicdyn ...` line of the sh block under "## Command line"."""
    section = README.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("adelicdyn ")]


COMMAND_LINES = _command_lines()


def test_the_readme_has_command_lines():
    assert len(COMMAND_LINES) >= 8


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_each_readme_command_line_runs(line):
    code, out, err = _run([sys.executable, "-m", "adelicdyn", *shlex.split(line)[1:]])
    assert code == 0, err[-300:]
    assert out


def _limit_rows():
    """{flag: (default, cap, passing)} from the README's table of limits."""
    rows = {}
    for line in README.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        flag = re.search(r"--[a-z][a-z-]*", cells[1]) if len(cells) == 5 else None
        if line.startswith("| ") and flag:
            flag = flag[0]
            default, cap, passing = (None if c == "none" else int(c) for c in cells[2:])
            rows[flag] = default, cap, passing
    return rows


@pytest.mark.skipif(int_digit_limit() != 4300, reason="the table is for the default digit limit")
def test_the_readme_table_of_limits_is_the_code_s():
    rows = _limit_rows()
    assert sorted(rows) == sorted(LIMITS)
    for flag, (default, cap, passing) in rows.items():
        assert (default, cap) == (LIMITS[flag].default, LIMITS[flag].cap), flag
    # each passing value is the largest one, at the other flags' defaults
    costs = {
        "--max-steps": lambda steps: steps * (DEFAULT_BIT_GUARD + STEP_BITS),
        "--height": lambda h: h * (2 * h + 1) * (DEFAULT_MAX_STEPS + 1),
    }
    for flag, (_, cap, passing) in rows.items():
        cost = costs.get(flag, int)
        assert cost(passing) <= cap < cost(passing + 1), flag
