"""Run one seeded corpus of argv through two `src` trees' CLI and compare.

    python tools/argv_diff.py OLD_SRC NEW_SRC [--count N] [--seed S]

Each tree runs in a child process of the same interpreter, which calls
`adelicdyn.cli.main()` in-process once per argv through
`tests/goldens.py`'s `run_cli`: every ADELICDYN_* variable cleared and
COLUMNS=80.  The tool sets ADELICDYN_MAX_STEPS=8 itself, so that default
orbits stay short, and compares stdout and stderr as text.  The corpus is
drawn from OLD_SRC's flag table: commands, every flag, help flags, '--',
unknown flags, '--flag=value' and '-r6' forms, and values, around a
command or at random.  The tool prints how many argv differ in exit code,
in stdout and in stderr, with the first SHOW argv of each kind and the
SHOW most common first lines of the old side's differing output.  It
exits 1 when any exit code or stdout differs; a stderr difference is
reported but does not fail.  It needs only the standard library.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import random
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from goldens import run_cli  # noqa: E402

VALUES = [
    "1/2,0,1,2", "5/3,4/3,4/3,5/3", "0,1,3,4", "-1/3", "-10/21", "real", "x", "-",
    "", "2=1/2", "3=1", "json", "csv", "table", "E", "A", "+", "0", "1", "2", "3", "6",
]
ODD_FLAGS = [
    "-h", "--help", "--", "--nope", "--ma", "-x", "-hx", "--help=x", "-r6", "-r=6",
    "--map=1/2,0,1,2", "--format=json", "--x0=1", "--place=3", "--steps=2",
]

#: Command lines that exit 0, 3 or 4; a third of the corpus is one of
#: them, changed in up to two places.
VALID = [
    "classify --map 1/2,0,1,2",
    "classify --map 1,1,1,2",
    "--bit-guard 0 iterate --map 1/2,0,1,2 --x0 1 --place real",
    "--audit-primes 20 classify --map 5/3,4/3,4/3,5/3",
    "--audit-primes 20 classify --map 3,2,-2,-1",
    "--audit-primes 20 classify --map 199999849999973,0,199999849999972,1",
    "--format json iterate --map 1/2,0,1,2 --x0 3 --place 3 --steps 4",
    "--format csv iterate --map 1/2,0,1,2 --x0 1 --place real",
    "iterate --map 1/2,0,1,2 --x0 1 --place 2",
    "adele-step --map 1/2,0,1,2 --at 2=1 --real 0 --elsewhere 1",
    "adele-step --map 1/2,0,1,2 --principal 1/6",
    "basin --map 1/2,0,1,2 --xi 0 --place 2 --height 2",
    "product-formula -r -10/21",
    "modular --family 5 --sign - --c 2",
    "--audit-primes 20 --format csv modular --family 1 --c 3",
    "case --tag E --a 2 --c 1",
    "--audit-primes 20 --format table case --tag A --a 2 --c 1",
    "cross-ratio --map 1/2,0,1,2 --points 0,1,3,4",
]

SHOW = 3


def _value(rng: random.Random) -> str:
    return rng.choice(VALUES) if rng.random() < 0.7 else str(rng.randint(-50, 50))


def corpus(commands: dict, count: int, seed: int) -> list[list[str]]:
    """`count` argv: a third up to 8 tokens at random, a third a command
    with up to 4 of its flags (each with a value) or other tokens after it,
    and a third a valid line with up to two tokens replaced, dropped or added."""
    rng = random.Random(seed)
    flags = {c: [n for spec, *_ in rows for n in spec.split("/")] for c, (_, *rows) in commands.items()}
    names = [c for c in commands if c]
    tokens = names + sorted(set().union(*flags.values())) + ODD_FLAGS
    argvs = []
    for _ in range(count):
        draw = rng.randrange(3)
        if draw == 2:
            argv = rng.choice(VALID).split()
            for _ in range(rng.randint(0, 2)):
                i = rng.randrange(len(argv) + 1)
                token = rng.choice(tokens) if rng.random() < 0.5 else _value(rng)
                argv[i:i + rng.randint(0, 1)] = [token] if rng.random() < 0.7 else []
            argvs.append(argv)
            continue
        if draw == 1:
            argvs.append([rng.choice(tokens) if rng.random() < 0.7 else _value(rng)
                          for _ in range(rng.randint(0, 8))])
            continue
        command = rng.choice(names)
        argv = [rng.choice(flags[""]), _value(rng)] if rng.random() < 0.5 else []
        argv.append(command)
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.6:
                argv += [rng.choice(flags[command]), _value(rng)]
            else:
                argv.append(rng.choice(tokens + ["-h", "--help"]))
        argvs.append(argv[:8])
    return argvs


def run_all(argvs: list[list[str]]) -> list[tuple]:
    """`run_cli` at 8 steps for each argv, its output decoded; a fault is
    recorded as its exit code, with empty output, so that it is compared."""
    results = []
    for argv in argvs:
        try:
            code, out, err = run_cli(argv, {"ADELICDYN_MAX_STEPS": "8"})
            results.append((code, out.decode(), err.decode()))
        except Exception as exc:
            results.append((f"raised {type(exc).__name__}: {exc}", "", ""))
    return results


def _child(src: str, argvs: list[list[str]]) -> list[list]:
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--run"], input=json.dumps(argvs),
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)


def main() -> None:
    if sys.argv[1:] == ["--run"]:
        json.dump(run_all(json.load(sys.stdin)), sys.stdout)
        return
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--count", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.old_src))
    from adelicdyn.cli import COMMANDS

    argvs = corpus(COMMANDS, args.count, args.seed)
    old, new = _child(args.old_src, argvs), _child(args.new_src, argvs)
    codes = collections.Counter(str(code) for code, *_ in old)
    print(f"python {sys.version.split()[0]}: {len(argvs)} argv (seed {args.seed}),"
          f" exit codes {dict(sorted(codes.items()))}")
    failed = False
    for i, part in enumerate(("exit code", "stdout", "stderr")):
        differ = [(argv, a[i]) for argv, a, b in zip(argvs, old, new) if a[i] != b[i]]
        print(f"{part} differs: {len(differ)}")
        failed |= part != "stderr" and bool(differ)
        for argv, _ in differ[:SHOW]:
            print(f"  {json.dumps(argv)}")
        if part != "exit code":  # the old side's first lines, most common first
            firsts = collections.Counter(a.partition("\n")[0] for _, a in differ)
            for line, n in firsts.most_common(SHOW):
                print(f"  {n} begin {json.dumps(line)}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
