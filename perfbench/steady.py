"""Steadiness check: repeat workloads over several seeds.

    python3 perfbench/steady.py --workload orbit-deep --seeds 1-10
        [--workload ...] [--out FILE] [--compare FILE]

Runs perfbench/run.py once per seed and workload, each time with the
`run_seconds` of BENCHMARK.json, and prints for every end-to-end metric
the median, the quartiles (`statistics.quantiles(values, n=4)`) and the
spread: the distance between the quartiles as a share of the median.  A
metric is steady when its spread is under a third of its bound.  The
spread of the unscaled figure (see calibrate.py) is printed beside it and
kept in the --out file under "unscaled", but is not judged.  --compare
reads an earlier --out file and reports how far each median moved in the
metric's worse direction, against its bound.  Exits 1 when a run fails
or a rule is broken.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from worker import ROOT


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """The result line of one run and its unscaled figures."""
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        capture_output=True,
        cwd=ROOT,
    )
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr.decode()[-2000:]}"
        )
    unscaled = next(
        line for line in proc.stderr.decode().splitlines() if line.startswith("unscaled ")
    )
    return json.loads(lines[-1]), json.loads(unscaled.split(" ", 1)[1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    earlier = json.loads(args.compare.read_text()) if args.compare else {}
    report: dict[str, dict] = {}
    broken = 0
    for workload in args.workload:
        runs, unscaled = zip(*(run_once(workload, seed, spec["run_seconds"]) for seed in seeds))
        if not all(r["correct"] for r in runs):
            print(f"{workload}: a run failed its output checks", file=sys.stderr)
            broken += 1
        names = runs[0]["metrics"]
        report[workload] = {
            name: summarize([r["metrics"][name]["value"] for r in runs]) for name in names
        }
        report[workload]["unscaled"] = {
            name: summarize([u[name] for u in unscaled]) for name in unscaled[0]
        }
        print(f"{workload} ({len(seeds)} seeds)")
        for name in names:
            s = report[workload][name]
            line = f"  {name:20} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  spread {s['spread']:.4f}"
            if name in unscaled[0]:
                line += f" (unscaled {report[workload]['unscaled'][name]['spread']:.4f})"
            metric = bounds[name]
            bound = metric["bound"]
            steady = s["spread"] < bound / 3
            line += f"  bound {bound}  {'steady' if steady else 'NOT STEADY'}"
            broken += not steady
            before = earlier.get(workload, {}).get(name)
            if before:
                sign = 1 if metric["better"] == "lower" else -1
                worse = sign * (s["median"] - before["median"]) / before["median"]
                ok = worse <= bound
                line += f"  worse by {worse:+.4f} {'ok' if ok else 'REGRESSED'}"
                broken += not ok
            print(line)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1))
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
