"""adelicdyn benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measurement happens in a fresh
interpreter (perfbench/worker.py) that imports the checkout's src/ with
ADELICDYN_* stripped from its environment.

--trace 0 prints the end-to-end metrics: set-up time (the median of
SETUP_REPEATS fresh interpreters that import adelicdyn and generate the
first block of inputs, half started before the timed run and half
after), then throughput, latency percentiles, orbit steps per second and
peak memory of one run of S seconds of operation time.

--trace 1 prints the per-layer metrics: an untraced run of S/3 seconds
counts N operations, then a traced run repeats the same N operations in
another fresh interpreter, so both start with cold caches and their time
ratio is the tracing overhead.  It also times bare and importing
interpreters for the cli.* metrics.

Times are scaled for machine speed by a kernel timed between operations
(perfbench/calibrate.py); the unscaled figures go to stderr.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
a table with sample counts goes to stderr.  The exit code is 0 only when
every output passed its check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from worker import ROOT, child_env

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 15
PROBE_REPEATS = 5
#: Every child must end within this; the whole run has 180 s.
CHILD_TIMEOUT_S = 150


class ChildFailed(Exception):
    pass


def timed(cmd: list[str]):
    """Run cmd.  Returns its wall time scaled for machine speed by bare
    interpreters started just before and after it, the wall time as
    measured, and the process."""
    env = child_env()
    kernel = calibrate.SpawnKernel(env)
    before = kernel()
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - start
    after = kernel()
    return wall * kernel.nominal_s / ((before + after) / 2), wall, proc


def run_child(args: list[str]) -> tuple[float, float, dict]:
    """Scaled and measured wall time and the JSON result of one worker
    process."""
    wall, raw_wall, proc = timed([sys.executable, str(HERE / "worker.py"), *args])
    if proc.returncode != 0:
        raise ChildFailed(
            f"worker {' '.join(args)} exited {proc.returncode}: "
            + proc.stderr.decode(errors="replace")[-2000:]
        )
    return wall, raw_wall, json.loads(proc.stdout.decode().splitlines()[-1])


def probe_ms(argv: list[str]) -> list[float]:
    """Scaled wall times of PROBE_REPEATS fresh interpreters running argv."""
    times = []
    for _ in range(PROBE_REPEATS):
        wall, _, proc = timed([sys.executable, *argv])
        if proc.returncode != 0:
            raise ChildFailed(f"probe {argv} exited {proc.returncode}")
        times.append(wall * 1e3)
    return times


def end_to_end(workload: str, seed: int, seconds: float):
    base = ["--workload", workload, "--seed", str(seed)]
    # half the set-ups run before the timed run and half after it, so
    # that they meet more phases of the machine's speed
    setups = [run_child(base + ["--setup-only"])[:2] for _ in range(SETUP_REPEATS // 2)]
    _, _, res = run_child(base + ["--seconds", str(seconds)])
    setups += [run_child(base + ["--setup-only"])[:2] for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
    res["unscaled"]["setup_s"] = statistics.median(raw for _, raw in setups)
    n = res["attempted"]
    metrics = {
        "setup_s": (statistics.median(wall for wall, _ in setups), "s", SETUP_REPEATS),
        "ops_per_s": (res["ops_per_s"], "1/s", n),
        "op_p50_ms": (res["op_p50_ms"], "ms", n),
        "op_p90_ms": (res["op_p90_ms"], "ms", n),
        "orbit_steps_per_s": (res["orbit_steps_per_s"], "1/s", res["orbit_steps"]),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", 1),
    }
    return metrics, [res]


def per_layer(workload: str, seed: int, seconds: float):
    from tracer import layer_metrics

    base = ["--workload", workload, "--seed", str(seed)]
    *_, plain = run_child(base + ["--seconds", str(seconds / 3)])
    n = plain["attempted"]
    *_, traced = run_child(base + ["--ops", str(n), "--trace"])
    metrics = {
        name: (value, unit, n) for name, (value, unit) in layer_metrics(traced["trace"]).items()
    }
    metrics["trace.overhead_ratio"] = (traced["busy_s"] / plain["busy_s"], "ratio", n)
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    metrics["failed_ratio"] = (failed / attempted, "ratio", attempted)

    interp = statistics.median(probe_ms(["-c", "pass"]))
    imported = statistics.median(probe_ms(["-c", "import adelicdyn.cli"]))
    if workload == "cli-oneshot":
        invocations = plain["latencies_ms"]
    else:
        invocations = probe_ms(["-m", "adelicdyn", "--format", "json", "classify", "--map", "1/2,0,1,2"])
    metrics["cli.interp_ms"] = (interp, "ms", PROBE_REPEATS)
    metrics["cli.import_ms"] = (imported - interp, "ms", PROBE_REPEATS)
    metrics["cli.compute_ms"] = (
        statistics.median(invocations) - imported,
        "ms",
        len(invocations),
    )
    return metrics, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "adelicdyn" / "__init__.py").is_file():
        print(f"no adelicdyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, results = measure(args.workload, args.seed, args.seconds)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    reported = {name: unit for name, (_, unit, _) in metrics.items()}
    if reported != declared:
        print(f"error: metrics differ from BENCHMARK.json: {sorted(set(reported) ^ set(declared))}", file=sys.stderr)
        return 2

    incorrect = sum(r["incorrect"] for r in results)
    for r in results:
        for line in r["errors"]:
            print(f"  {line}", file=sys.stderr)
    first = results[0]
    print(
        f"{args.workload} seed {args.seed}: digest {first['digest']} over "
        f"{first['digest_ops']} ops, {incorrect} incorrect; operation time "
        f"{first['raw_busy_s']:.3f} s unscaled, {first['busy_s']:.3f} s scaled "
        f"(median kernel {first['kernel_median_s'] * 1e3:.3f} ms)",
        file=sys.stderr,
    )
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:48} {value:14.6g} {unit:6} n={samples}", file=sys.stderr)
    if not args.trace:
        # the same figures as measured, for steady.py to compare
        print("unscaled " + json.dumps(first["unscaled"]), file=sys.stderr)
    doc = {
        "correct": incorrect == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(doc))
    return 0 if incorrect == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
