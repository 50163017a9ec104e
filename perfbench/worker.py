"""One workload in one fresh interpreter; run.py starts it.

    PYTHONPATH=src python3 perfbench/worker.py --workload NAME --seed N
        (--seconds S | --ops N | --setup-only) [--trace]

Prints one JSON object on stdout.  The loop is closed with one client:
the next operation starts when the previous one and its check are done.
Only the library call is timed; input generation and checks are not.
There is no warm-up pass, because the primality caches would then hide
the cold cost every CLI call pays.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 100  # so the 90th percentile has ten samples above it
#: Outputs hashed into the run digest; a run always completes this many.
DIGEST_OPS = 50
SPAN_DIR = ROOT / ".perfbench"


def child_env() -> dict[str, str]:
    """The environment of every process the benchmark starts: the
    checkout's src/ on the path and no ADELICDYN_* settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ADELICDYN_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_loop(workload, seconds=None, ops=None, tracer=None) -> dict:
    """Run whole blocks until `seconds` of operation time and MIN_OPS
    operations have passed, or exactly `ops` operations.

    Reported times are scaled for machine speed (see calibrate.py);
    `raw_busy_s` and `unscaled` hold the figures as measured."""
    from calibrate import Scaler
    from workloads import CheckFailed, digest_of

    import adelicdyn

    scaler = Scaler(workload.kernel(), workload.KERNEL_INTERVAL_S)
    orbit_steps = 0
    orbit_ops: list[int] = []
    failed = incorrect = 0
    errors: list[str] = []
    digest_texts: list[str] = []
    primes: set[int] = set()
    busy = 0.0
    index = 0
    for block in workload.blocks():
        if ops is not None:
            done = index >= ops
        else:
            done = busy >= seconds and index >= MIN_OPS
        if done:
            break
        for op in block:
            if ops is not None and index >= ops:
                break
            if tracer is not None:
                tracer.op = index
            start = time.perf_counter()
            try:
                out = workload.run(op)
            except adelicdyn.errors.ResourceLimitError as exc:
                elapsed = time.perf_counter() - start
                failed += 1
                errors.append(f"op {index} {op.kind}: resource guard: {exc}")
            except Exception as exc:  # anything outside the exit-code contract
                elapsed = time.perf_counter() - start
                failed += 1
                incorrect += 1
                errors.append(f"op {index} {op.kind}: {type(exc).__name__}: {exc}")
            else:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.enabled = False
                try:
                    outcome = workload.check(op, out)
                except CheckFailed as exc:
                    failed += 1
                    incorrect += 1
                    errors.append(f"op {index} {op.kind}: check failed: {exc}")
                else:
                    if index < DIGEST_OPS:
                        digest_texts.append(outcome.digest)
                    primes.update(outcome.primes)
                    if outcome.steps:
                        orbit_steps += outcome.steps
                        orbit_ops.append(index)
                finally:
                    if tracer is not None:
                        tracer.enabled = True
            busy += elapsed
            scaler.add(elapsed, op.kind not in workload.UNSCALED)
            index += 1
    latencies = scaler.scaled()
    who = resource.RUSAGE_CHILDREN if workload.spawns else resource.RUSAGE_SELF
    peak_rss_kb = resource.getrusage(who).ru_maxrss
    # the primes are confirmed by sympy only now, so that its import does
    # not count in the peak memory of the run
    if primes:
        import sympy

        for p in sorted(primes):
            if not sympy.isprime(p):
                incorrect += 1
                errors.append(f"listed prime {p} is not prime")

    def timing(durations: list[float]) -> dict:
        orbit_time = sum(durations[i] for i in orbit_ops)
        return {
            "ops_per_s": (len(durations) - failed) / sum(durations),
            "op_p50_ms": statistics.median(durations) * 1e3,
            "op_p90_ms": percentile(durations, 9) * 1e3,
            "orbit_steps_per_s": orbit_steps / orbit_time if orbit_time else 0.0,
        }

    return {
        "attempted": len(latencies),
        "failed": failed,
        "incorrect": incorrect,
        "errors": errors[:20],
        "busy_s": sum(latencies),
        "raw_busy_s": busy,
        "kernel_median_s": statistics.median(scaler.kernel_times),
        **timing(latencies),
        "unscaled": timing(scaler.raw),
        "orbit_steps": orbit_steps,
        "peak_rss_mb": peak_rss_kb / 1024,
        "latencies_ms": [x * 1e3 for x in latencies],
        "digest": digest_of(digest_texts),
        "digest_ops": len(digest_texts),
    }


def percentile(values: list[float], decile: int) -> float:
    """The decile-th of the nine cut points `statistics.quantiles` gives."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[decile - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--ops", type=int)
    mode.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import adelicdyn

    package = Path(adelicdyn.__file__).resolve()
    if ROOT / "src" not in package.parents:
        print(f"adelicdyn imported from {package}, not from src/", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print(json.dumps({"setup": True}))
        return 0
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        if workload.spawns:
            workload.trace_dir = SPAN_DIR / "tmp"
            workload.trace_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    result = run_loop(workload, seconds=args.seconds, ops=args.ops, tracer=tracer)
    result["wall_s"] = time.perf_counter() - start
    if tracer is not None:
        from tracer import merge

        tracer.uninstall()
        summaries = [tracer.summary(), *getattr(workload, "trace_summaries", [])]
        result["trace"] = merge(summaries)
        tracer.spans.extend(getattr(workload, "trace_spans", []))
        tracer.write_spans(SPAN_DIR / "spans" / f"{args.workload}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
