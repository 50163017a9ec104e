"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys

import adelicdyn
import pytest

import run
import workloads
from tracer import Tracer, layer_metrics
from worker import DIGEST_OPS, ROOT, run_loop

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SWEEPS = len(workloads.SweepShallow.BASIN_PLACES)
#: One block of sweep-shallow: 4 family operations, classifications, sweeps.
BLOCK = 4 + workloads.SweepShallow.CLASSIFICATIONS + SWEEPS


def run_benchmark(cwd, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "sweep-shallow",
            "--seed", "3", "--seconds", "0.2", "--trace", str(trace),
        ],
        capture_output=True,
        cwd=cwd,
        timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = run_benchmark(ROOT, trace)
    assert proc.returncode == 0, proc.stderr.decode()
    doc = json.loads(proc.stdout.decode().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    assert doc["attempted"] >= 100
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == declared


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = run_benchmark(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout == b""


def test_corrupted_output_is_counted_as_failed(monkeypatch):
    honest = adelicdyn.basin_sample

    def drops_a_point(*args, **kwargs):
        return honest(*args, **kwargs)[:-1]

    monkeypatch.setattr(adelicdyn, "basin_sample", drops_a_point)
    result = run_loop(workloads.SweepShallow(1), ops=BLOCK)
    assert result["failed"] == result["incorrect"] == SWEEPS
    assert all("basin enumeration" in e for e in result["errors"])


def test_failed_check_makes_the_run_fail(monkeypatch, capsys):
    def fake_measure(workload, seed, seconds):
        metrics = {m["name"]: (1.0, m["unit"], 1) for m in SPEC["end_to_end"]}
        result = {"attempted": 1, "failed": 1, "incorrect": 1, "errors": ["x"],
                  "digest": "", "digest_ops": 0, "busy_s": 1.0, "raw_busy_s": 1.0,
                  "kernel_median_s": 0.002, "unscaled": {}}
        return metrics, [result]

    monkeypatch.setattr(run, "end_to_end", fake_measure)
    code = run.main(["--workload", "sweep-shallow", "--seed", "1", "--seconds", "1"])
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1 and doc["correct"] is False and doc["failed"] == 1


def test_same_seed_same_digest():
    first = run_loop(workloads.SweepShallow(5), ops=60)
    second = run_loop(workloads.SweepShallow(5), ops=60)
    other = run_loop(workloads.SweepShallow(6), ops=60)
    assert first["digest_ops"] == DIGEST_OPS
    assert first["digest"] == second["digest"] != other["digest"]


def test_traced_self_time_fits_in_wall_time():
    tracer = Tracer()
    tracer.install()
    try:
        result = run_loop(workloads.SweepShallow(2), ops=BLOCK, tracer=tracer)
    finally:
        tracer.uninstall()
    assert adelicdyn.basin_sample.__name__ == "basin_sample"
    summary = tracer.summary()
    self_ns = sum(v for k, v in summary["sum"].items() if k.endswith(".self_ns"))
    assert 0 < self_ns <= result["raw_busy_s"] * 1e9
    # the spans give the same self time as the running totals
    children: dict[int, int] = {}
    for name, start, end, parent, span_id, op in tracer.spans:
        children[parent] = children.get(parent, 0) + end - start
    from_spans = sum(end - start - children.get(span_id, 0)
                     for _, start, end, _, span_id, _ in tracer.spans)
    assert tracer.dropped == 0 and from_spans == self_ns
    metrics = layer_metrics(summary)
    assert metrics["dynamics.basin_sample.calls"][0] == SWEEPS
    assert metrics["moebius.apply.calls"][0] > 0


@pytest.mark.parametrize("name", ["orbit-deep", "sweep-shallow", "adelic-factor"])
def test_checks_leave_the_primality_caches_alone(name, monkeypatch):
    # a check that reached is_prime or primes_upto would warm their caches
    # for later timed operations and count in the cache metrics
    workload = workloads.WORKLOADS[name](1)
    caches = (adelicdyn.exact.is_prime.cache_info, adelicdyn.exact.primes_upto.cache_info)
    honest = workload.check

    def check(op, out):
        before = [info() for info in caches]
        outcome = honest(op, out)
        assert [info() for info in caches] == before, op.kind
        return outcome

    monkeypatch.setattr(workload, "check", check)
    result = run_loop(workload, ops=len(workload.pending))
    assert result["attempted"] == len(workload.pending) and result["incorrect"] == 0
