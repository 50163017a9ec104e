"""Re-measure the informal figures the ROADMAP quotes, with this harness's
isolation (fresh interpreter, checkout's src/, ADELICDYN_* stripped).

    python3 perfbench/baseline.py

Prints one JSON object of wall-time medians of REPEATS rounds (not scaled
for machine speed): the 1k/2k/4k-step 3-adic sphere orbits of 1/2,0,1,2 from x0 = 3,
MoebiusMap.power(2**20) of that map, a cold Place(p) at primes just above
1e12, and a `classify` invocation against a bare and an importing
interpreter.  Each repeat is one round over every figure, so a slow phase
of the machine falls on all of them alike.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from oracle import next_prime
from worker import ROOT, child_env

REPEATS = 9

LIBRARY_PROBE = """
import json, statistics, sys, time
from adelicdyn import MoebiusMap, Place, iterate_at_place
repeats, primes = int(sys.argv[1]), json.loads(sys.argv[2])
m = MoebiusMap.from_string("1/2,0,1,2")
probes = {
    f"orbit_{n}_steps_ms": (lambda n=n: iterate_at_place(m, 3, 0, Place(3), max_steps=n))
    for n in (1000, 2000, 4000)
}
probes["power_2_20_ms"] = lambda: m.power(2**20)
times = {name: [] for name in [*probes, "place_1e12_cold_ms"]}
for r in range(repeats):
    for name, probe in probes.items():
        start = time.perf_counter()
        probe()
        times[name].append((time.perf_counter() - start) * 1e3)
    start = time.perf_counter()
    Place(primes[r])
    times["place_1e12_cold_ms"].append((time.perf_counter() - start) * 1e3)
print(json.dumps({name: statistics.median(t) for name, t in times.items()}))
"""

CLI_PROBES = {
    "bare_interpreter_ms": ["-c", "pass"],
    "interpreter_importing_cli_ms": ["-c", "import adelicdyn.cli"],
    "classify_invocation_ms": ["-m", "adelicdyn", "--format", "json", "classify", "--map", "1/2,0,1,2"],
}


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    primes = [next_prime(10**12)]
    while len(primes) < REPEATS:
        primes.append(next_prime(primes[-1] + 1))
    proc = subprocess.run(
        [sys.executable, "-c", LIBRARY_PROBE, str(REPEATS), json.dumps(primes)],
        capture_output=True, env=child_env(), cwd=ROOT, check=True,
    )
    out = json.loads(proc.stdout)
    times: dict[str, list[float]] = {name: [] for name in CLI_PROBES}
    for _ in range(REPEATS):
        for name, cli_argv in CLI_PROBES.items():
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, *cli_argv], capture_output=True, env=child_env(), cwd=ROOT, check=True
            )
            times[name].append((time.perf_counter() - start) * 1e3)
    out.update({name: statistics.median(t) for name, t in times.items()})
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
