"""Step one principal adele until N steps or a failing step, and report the depth.

    python tools/adele_depth.py [--map A,B,C,D] [-r R] [--steps N]

Builds `principal_adele(R)` and applies `step_adele` under the map up to N
times (defaults: the map 1/2,0,1,2, R = 1/3 and N = 28), with the
library's default factor bound.  It prints the steps reached, the mean
time per step tried (a failing step counts), the number of listed primes
of the last adele, and the error that stopped it ("none" when all N steps ran).
The exit code is 0 only when all N steps ran.  It imports the package
from the `src` next to it and needs only the standard library.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from adelicdyn import MoebiusMap, parse_rational, principal_adele, step_adele  # noqa: E402
from adelicdyn.errors import AdelicDynError  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--map", default="1/2,0,1,2")
    parser.add_argument("-r", default="1/3")
    parser.add_argument("--steps", type=int, default=28)
    args = parser.parse_args()
    m = MoebiusMap.from_string(args.map)
    x = principal_adele(parse_rational(args.r))
    reached, error = 0, "none"
    start = time.perf_counter()
    try:
        while reached < args.steps:
            x = step_adele(m, x)
            reached += 1
    except AdelicDynError as exc:
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    print(f"map {args.map}, r {args.r}")
    print(f"steps {reached} of {args.steps}")
    tried = reached + (error != "none")
    print(f"ms_per_step {1e3 * elapsed / max(tried, 1):.3f}")
    print(f"listed_primes {len(x.listed_primes())}")
    print(f"error {error}")
    return 0 if reached == args.steps else 1


if __name__ == "__main__":
    sys.exit(main())
