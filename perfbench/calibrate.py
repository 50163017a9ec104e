"""Machine-speed correction for timings.

The benchmark runs on shared machines whose speed drifts by up to 2x
within seconds (other tenants on the same cores).  Each workload has a
kernel: a fixed slice of the same kind of work, written with `oracle` and
plain integers.  The kernel is timed between operations, and each
operation's time is scaled by the kernel's nominal time over the median
of the kernel times around it.  Reported times therefore read as on a
machine where the kernel takes its nominal time.

The kernels of the in-process workloads run in the measured process
(`Kernel`), because a kernel in a sibling process, which may run on the
other core, tracked the measured process's speed worse: its scaled
spreads were wider.  The cyclic garbage collector is off while a kernel
runs, so objects the library keeps alive cannot slow it through
collections.  What the library leaves in the allocator and the CPU
caches can still reach it; a change that bloats memory shows in
peak_rss_mb.  cli-oneshot's kernel is a bare interpreter start
(`SpawnKernel`).  orbit-deep's matrix powers are not scaled: slow
phases of the machine slow the orbits far more than the megabit
products; in paired checks, scaling the powers by the orbit kernel
widened the spread of their summed time two to four times, and in a
noisy hour that of ops_per_s from 0.005 to 0.046 (see record.json).  The worker reports the unscaled figures too, so what the
scaling removes can be seen.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time
from fractions import Fraction as Q

import oracle


def measure(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# -- kernels ---------------------------------------------------------------

ROADMAP_MAP = (Q(1, 2), Q(0), Q(1), Q(2))
# a 3k-bit orbit point and a Fraction with 19k-bit parts
_ORBIT_X = Q(3**1200 + 2, 5**1300 + 7)
_ORBIT_BIG = Q(3**12000 + 1, 7**6600 + 2)
_SWEEP_MAP = (Q(5, 3), Q(4, 3), Q(4, 3), Q(5, 3))


def orbit_kernel() -> None:
    x = _ORBIT_X
    for _ in range(20):
        x = oracle.apply(ROADMAP_MAP, x)
    _ORBIT_BIG * _ORBIT_BIG


def sweep_kernel() -> None:
    for _ in range(2):
        x = Q(2, 3)
        for _ in range(48):
            x = oracle.apply(_SWEEP_MAP, x)
            oracle.norm(x - 1, 3)


def factor_kernel() -> None:
    n = 999_999_000_001
    d, gap = 5, 2
    while d < 90_000:
        n % d
        d, gap = d + gap, 6 - gap


#: Each kernel and its time in a fast phase of the reference machine (a
#: 2-core x86-64 container, Python 3.11.7).
KERNELS = {
    "orbit-deep": (orbit_kernel, 0.0021),
    "sweep-shallow": (sweep_kernel, 0.0014),
    "adelic-factor": (factor_kernel, 0.002),
}


class Kernel:
    """Times one run of a kernel of KERNELS, with the collector off."""

    def __init__(self, name: str):
        self.fn, self.nominal_s = KERNELS[name]

    def __call__(self) -> float:
        gc.disable()
        try:
            return measure(self.fn)
        finally:
            gc.enable()


class SpawnKernel:
    """A bare interpreter: the kernel for work that starts processes."""

    nominal_s = 0.05

    def __init__(self, env: dict[str, str]):
        self.env = env

    def __call__(self) -> float:
        return measure(
            lambda: subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True)
        )


class Scaler:
    """Collects raw durations and scales each by the kernel times around it.

    The kernel runs once `interval_s` of operation time has passed since
    its last run, so the operations between two kernel runs form a group.
    A group's factor uses the median of the WINDOW kernel times on either
    side of it, which keeps the kernel's own jitter out of the scale.
    """

    WINDOW = 2

    def __init__(self, kernel, interval_s: float):
        self.kernel = kernel
        self.interval_s = interval_s
        self.kernel_times = [kernel()]
        #: how many durations each group holds
        self.groups = [0]
        self.raw: list[float] = []
        self.to_scale: list[bool] = []
        self.since = 0.0

    def add(self, seconds: float, scale: bool = True) -> None:
        """Record one duration, to be scaled or kept as measured."""
        self.raw.append(seconds)
        self.to_scale.append(scale)
        self.groups[-1] += 1
        self.since += seconds
        if self.since >= self.interval_s:
            self._tick()

    def _tick(self) -> None:
        self.kernel_times.append(self.kernel())
        self.groups.append(0)
        self.since = 0.0

    def scaled(self) -> list[float]:
        """All durations, scaled; runs the kernel once more if needed."""
        if self.groups[-1]:
            self._tick()
        out: list[float] = []
        times = self.kernel_times
        for g, size in enumerate(self.groups):
            # group g ran between kernel runs g and g + 1
            near = times[max(0, g - self.WINDOW + 1) : g + self.WINDOW + 1]
            factor = self.kernel.nominal_s / statistics.median(near)
            done = slice(len(out), len(out) + size)
            out += [
                x * factor if scale else x
                for x, scale in zip(self.raw[done], self.to_scale[done])
            ]
        return out

