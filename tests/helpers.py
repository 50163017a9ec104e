"""Shared generators, a canonical-fraction test and a call counter for the test suite.

Randomized tests draw from seeded random.Random instances, so every run
checks the same sample; the map generator below parametrizes det-1 maps by
an eigenvalue t, which guarantees a rational-square discriminant
(trace = t + 1/t, so trace^2 - 4 = (t - 1/t)^2).
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, MutableMapping
from fractions import Fraction

from adelicdyn import MoebiusMap


def rand_rational(
    rng: random.Random, height: int, nonzero: bool = False
) -> Fraction:
    """Uniform-ish canonical fraction with |num| <= height, den <= height."""
    while True:
        r = Fraction(rng.randint(-height, height), rng.randint(1, height))
        if nonzero and r == 0:
            continue
        return r


def rand_nonzero(rng: random.Random, height: int) -> Fraction:
    return rand_rational(rng, height, nonzero=True)


def rand_square_disc_map(
    rng: random.Random, height: int = 30, fused: bool = False
) -> MoebiusMap:
    """Random det-1 map with c != 0 and rational fixed points.

    fused=True pins the eigenvalue t to +/-1 (discriminant zero); otherwise
    t avoids +/-1 so the fixed points stay distinct.
    """
    if fused:
        t = Fraction(rng.choice((1, -1)))
    else:
        while True:
            t = rand_nonzero(rng, height)
            if t not in (1, -1):
                break
    trace = t + 1 / t
    a = rand_rational(rng, height)
    c = rand_nonzero(rng, height)
    d = trace - a
    b = (a * d - 1) / c
    return MoebiusMap(a, b, c, d)


def rand_map(rng: random.Random, height: int = 20) -> MoebiusMap:
    """Random nonsingular map, determinant unconstrained."""
    while True:
        a, b, c, d = (rand_rational(rng, height) for _ in range(4))
        if a * d - b * c != 0:
            return MoebiusMap(a, b, c, d)


def is_canonical(r) -> bool:
    """r is a plain Fraction in lowest terms with a positive denominator,
    and hashes as the Fraction built from its parts."""
    return (
        type(r) is Fraction
        and r.denominator > 0
        and math.gcd(r.numerator, r.denominator) == 1
        and hash(r) == hash(Fraction(r.numerator, r.denominator))
    )


def counted(counts: MutableMapping[str, int], name: str, method: Callable) -> Callable:
    """`method`, counting each of its calls in counts[name]."""
    def counting(*args, **kwargs):
        counts[name] += 1
        return method(*args, **kwargs)
    return counting
