"""Reference arithmetic the benchmark checks the library against.

Everything here is written from the definitions with plain integers and
`Fraction`, and imports nothing from `adelicdyn`, so a check that passes
is not the library agreeing with itself.  Input generation uses the same
helpers, which keeps the generator from touching the code under test.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Deterministic Miller-Rabin bases: correct for every n < 3.3e24
# (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is beyond the deterministic Miller-Rabin range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    while not is_prime(n):
        n += 1
    return n


def valuation(r: Fraction, p: int) -> int:
    """Exponent of p in the nonzero rational r."""
    num, den, nu = r.numerator, r.denominator, 0
    while num % p == 0:
        num //= p
        nu += 1
    while den % p == 0:
        den //= p
        nu -= 1
    return nu


def norm(r: Fraction, p: int | None) -> Fraction:
    """|r|_v: absolute value for p None, else the p-adic norm (|0|_p = 0)."""
    if p is None:
        return abs(r)
    if r == 0:
        return Fraction(0)
    return Fraction(p) ** -valuation(r, p)


def apply(coeffs: tuple[Fraction, ...], x: Fraction) -> Fraction:
    a, b, c, d = coeffs
    return (a * x + b) / (c * x + d)


def fixed_points(coeffs: tuple[Fraction, ...]) -> list[Fraction]:
    """Rational roots of c x^2 + (d - a) x - b, ascending, without repeats."""
    a, b, c, d = coeffs
    disc = (d - a) ** 2 + 4 * b * c
    if disc < 0:
        return []
    num_root = math.isqrt(disc.numerator)
    den_root = math.isqrt(disc.denominator)
    if num_root**2 != disc.numerator or den_root**2 != disc.denominator:
        return []
    root = Fraction(num_root, den_root)
    return sorted({(a - d - root) / (2 * c), (a - d + root) / (2 * c)})


def lower_triangular_power(
    coeffs: tuple[Fraction, ...], n: int
) -> tuple[Fraction, ...]:
    """[[a, 0], [c, d]]^n in closed form, for a != d."""
    a, b, c, d = coeffs
    an, dn = a**n, d**n
    return (an, Fraction(0), c * (an - dn) / (a - d), dn)


def strip_primes(n: int, primes) -> int:
    """n with every listed prime divided out completely."""
    for p in primes:
        while n % p == 0:
            n //= p
    return n
