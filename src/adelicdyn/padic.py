"""Places of Q and exact non-Archimedean analysis over the rationals.

A place is either the real absolute value or the p-adic norm of a prime p;
every norm computed here is an exact Fraction (a power of p, or |r|), never
a float, so all ultrametric comparisons in the rest of the library are
exact.  `norm_support` alone finds the finitely many places where a
rational's norm is not 1.  `Place` is the only primality gate; a function
given a bare p builds `Place(p)`.  Digit expansions are least significant
first: x = p^nu (x_0 + x_1 p + x_2 p^2 + ...).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .errors import InputError, NotPrime, ZeroInput
from .exact import (
    RationalLike, Value, factorize, is_prime, parse_integer, prime_power, rational, shown,
    strip_prime,
)

__all__ = [
    "INFINITE",
    "PAdicExpansion",
    "Place",
    "REAL",
    "ball_contains",
    "norm_support",
    "padic_distance",
    "padic_expansion",
    "padic_norm",
    "place_norm",
    "valuation",
]

#: Valuation of 0; compares correctly against every finite integer valuation.
INFINITE = math.inf


class Place(Value):
    """The real place (p is None) or the finite place of a prime p."""

    __slots__ = ("p",)
    p: int | None

    def __init__(self, p: int | None = None):
        if p is not None and not hasattr(type(p), "__index__"):
            raise NotPrime(f"a finite place needs an integer, got {type(p).__name__}")
        if p is not None and not is_prime(p := operator.index(p)):
            raise NotPrime(f"{shown(p)} is not a prime, so not a finite place")
        self._set(p)

    @property
    def is_real(self) -> bool:
        return self.p is None

    def __str__(self) -> str:
        return "real" if self.p is None else str(self.p)

    @classmethod
    def from_string(cls, text: str) -> "Place":
        if text == "real":
            return REAL
        return cls(parse_integer(text, "'real' or a prime", signed=False))


REAL = Place()


def _exponent(p: int, r: Fraction) -> int | float:
    """Exponent of the proven prime p in r; INFINITE for r = 0."""
    if r == 0:
        return INFINITE
    return strip_prime(r.numerator, p)[1] - strip_prime(r.denominator, p)[1]


def valuation(r: RationalLike, p: int) -> int | float:
    """Exponent of p in r (so r = p^nu * unit); INFINITE for r = 0."""
    return _exponent(Place(p).p, rational(r))


def padic_norm(r: RationalLike, p: int) -> Fraction:
    """|r|_p = p^(-valuation); |0|_p = 0. Exact."""
    return place_norm(r, Place(p))


def place_norm(r: RationalLike, v: Place) -> Fraction:
    """|r|_v: plain absolute value at the real place, p-adic norm otherwise."""
    if v.is_real:
        return abs(rational(r))
    nu = _exponent(v.p, rational(r))
    return Fraction(0) if nu == INFINITE else prime_power(v.p, -nu)


def norm_support(r: RationalLike, bound: int) -> tuple[tuple[Place, Fraction], ...]:
    """(v, |r|_v) at the real place, then at each prime of r's numerator or
    denominator, ascending; |r|_p = 1 at every other prime.  Raises
    ZeroInput for r = 0 and FactorizationIncomplete beyond `bound`."""
    r = rational(r)
    primes = factorize(r.numerator, bound).primes()  # ZeroInput for r = 0
    primes += factorize(r.denominator, bound).primes()
    places = (REAL, *(Place(p) for p in sorted(primes)))
    return tuple((v, place_norm(r, v)) for v in places)


def padic_distance(x: RationalLike, y: RationalLike, p: int) -> Fraction:
    """Ultrametric distance |x - y|_p."""
    return padic_norm(rational(x) - rational(y), p)


def ball_contains(center: RationalLike, mu: int, x: RationalLike, p: int) -> bool:
    """Whether x lies in the ball {y : |y - center|_p <= p^mu}."""
    if not hasattr(type(mu), "__index__"):
        raise InputError(f"a ball's radius exponent needs an integer, got {type(mu).__name__}")
    return padic_distance(x, center, p) <= prime_power(p, operator.index(mu))


class PAdicExpansion(NamedTuple):
    """Truncated canonical expansion p^nu * sum(digits[k] * p^k) for a
    prime p, which `partial_sum` proves."""

    p: int
    nu: int
    digits: tuple[int, ...]

    def partial_sum(self) -> Fraction:
        p = Place(self.p).p
        return prime_power(p, self.nu) * sum(x * p**k for k, x in enumerate(self.digits))

    def to_dict(self) -> dict:
        return {"p": self.p, "nu": self.nu, "digits": list(self.digits)}


def padic_expansion(r: RationalLike, p: int, n_digits: int) -> PAdicExpansion:
    """First n_digits p-adic digits of a nonzero rational.

    Each digit is the unit part mod p (via modular inversion of the
    denominator); the remainder after subtracting it is divisible by p, so
    the partial sum agrees with r to within p^-(nu + n_digits).
    """
    r = rational(r)
    if r == 0:
        raise ZeroInput("0 has no valuation, hence no canonical expansion")
    if n_digits < 1:
        raise InputError(f"need at least one digit, got {shown(n_digits)}")
    nu = valuation(r, p)
    unit = r / prime_power(p, nu)
    digits = []
    for _ in range(n_digits):
        digit = unit.numerator * pow(unit.denominator, -1, p) % p
        digits.append(digit)
        unit = (unit - digit) / p
    return PAdicExpansion(p=p, nu=int(nu), digits=tuple(digits))
