"""Exact scalar arithmetic.

`fractions.Fraction` already keeps every value in the canonical form the
rest of the library relies on (positive denominator, coprime parts, zero as
0/1), so it is the universal scalar here.  This module adds the pieces the
stdlib does not have: the strict string syntax used by the CLI and all
serialized output, bounded trial-division factorization that fails loudly
instead of mis-factoring, and the rational perfect-square test that gates
rational fixed points.  It is the one home of the integer routines:
`strip_prime` divides out a prime, `_trial_division` is the only
trial-division loop, and primality below MR_LIMIT is the strong test to
the 13 prime bases 2 ... 41, proven correct there.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    FactorizationIncomplete,
    InputError,
    ParseError,
    ResourceLimitError,
    ZeroDenominator,
    ZeroInput,
)

#: Values accepted wherever a rational is expected; coerced via Fraction().
RationalLike = Fraction | int | str

#: Trial division gives up beyond this unless asked otherwise.
DEFAULT_FACTOR_BOUND = 10**6

_INTEGER_RE = re.compile(r"-?[0-9]+")
_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")

#: Error messages show at most this many characters of malformed text.
QUOTE_CHARS = 32


def normalize(num: int, den: int) -> Fraction:
    """num/den in canonical form: positive denominator, coprime, 0 -> 0/1."""
    if den == 0:
        raise ZeroDenominator(f"{num}/0 is not a rational")
    return Fraction(num, den)


def coprime_fraction(num: int, den: int) -> Fraction:
    """num/den as a Fraction without the gcd and divisions of Fraction();
    the caller guarantees den > 0 and gcd(num, den) = 1 (0 only as 0/1).
    It sets the two slots as the stdlib's Fraction._from_coprime_ints does."""
    x = object.__new__(Fraction)
    x._numerator = num
    x._denominator = den
    return x


def quote(text: str) -> str:
    """repr(text) for an error message; longer text is cut to QUOTE_CHARS
    characters and its length given, so the message stays one short line."""
    if len(text) <= QUOTE_CHARS:
        return repr(text)
    return f"{text[:QUOTE_CHARS]!r}... ({len(text)} characters)"


def int_digit_limit() -> int:
    """sys.get_int_max_str_digits(): the most decimal digits an int may
    have in str() and int(); 0 (no limit) where the interpreter has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def parse_integer(text: str, what: str = "an integer", signed: bool = True) -> int:
    """Parse ASCII decimal digits, led by '-' only when `signed`.

    Stricter than int(), which also takes whitespace, '+', '_' and
    non-ASCII decimal digits, and than str.isdigit(), which also takes
    superscript digits.  The error says that `text` is not `what`; for text
    longer than sys.get_int_max_str_digits() (no limit when that is 0 or
    missing) it names the limit instead of repeating the text.
    """
    digits = len(text) - text.startswith("-")
    limit = int_digit_limit()
    if 0 < limit < digits:
        raise ParseError(f"{what} may have at most {limit} digits, got {digits}")
    if _INTEGER_RE.fullmatch(text) is None or (not signed and text[0] == "-"):
        raise ParseError(f"{quote(text)} is not {what}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """Parse 'n' or 'n/m': sign on the numerator only, no whitespace."""
    if _RATIONAL_RE.fullmatch(text) is None:
        raise ParseError(f"{quote(text)} is not of the form 'n' or 'n/m'")
    num, slash, den = text.partition("/")
    return normalize(
        parse_integer(num, "a numerator"),
        parse_integer(den, "a denominator") if slash else 1,
    )


def parse_rationals(text: str, count: int) -> list[Fraction]:
    """Parse exactly `count` comma-separated rationals ('x1,x2,...')."""
    parts = text.split(",")
    if len(parts) != count:
        raise ParseError(
            f"expected {count} comma-separated rationals, got {quote(text)}"
        )
    return [parse_rational(part) for part in parts]


class Factorization(NamedTuple):
    """Signed prime factorization; primes strictly increasing."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        n = self.sign
        for p, e in self.factors:
            n *= p**e
        return n

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def _shown(k: int) -> str:
    """k, or its bit length past QUOTE_CHARS digits (str() is slow or fails)."""
    return str(k) if abs(k) < 10**QUOTE_CHARS else f"<{k.bit_length()}-bit integer>"


def strip_prime(n: int, p: int) -> tuple[int, int]:
    """(n // p**e, e) for the largest e with p**e dividing n.

    Needs n != 0 and p >= 2, or the loop would not end; every caller
    ensures both.
    """
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return n, e


#: The strong-probable-prime test to these 13 bases is proven correct for
#: every n < MR_LIMIT = psi_13 (Sorenson and Webster, "Strong pseudoprimes
#: to twelve prime bases", Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _miller_rabin(n: int) -> bool:
    """Primality of 2 <= n < MR_LIMIT: division by the 13 bases, then the
    strong test to each; below MR_LIMIT every composite fails one of them."""
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = strip_prime(n - 1, 2)
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _trial_division(m: int, bound: int) -> Iterator[tuple[int, int]]:
    """Yield the prime powers (p, e) of m >= 1 found by stripping 2, 3 and
    the wheel's candidates d <= min(bound, isqrt(m)), p ascending; then
    the cofactor left as (cofactor, 1) when it is above 1 and d*d exceeds
    it, d the first candidate not tried, which proves it prime.  Nothing
    past the hit a caller stops at is computed."""
    # 2 and 3 are always stripped (the bound only limits the wheel); the
    # primality certificate "d*d > m" needs every candidate below d to
    # have been tried, bound or not
    for p in (2, 3):
        m, e = strip_prime(m, p)
        if e:
            yield p, e
    d, gap = 5, 2
    limit = min(bound, math.isqrt(m))  # d <= limit iff d <= bound and d*d <= m
    while d <= limit:
        if m % d == 0:
            m, e = strip_prime(m, d)
            yield d, e
            limit = min(bound, math.isqrt(m))
        d, gap = d + gap, 6 - gap
    if m > 1 and d * d > m:
        yield m, 1


def factorize(n: int, bound: int = DEFAULT_FACTOR_BOUND) -> Factorization:
    """Factor n by trial division with primes <= bound.

    The result is complete when every prime factor is <= bound or the
    cofactor surviving trial division is provably prime: no prime up to
    its square root is left untried (always so when it is <= bound**2), or
    it is below MR_LIMIT and passes the strong test.  Any other cofactor
    raises FactorizationIncomplete rather than being reported as prime.
    """
    if n == 0:
        raise ZeroInput("0 has no prime factorization")
    if bound < 2:
        raise InputError(f"factor bound must be >= 2, got {bound}")
    factors = list(_trial_division(abs(n), bound))
    m = abs(n) // math.prod(p**e for p, e in factors)
    if m > 1:
        if m < MR_LIMIT and _miller_rabin(m):
            factors.append((m, 1))
        else:
            # trial division stopped at the bound, below isqrt(m); trial
            # division to isqrt(m) always completes
            raise FactorizationIncomplete(
                f"cofactor {_shown(m)} of {_shown(n)} may be composite "
                f"(bound {bound}); a factor bound of {_shown(math.isqrt(m))} decides it"
            )
    return Factorization(1 if n > 0 else -1, tuple(factors))


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic primality, proven below MR_LIMIT by the strong test.

    From MR_LIMIT on, a prime factor <= DEFAULT_FACTOR_BOUND proves n
    composite; without one, ResourceLimitError is raised, since a proof
    there needs a certificate (such as Pocklington's) that is not built here.
    """
    if n < MR_LIMIT:
        return n >= 2 and _miller_rabin(n)
    # the first hit decides: (n, 1) proves n prime, any other factor
    # proves it composite
    hit = next(_trial_division(n, DEFAULT_FACTOR_BOUND), None)
    if hit is not None:
        return hit == (n, 1)
    raise ResourceLimitError(
        f"a {n.bit_length()}-bit integer with no prime factor <= {DEFAULT_FACTOR_BOUND}"
        f" is not proven prime: primality is proven only below MR_LIMIT = {MR_LIMIT}"
    )


#: The sieve refuses limits above this; it allocates limit + 1 bytes.
MAX_PRIME_SCAN = 10**6


@lru_cache(maxsize=None)
def primes_upto(limit: int) -> tuple[int, ...]:
    """All primes <= limit, ascending (sieve of Eratosthenes).

    Raises ResourceLimitError for a limit above MAX_PRIME_SCAN.
    """
    if limit > MAX_PRIME_SCAN:
        raise ResourceLimitError(
            f"prime scan limit {limit} is above the cap {MAX_PRIME_SCAN}"
        )
    if limit < 2:
        return ()
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return tuple(i for i, flag in enumerate(sieve) if flag)


def is_perfect_square(r: RationalLike) -> Fraction | None:
    """The nonnegative rational square root of r, or None if r is no square.

    In lowest terms a rational is a square exactly when numerator and
    denominator both are, so two integer square roots decide it.
    """
    r = Fraction(r)
    if r < 0:
        return None
    num_root = math.isqrt(r.numerator)
    den_root = math.isqrt(r.denominator)
    if num_root * num_root == r.numerator and den_root * den_root == r.denominator:
        return Fraction(num_root, den_root)
    return None
