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
the 13 prime bases 2 ... 41, proven correct there.  `rational` is the one
coercion of a `RationalLike`, and `coprime_fraction` the one builder of a
Fraction without a gcd (`prime_power` builds p^k with it).  `shown` is the
one rule for showing a value in an error message, and the `Limit` rows
below hold every resource limit: each flag's default and cap, and the one
check that refuses a value past the cap.  `Value` is the immutable base of
the validated value types `MoebiusMap`, `Place` and `AdelePoint`; they are
no frozen dataclasses because `dataclasses` imports `inspect`, `ast` and
`dis`, which would lengthen every start of the CLI.  `Value._unchecked` is
the one path past a constructor's checks; a pickle or a copy is checked.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter
from typing import NamedTuple

from .errors import (
    FactorizationIncomplete,
    InputError,
    ParseError,
    ResourceLimitError,
    ZeroDenominator,
    ZeroInput,
)

__all__ = [
    "Factorization",
    "factorize",
    "is_perfect_square",
    "is_prime",
    "normalize",
    "parse_rational",
    "primes_upto",
]

#: Values accepted wherever a rational is expected; coerced by `rational`.
RationalLike = Fraction | int | str

_INTEGER_RE = re.compile(r"-?[0-9]+")
_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")

#: Error messages show at most this many characters or digits of a value.
QUOTE_CHARS = 32


class Value:
    """An immutable value whose fields are its class's `__slots__`.

    The constructor checks its input and sets each field once with `_set`;
    after that, setting or deleting an attribute raises AttributeError.  A
    slot whose name starts with `_` is a cache, not a field.  Two values are
    equal, and hash alike, when they are of the same class and their fields
    are equal; a value never equals a tuple.  `_unchecked` is the one path
    that skips the checks; a copy or a pickle, of its values too, is rebuilt
    through the constructor, which takes the fields in slot order.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # the fields' own getter and setters: a generic getattr loop would
        # make `==` several times slower than a dataclass's
        cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        cls._get = attrgetter(*cls._fields)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def _set(self, *fields) -> None:
        for set_field, x in zip(self._setters, fields):
            set_field(self, x)

    @classmethod
    def _unchecked(cls, *fields):
        """A value of `fields`, which the caller has proven pass the checks."""
        x = object.__new__(cls)
        x._set(*fields)
        return x

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._get(self) == self._get(other)

    def __hash__(self) -> int:
        return hash(self._get(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


def normalize(num: int, den: int) -> Fraction:
    """num/den in canonical form: positive denominator, coprime, 0 -> 0/1."""
    if den == 0:
        raise ZeroDenominator(f"{shown(num)}/0 is not a rational")
    return Fraction(num, den)


def coprime_fraction(num: int, den: int) -> Fraction:
    """num/den as a Fraction without the gcd and divisions of Fraction();
    the caller guarantees den > 0 and gcd(num, den) = 1 (0 only as 0/1).
    It sets the two slots as the stdlib's Fraction._from_coprime_ints does."""
    x = object.__new__(Fraction)
    x._numerator = num
    x._denominator = den
    return x


def prime_power(p: int, k: int) -> Fraction:
    """p**k for an integer p >= 2: p**k over 1, or 1 over p**-k, is coprime."""
    return coprime_fraction(p**k, 1) if k >= 0 else coprime_fraction(1, p**-k)


def rational(x: RationalLike) -> Fraction:
    """x as a Fraction: x itself if it is one (not a subclass), else Fraction(x)."""
    return x if type(x) is Fraction else Fraction(x)


def shown(value: RationalLike) -> str:
    """`value` for a one-line error message: text as its repr, cut past
    QUOTE_CHARS characters and its length given; an integer of more digits
    by its sign and bit length (str() is slow or fails there); a fraction by
    its two parts."""
    if isinstance(value, str):
        if len(value) <= QUOTE_CHARS:
            return repr(value)
        return f"{value[:QUOTE_CHARS]!r}... ({len(value)} characters)"
    if isinstance(value, Fraction):
        num, den = value.numerator, value.denominator
        return shown(num) if den == 1 else f"{shown(num)}/{shown(den)}"
    if abs(value) < 10**QUOTE_CHARS:
        return str(value)
    return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit integer>"


def int_digit_limit() -> int:
    """sys.get_int_max_str_digits(): the most decimal digits an int may
    have in str() and int(); 0 (no limit) where the interpreter has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


class Limit(NamedTuple):
    """A resource limit: `flag` sets it, to `default` unless given, and
    `cap` bounds the value or, in a budget, the `cost` computed from it."""

    flag: str
    default: int | None
    cap: int
    cost: str = ""

    def check(self, value: int, cost=int) -> int:
        """`value` if cost(value) is within the cap; else ResourceLimitError
        naming the flag, the cap and the largest value that passes.  `cost`
        rises with the value from cost(0) = 0 and is never below it."""
        if cost(value) <= self.cap:
            return value
        low, high = 0, min(value, self.cap + 1)  # low passes, high does not
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (mid, high) if cost(mid) <= self.cap else (low, mid)
        on = f" on {self.cost}" if self.cost else ""
        raise ResourceLimitError(
            f"{self.flag} {shown(value)} is above the cap {self.cap}{on};"
            f" {self.flag} {low} passes"
        )


DEFAULT_FACTOR_BOUND = 10**6
DEFAULT_MAX_STEPS = 10_000
#: The largest bit size whose integers print within int_digit_limit()
#: decimal digits (10^6 where the interpreter has no limit).
DEFAULT_BIT_GUARD = (
    (10 ** int_digit_limit()).bit_length() - 1 if int_digit_limit() else 10**6
)
#: The sieve allocates limit + 1 bytes.
MAX_PRIME_SCAN = 10**6
#: A recorded orbit step costs about 4 bytes per bit of its longest part,
#: plus a fixed cost worth this many bits (fitted to the JSON output:
#: 1.45 KB per step at 18 bits, 52.9 KB at 12956 bits).
STEP_BITS = 350

#: Trial division to 10^7 takes half a second.
FACTOR_BOUND = Limit("--factor-bound", DEFAULT_FACTOR_BOUND, 10**7)
BIT_GUARD = Limit("--bit-guard", DEFAULT_BIT_GUARD, DEFAULT_BIT_GUARD)
PRIME_SCAN = Limit("--audit-primes", None, MAX_PRIME_SCAN)
#: The default orbit at the default bit guard prints in about 0.6 GB.
ORBIT_STEPS = Limit(
    "--max-steps", DEFAULT_MAX_STEPS, DEFAULT_MAX_STEPS * (DEFAULT_BIT_GUARD + STEP_BITS),
    f"steps * (bit guard + {STEP_BITS})",
)
#: A sweep of height 8 at the default steps passes (about 5 s), 9 does not.
BASIN_WORK = Limit("--height", None, 1_500_000, "height * (2 height + 1) * (max steps + 1)")
#: Every limit a flag sets, by its flag.
LIMITS = {x.flag: x for x in (FACTOR_BOUND, BIT_GUARD, PRIME_SCAN, ORBIT_STEPS, BASIN_WORK)}


def parse_integer(text: str, what: str = "an integer", signed: bool = True) -> int:
    """Parse ASCII decimal digits, led by '-' only when `signed`.

    Stricter than int(), which also takes whitespace, '+', '_' and
    non-ASCII decimal digits, and than str.isdigit(), which also takes
    superscript digits.  The checks run in this order: the syntax, then
    the digit limit sys.get_int_max_str_digits() (no limit when that is 0
    or missing), then the sign.  The error says that `text` is not `what`,
    but for a number of more digits than the limit it names the limit
    instead of repeating the text.
    """
    if _INTEGER_RE.fullmatch(text) is not None:
        digits = len(text) - text.startswith("-")
        limit = int_digit_limit()
        if 0 < limit < digits:
            raise ParseError(f"{what} may have at most {limit} digits, got {digits}")
        if signed or text[0] != "-":
            return int(text)
    raise ParseError(f"{shown(text)} is not {what}")


def parse_rational(text: str) -> Fraction:
    """Parse 'n' or 'n/m': sign on the numerator only, no whitespace."""
    if _RATIONAL_RE.fullmatch(text) is None:
        raise ParseError(f"{shown(text)} is not of the form 'n' or 'n/m'")
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
            f"expected {count} comma-separated rationals, got {shown(text)}"
        )
    return [parse_rational(part) for part in parts]


class Factorization(NamedTuple):
    """Signed prime factorization; primes strictly increasing."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


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
#: From MR_LIMIT on, is_prime proves a number composite by a prime factor
#: up to this bound; no flag moves it, or MR_LIMIT.
WITNESS_BOUND = 10**6


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
    the wheel's candidates d <= min(bound, isqrt(m)), p ascending.  The
    cofactor left is not yielded: the caller proves it prime or not.
    Nothing past the hit a caller stops at is computed."""
    # 2 and 3 are always stripped; the bound only limits the wheel
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


def factorize(n: int, bound: int = DEFAULT_FACTOR_BOUND) -> Factorization:
    """Factor n by trial division with primes <= bound.

    The result is complete when every prime factor is <= bound or the
    cofactor surviving trial division is proven prime, by its one proof:
    it is below MR_LIMIT and passes the strong test.  A cofactor whose
    square root the wheel reached is below (bound + 1)**2, which the
    bound's cap keeps far below MR_LIMIT.  Any other cofactor raises
    FactorizationIncomplete rather than being reported as prime.
    """
    if n == 0:
        raise ZeroInput("0 has no prime factorization")
    if bound < 2:
        raise InputError(f"{FACTOR_BOUND.flag} must be >= 2, got {shown(bound)}")
    FACTOR_BOUND.check(bound)
    factors = list(_trial_division(abs(n), bound))
    m = abs(n) // math.prod(p**e for p, e in factors)
    if m > 1:
        if m < MR_LIMIT and _miller_rabin(m):
            factors.append((m, 1))
        else:
            # trial division stopped at the bound, below isqrt(m); trial
            # division to isqrt(m) always completes
            root, cap = math.isqrt(m), FACTOR_BOUND.cap
            hint = (
                f"a factor bound of {root} decides it" if root <= cap
                else f"no factor bound up to the cap {cap} is sure to decide it"
            )
            raise FactorizationIncomplete(
                f"cofactor {shown(m)} of {shown(n)} may be composite (bound"
                f" {shown(bound)}); {hint}"
            )
    return Factorization(1 if n > 0 else -1, tuple(factors))


@lru_cache(maxsize=1024)
def is_prime(n: int) -> bool:
    """Deterministic primality, proven below MR_LIMIT by the strong test.

    From MR_LIMIT on, a prime factor <= WITNESS_BOUND proves n composite;
    without one, ResourceLimitError is raised, since a proof there needs a
    certificate (such as Pocklington's) that is not built here.
    """
    if n < MR_LIMIT:
        return n >= 2 and _miller_rabin(n)
    # every yield is a prime <= WITNESS_BOUND < n, so a hit proves n composite
    if next(_trial_division(n, WITNESS_BOUND), None) is not None:
        return False
    raise ResourceLimitError(
        f"a {n.bit_length()}-bit integer with no prime factor <= {WITNESS_BOUND}"
        f" is not proven prime: primality is proven only below MR_LIMIT = {MR_LIMIT};"
        " no flag moves either bound"
    )


@lru_cache(maxsize=4)
def primes_upto(limit: int) -> tuple[int, ...]:
    """All primes <= limit, ascending (sieve of Eratosthenes).

    Raises ResourceLimitError for a limit above MAX_PRIME_SCAN.
    """
    PRIME_SCAN.check(limit)
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
    r = rational(r)
    if r < 0:
        return None
    num_root = math.isqrt(r.numerator)
    den_root = math.isqrt(r.denominator)
    if num_root * num_root == r.numerator and den_root * den_root == r.denominator:
        return Fraction(num_root, den_root)
    return None
