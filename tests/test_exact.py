"""Canonical rationals, bounded factorization and the square test."""

import math
import random
import re
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from adelicdyn.errors import (
    FactorizationIncomplete,
    InputError,
    ParseError,
    ResourceLimitError,
    ZeroDenominator,
    ZeroInput,
)
from adelicdyn.exact import (
    FACTOR_BOUND,
    MAX_PRIME_SCAN,
    MR_LIMIT,
    QUOTE_CHARS,
    WITNESS_BOUND,
    Factorization,
    Limit,
    factorize,
    is_perfect_square,
    is_prime,
    normalize,
    parse_integer,
    parse_rational,
    parse_rationals,
    primes_upto,
    rational,
    shown,
    strip_prime,
)
import oracle


def test_normalize_reduces_and_fixes_sign():
    assert normalize(6, -4) == Fraction(-3, 2)


def test_normalize_zero_is_zero_over_one():
    r = normalize(0, 7)
    assert (r.numerator, r.denominator) == (0, 1)


def test_normalize_coprime_passthrough():
    assert normalize(10, 21) == Fraction(10, 21)


def test_normalize_rejects_zero_denominator():
    with pytest.raises(ZeroDenominator):
        normalize(3, 0)


def test_rational_coerces_only_what_is_no_fraction():
    # a Fraction is returned as it is; a subclass is re-wrapped, so every
    # value the library keeps is a plain Fraction
    class Sub(Fraction):
        pass

    q = Fraction(3, 4)
    assert rational(q) is q
    sub = Sub(3, 4)
    assert type(rational(sub)) is Fraction and rational(sub) == q
    assert rational("3/4") == Fraction(3, 4) and type(rational("3/4")) is Fraction
    assert type(rational(7)) is Fraction and rational(7) == 7


def test_canonical_form_is_unique():
    # equality goes through identical numerator/denominator pairs
    a, b = Fraction(2, 4), Fraction(-1, -2)
    assert (a.numerator, a.denominator) == (b.numerator, b.denominator) == (1, 2)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3", Fraction(3)),
        ("-3/2", Fraction(-3, 2)),
        ("0", Fraction(0)),
        ("10/21", Fraction(10, 21)),
        ("-0", Fraction(0)),
    ],
)
def test_parse_rational_accepts_canonical_syntax(text, expected):
    assert parse_rational(text) == expected


# "\u0663/\u0667" is 3/7 in Arabic-Indic digits, "\u00b2" a superscript two
@pytest.mark.parametrize(
    "text",
    [" 3", "3 ", "3/ 2", "1.5", "", "3/-2", "+3", "a"]
    + ["3\n", "\u0663/\u0667", "\u00b2", "1/\u00b2", "1_0"],
)
def test_parse_rational_rejects_loose_syntax(text):
    with pytest.raises(ParseError):
        parse_rational(text)


def test_parse_integer_is_strict_ascii():
    assert parse_integer("-12") == -12
    assert parse_integer("007", signed=False) == 7
    for text in ["", "-", "+1", " 1", "1\n", "\u00b2", "\u0663", "1_0"]:
        with pytest.raises(ParseError):
            parse_integer(text)
    with pytest.raises(ParseError):
        parse_integer("-1", signed=False)


def test_parse_integer_follows_the_interpreter_digit_limit(monkeypatch):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 10)
    assert parse_integer("-" + "9" * 10) == -(10**10 - 1)
    with pytest.raises(ParseError, match="at most 10 digits, got 11"):
        parse_integer("9" * 11)
    # the syntax is checked before the limit: text that is no number is
    # never reported as too many digits
    with pytest.raises(ParseError, match="'x{11}' is not an integer"):
        parse_integer("x" * 11)
    with pytest.raises(ParseError, match="at most 10 digits"):
        parse_rational("1/" + "9" * 11)
    # 0 means no limit, and interpreters before 3.10.7 have no limit at all
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    assert parse_integer("9" * 11) == 10**11 - 1
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert parse_rational("1/" + "9" * 11) == Fraction(1, 10**11 - 1)


def test_malformed_text_is_quoted_up_to_the_cap():
    short = "x" * QUOTE_CHARS
    assert shown(short) == repr(short)
    long = "y" * (QUOTE_CHARS + 1)
    assert shown(long) == f"{'y' * QUOTE_CHARS!r}... ({QUOTE_CHARS + 1} characters)"
    for parse, text in [
        (parse_integer, "1" * 100 + "x"),
        (parse_rational, "x" * 3000),
        (lambda t: parse_rationals(t, 4), "0," * 3000),
    ]:
        with pytest.raises(ParseError) as info:
            parse(text)
        assert text not in str(info.value) and len(str(info.value)) < 120


def test_numbers_are_shown_in_full_up_to_the_cap_then_by_bit_size():
    short = 10**QUOTE_CHARS - 1
    assert shown(short) == str(short) and shown(-short) == str(-short)
    assert shown(10**QUOTE_CHARS) == "<107-bit integer>"
    assert shown(-(10**QUOTE_CHARS)) == "-<107-bit integer>"
    assert shown(Fraction(-3, 4)) == "-3/4" and shown(Fraction(7)) == "7"
    assert shown(Fraction(1, 10**4000)) == "1/<13288-bit integer>"
    assert shown(Fraction(-(10**4000), 3)) == "-<13288-bit integer>/3"


def test_parse_rationals_takes_exactly_count_values():
    assert parse_rationals("0,-1/2,3", 3) == [0, Fraction(-1, 2), 3]
    for text in ["0,1", "0,1,2,3", "0,,1", "0, 1,2"]:
        with pytest.raises(ParseError):
            parse_rationals(text, 3)


def test_parse_rational_zero_denominator():
    with pytest.raises(ZeroDenominator):
        parse_rational("3/0")


def test_format_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        r = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert parse_rational(str(r)) == r
    assert str(Fraction(3, 1)) == "3"
    assert str(Fraction(-3, 2)) == "-3/2"
    assert str(Fraction(0)) == "0"


def test_factorize_twelve():
    expected = oracle.factorize(12)
    assert expected == ((2, 2), (3, 1))
    assert factorize(12) == Factorization(1, ((2, 2), (3, 1)))


def test_factorize_negative_unit():
    assert factorize(-1) == Factorization(-1, ())


def test_factorize_ten():
    assert factorize(10).factors == oracle.factorize(10)
    assert factorize(10) == Factorization(1, ((2, 1), (5, 1)))


def test_factorize_matches_oracle_on_random_integers():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(2, 10**6)
        fact = factorize(n)
        assert fact.factors == oracle.factorize(n)
        assert fact.sign == 1
        assert factorize(-n) == Factorization(-1, fact.factors)
    # +/- p^k * u with u prime to p: strip_prime must return (+/- u, k)
    for p in (2, 3, 5, 7):
        for k in range(6):
            u = p * rng.randint(1, 999) + rng.randint(1, p - 1)
            for n in (p**k * u, -(p**k) * u):
                assert strip_prime(n, p) == (n // p**k, k)
                assert factorize(n).factors == oracle.factorize(n)


def test_factorize_primes_strictly_increasing():
    rng = random.Random(13)
    for _ in range(100):
        primes = factorize(rng.randint(2, 10**9)).primes()
        assert all(a < b for a, b in zip(primes, primes[1:]))
        assert all(sympy.isprime(p) for p in primes)


def test_factorize_large_prime_cofactor_within_bound_squared():
    # no factor <= 100, but 101 * 103 both exceed it; bound 104 resolves it
    assert factorize(101 * 103, bound=104).factors == ((101, 1), (103, 1))
    # a single prime cofactor below bound^2 is provably prime
    assert factorize(4 * 9973, bound=100).factors == ((2, 2), (9973, 1))


def test_factorize_incomplete_above_bound_squared():
    with pytest.raises(FactorizationIncomplete):
        factorize(101 * 103, bound=100)


def test_factorization_error_names_a_bound_that_decides():
    # products of primes above the bound, times small primes below it; the
    # error names isqrt of the cofactor, which is above the failed bound and
    # with which the factorization completes.  The cofactor is a product of
    # two or three primes above the bound, so every one of the 60 draws
    # must raise; a fixed count fails, rather than hangs, when one does not
    rng = random.Random(29)
    pairs = []
    for _ in range(60):
        bound = rng.choice((2, 3, 4, 5, 10, 30, 100, 1000))
        count = rng.randint(2, 3)
        big = [sympy.nextprime(bound * rng.randint(1, 50)) for _ in range(count)]
        small = [rng.choice((2, 3, 5, 7)) for _ in range(rng.randint(0, 3))]
        n = math.prod(big + small) * rng.choice((1, -1))
        try:
            factorize(n, bound)
        except FactorizationIncomplete as exc:
            pairs.append((n, bound, str(exc)))
    assert len(pairs) == 60
    for n, bound, message in pairs:
        named = int(re.search(r"; a factor bound of (\d+) decides it$", message)[1])
        assert named > bound
        fact = factorize(n, named)
        assert fact.factors == tuple(sorted(sympy.factorint(abs(n)).items()))
        assert fact.sign == (1 if n > 0 else -1)


def test_factorization_error_shows_long_integers_by_bit_length():
    def message(n, bound=2):
        with pytest.raises(FactorizationIncomplete) as info:
            factorize(n, bound)
        return str(info.value)

    # 32 digits print in full, 33 by their bit length
    assert message(10**32 - 5).startswith("cofactor 99999999999999999999999999999995 of ")
    assert message(10**32).startswith(f"cofactor {5**32} of <107-bit integer> ")
    # past the interpreter's digit limit, where str() would fail; its
    # square root is far above the cap on the factor bound
    n = 7 * (10**5000 - 1) // 9
    bits = n.bit_length()
    assert message(n) == (
        f"cofactor <{bits}-bit integer> of <{bits}-bit integer> may be composite "
        f"(bound 2); no factor bound up to the cap {FACTOR_BOUND.cap} is sure to decide it"
    )


def test_the_hint_names_a_factor_bound_only_within_the_cap():
    def hint(n):
        with pytest.raises(FactorizationIncomplete) as info:
            factorize(n, 2)
        return str(info.value).rpartition("; ")[2]

    cap = FACTOR_BOUND.cap
    below, above = sympy.prevprime(cap), sympy.nextprime(cap)
    assert hint(below**2) == f"a factor bound of {below} decides it"
    assert hint(above**2) == f"no factor bound up to the cap {cap} is sure to decide it"


def test_a_factor_bound_above_the_cap_is_refused_before_any_division():
    assert factorize(6, FACTOR_BOUND.cap).factors == ((2, 1), (3, 1))
    cap = FACTOR_BOUND.cap
    message = f"--factor-bound {cap + 1} is above the cap {cap}; --factor-bound {cap} passes"
    with pytest.raises(ResourceLimitError, match=f"^{message}$"):
        factorize(6, cap + 1)


@pytest.mark.parametrize(
    "cost",
    [int, lambda v: v * 7, lambda v: v * (2 * v + 1) * 3, lambda v: v * v * v],
    ids=["value", "linear", "quadratic", "cubic"],
)
def test_a_limit_names_the_largest_value_that_passes(cost):
    limit = Limit("--flag", None, 1000, "" if cost is int else "the cost")
    on = "" if cost is int else " on the cost"
    for value in (0, 1, 9, 10, 11, 142, 143, 999, 1000, 1001, 10**40):
        if cost(value) <= 1000:
            assert limit.check(value, cost) == value
            continue
        with pytest.raises(ResourceLimitError) as info:
            limit.check(value, cost)
        line = str(info.value)
        assert line.startswith(f"--flag {shown(value)} is above the cap 1000{on}; ")
        passing = int(re.fullmatch(r".*; --flag (\d+) passes", line)[1])
        assert cost(passing) <= 1000 < cost(passing + 1)


def test_factorize_minimal_bound_stays_correct():
    # 2 and 3 are stripped even when the bound excludes 3; the cofactor
    # left is proven prime by the strong test alone, or refused
    assert factorize(9, bound=2).factors == ((3, 2),)
    assert factorize(15, bound=2).factors == ((3, 1), (5, 1))
    assert factorize(21, bound=2).factors == ((3, 1), (7, 1))
    with pytest.raises(FactorizationIncomplete):
        factorize(35, bound=2)  # 5 * 7 with nothing tried above 3


def test_factorize_rejects_zero_and_bad_bound():
    with pytest.raises(ZeroInput):
        factorize(0)
    with pytest.raises(InputError, match=r"^--factor-bound must be >= 2, got 1$"):
        factorize(10, bound=1)


def test_is_prime_matches_sieve():
    sieve = set(primes_upto(2000))
    for n in range(2000):
        assert is_prime(n) == (n in sieve)


def test_prime_scan_is_capped():
    assert primes_upto(MAX_PRIME_SCAN)[-1] == sympy.prevprime(MAX_PRIME_SCAN)
    with pytest.raises(ResourceLimitError, match=r"1000001 .* 1000000"):
        primes_upto(MAX_PRIME_SCAN + 1)


def test_the_sieve_keeps_few_limits():
    # each limit near the cap holds a 78,498-entry tuple
    maxsize = primes_upto.cache_info().maxsize
    assert maxsize is not None
    for limit in range(1000, 1000 + 4 * maxsize):
        assert primes_upto(limit) == tuple(sympy.primerange(limit + 1))
    assert primes_upto.cache_info().currsize <= maxsize


#: psi_12: a strong pseudoprime to the first 12 prime bases; only 41 exposes it
PSI_12 = 318665857834031151167461


def test_is_prime_matches_sympy_beyond_the_sieve():
    rng = random.Random(19)
    below = sympy.prevprime(10**6)
    above = sympy.nextprime(10**6)
    cases = [0, 1, -1, -2, -7, -561]
    cases += [561, 41041, 825265]  # Carmichael numbers
    cases += [below * below, above * above, below * above]
    cases += [sympy.prevprime(below) * sympy.nextprime(above)]
    cases += [sympy.nextprime(rng.randint(5 * 10**11, 9 * 10**11)) for _ in range(3)]
    cases += [sympy.nextprime(10**12)]  # isqrt above DEFAULT_FACTOR_BOUND
    cases += [2 * sympy.nextprime(10**11 + rng.randint(0, 10**9))]
    cases += [3215031751]  # 151 * 751 * 28351, strong pseudoprime to 2, 3, 5, 7
    # primes and semiprimes just below the proven range
    near = sympy.prevprime(MR_LIMIT)
    root = sympy.prevprime(math.isqrt(MR_LIMIT))
    cases += [PSI_12, near, sympy.prevprime(near), MR_LIMIT - 1]
    cases += [root * sympy.prevprime(MR_LIMIT // root), 3 * sympy.prevprime(MR_LIMIT // 3)]
    assert max(cases) < MR_LIMIT
    for n in cases:
        expected = sympy.isprime(n)
        assert is_prime(n) == expected, n
        assert oracle.is_prime(n) in (expected, None), n
    assert is_prime(near) and not is_prime(PSI_12)
    assert PSI_12 == 399165290221 * 798330580441


def test_is_prime_above_the_proven_range():
    # psi_13 passes all 13 bases, and both its factors exceed 10**6
    assert MR_LIMIT == 1287836182261 * 2575672364521
    for n in (MR_LIMIT, 2**127 - 1):
        with pytest.raises(ResourceLimitError, match=rf"{n.bit_length()}-bit .*MR_LIMIT"):
            is_prime(n)
    with pytest.raises(ResourceLimitError, match=f"<= {WITNESS_BOUND} .*no flag moves"):
        is_prime(2**127 - 1)
    # a factor up to the witness bound still proves a large n composite
    assert not is_prime(43 * (2**127 - 1))
    assert not is_prime(sympy.prevprime(10**6) * sympy.nextprime(MR_LIMIT))


def test_factorize_proves_a_cofactor_above_bound_squared():
    rng = random.Random(31)
    for bound in (2, 5, 100, 1000, 10**6):
        for _ in range(4):
            q = sympy.nextprime(bound**2 * rng.randint(2, 10**4))
            small = [p for p in (2, 3, 5, 7) if p <= max(3, bound)]
            n = math.prod(rng.choice(small) for _ in range(rng.randint(0, 4))) * q
            assert dict(factorize(n, bound).factors) == sympy.factorint(n)
    near = sympy.prevprime(MR_LIMIT)
    assert factorize(4 * near).factors == ((2, 2), (near, 1))
    # outside the proven range the cofactor is not taken for prime
    for n in (MR_LIMIT, 2**127 - 1):
        with pytest.raises(FactorizationIncomplete):
            factorize(n)


def _drawn_prime(low, high):
    return st.integers(low, high).map(sympy.nextprime)


def _signed_numbers(bound):
    """Any n below 10^12, a small multiple of a prime in [10^8, 10^12], or
    a product of two primes above the bound; either sign."""
    magnitude = st.one_of(
        st.integers(1, 10**12 - 1),
        st.builds(int.__mul__, st.integers(1, 1000), _drawn_prime(10**8, 10**12)),
        st.builds(int.__mul__, _drawn_prime(bound, 10**7), _drawn_prime(bound, 10**7)),
    )
    return st.builds(int.__mul__, magnitude, st.sampled_from((1, -1)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(bound=st.sampled_from((2, 3, 5, 100, 10**4)), data=st.data())
def test_factorize_matches_sympy(bound, data):
    n = data.draw(_signed_numbers(bound))
    expected = sympy.factorint(abs(n))
    # 2 and 3 are always stripped; what is left above the bound is never
    # divided, so it must be 1 or proven prime
    rest = math.prod(p**e for p, e in expected.items() if p > max(bound, 3))
    if rest == 1 or sympy.isprime(rest):
        fact = factorize(n, bound)
        assert fact.sign == (1 if n > 0 else -1)
        assert dict(fact.factors) == expected
    else:
        with pytest.raises(FactorizationIncomplete):
            factorize(n, bound)


def test_perfect_square_examples():
    assert is_perfect_square(Fraction(9, 4)) == Fraction(3, 2)
    assert math.isqrt(9) ** 2 == 9 and math.isqrt(4) ** 2 == 4
    assert is_perfect_square(0) == 0
    assert is_perfect_square(8) is None
    assert math.isqrt(8) ** 2 != 8
    assert is_perfect_square(-4) is None


def test_perfect_square_round_trip_random():
    rng = random.Random(17)
    for _ in range(300):
        t = Fraction(rng.randint(-500, 500), rng.randint(1, 500))
        root = is_perfect_square(t * t)
        assert root == abs(t)
        if t != 0:
            # 2 t^2 is a square only if 2 is, which it is not
            assert is_perfect_square(2 * t * t) is None
