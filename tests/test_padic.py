"""Valuations, exact norms, expansions and ultrametric balls."""

import math
import random
from fractions import Fraction

import pytest
import sympy

from adelicdyn.dynamics import verify_product_formula
from adelicdyn.errors import (
    FactorizationIncomplete,
    InputError,
    NotPrime,
    ParseError,
    ZeroInput,
)
from adelicdyn.exact import DEFAULT_FACTOR_BOUND as BOUND
from adelicdyn.padic import (
    INFINITE,
    PAdicExpansion,
    Place,
    REAL,
    ball_contains,
    norm_support,
    padic_distance,
    padic_expansion,
    padic_norm,
    place_norm,
    valuation,
)
from helpers import rand_rational, valuation_oracle

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def test_place_construction_and_strings():
    assert REAL.is_real and str(REAL) == "real"
    assert str(Place(7)) == "7"
    assert Place.from_string("real") == REAL
    assert Place.from_string("13") == Place(13)
    with pytest.raises(ParseError):
        Place.from_string("q")
    with pytest.raises(ParseError):
        Place.from_string("-3")
    for text in ["\u00b2", "3\n", "\u0663"]:  # superscript and Arabic-Indic digits
        with pytest.raises(ParseError):
            Place.from_string(text)


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, -7])
def test_place_rejects_non_primes(bad):
    with pytest.raises(NotPrime):
        Place(bad)


def test_norm_support_puts_real_first():
    support = norm_support(Fraction(-10, 21), BOUND)
    assert [v for v, _ in support] == [REAL, Place(2), Place(3), Place(5), Place(7)]
    assert [norm for _, norm in support] == [
        Fraction(10, 21), Fraction(1, 2), Fraction(3), Fraction(1, 5), Fraction(7)
    ]


def test_norm_support_matches_sympy():
    rng = random.Random(61)

    def part() -> int:
        smooth = math.prod(p ** rng.randint(0, 3) for p in (2, 3, 5, 7))
        big = sympy.prevprime(rng.randint(3, 10 ** rng.randint(1, 11)))
        return smooth * (big if rng.random() < 0.6 else 1)

    cases = [Fraction(1), Fraction(-1)]
    cases += [Fraction(rng.choice((1, -1)) * part(), part()) for _ in range(40)]
    for r in cases:
        num = sympy.factorint(abs(r.numerator))
        den = sympy.factorint(r.denominator)
        expected = ((REAL, abs(r)),) + tuple(
            (Place(p), Fraction(p) ** (den.get(p, 0) - num.get(p, 0)))
            for p in sorted(num.keys() | den.keys())
        )
        support = norm_support(r, BOUND)
        assert support == expected, r
        assert math.prod(norm for _, norm in support) == 1
        assert verify_product_formula(r, BOUND).factors == support
    primes = [v.p for r in cases for v, _ in norm_support(r, BOUND)[1:]]
    assert len(primes) > 2 * len(cases) and max(primes) > 10**10
    with pytest.raises(ZeroInput):
        norm_support(0, BOUND)
    # 1009 * 1013 > 1000^2: a composite cofactor the bound cannot certify
    with pytest.raises(FactorizationIncomplete):
        norm_support(Fraction(3, 1009 * 1013), bound=1000)


def test_valuation_examples():
    assert valuation_oracle(Fraction(12), 2) == 2
    assert valuation(12, 2) == 2
    assert valuation(0, 5) == INFINITE
    assert valuation_oracle(Fraction(1, 9), 3) == -2
    assert valuation(Fraction(1, 9), 3) == -2


def test_valuation_matches_oracle_random():
    rng = random.Random(23)
    for _ in range(300):
        r = rand_rational(rng, 400, nonzero=True)
        p = rng.choice(SMALL_PRIMES)
        assert valuation(r, p) == valuation_oracle(r, p)


def test_valuation_rejects_composite():
    with pytest.raises(NotPrime):
        valuation(Fraction(1, 2), 6)


def test_padic_norm_examples():
    assert padic_norm(6, 2) == Fraction(1, 2)  # 6 = 2 * 3
    assert padic_norm(0, 7) == 0
    assert padic_norm(Fraction(1, 12), 2) == 4


def test_place_norm_examples():
    x = Fraction(-3, 2)
    assert place_norm(x, REAL) == Fraction(3, 2)
    assert place_norm(x, Place(2)) == 2
    assert place_norm(x, Place(5)) == 1


def test_padic_distance_examples():
    assert padic_distance(1, 1, 3) == 0
    assert padic_distance(5, 1, 2) == Fraction(1, 4)
    assert Fraction(1, 3) - Fraction(1, 5) == Fraction(2, 15)
    assert padic_distance(Fraction(1, 3), Fraction(1, 5), 2) == Fraction(1, 2)


def test_norm_multiplicativity():
    rng = random.Random(29)
    places = [REAL] + [Place(p) for p in SMALL_PRIMES]
    for _ in range(300):
        x = rand_rational(rng, 200)
        y = rand_rational(rng, 200)
        v = rng.choice(places)
        assert place_norm(x * y, v) == place_norm(x, v) * place_norm(y, v)


def test_strong_triangle_inequality_with_equality_case():
    rng = random.Random(31)
    for _ in range(500):
        x = rand_rational(rng, 300)
        y = rand_rational(rng, 300)
        p = rng.choice(SMALL_PRIMES)
        nx, ny = padic_norm(x, p), padic_norm(y, p)
        ns = padic_norm(x + y, p)
        assert ns <= max(nx, ny)
        if nx != ny:
            assert ns == max(nx, ny)


def test_integers_have_norm_at_most_one():
    rng = random.Random(37)
    for _ in range(200):
        m = rng.randint(-10**9, 10**9)
        p = rng.choice(SMALL_PRIMES)
        assert padic_norm(m, p) <= 1


def test_expansion_of_seven_base_two():
    e = padic_expansion(7, 2, 3)
    assert (e.nu, e.digits) == (0, (1, 1, 1))  # 7 = 1 + 2 + 4
    assert e.partial_sum() == 7


def test_expansion_of_minus_one():
    e = padic_expansion(-1, 5, 3)
    assert (e.nu, e.digits) == (0, (4, 4, 4))


def test_expansion_of_one_third_base_two():
    e = padic_expansion(Fraction(1, 3), 2, 4)
    assert (e.nu, e.digits) == (0, (1, 1, 0, 1))
    assert (3 * 11) % 16 == 1  # the partial sum 11 inverts 3 mod 2^4


def test_expansion_leading_digit_nonzero():
    rng = random.Random(41)
    for _ in range(200):
        r = rand_rational(rng, 300, nonzero=True)
        p = rng.choice(SMALL_PRIMES)
        assert padic_expansion(r, p, 5).digits[0] != 0


def test_expansion_partial_sum_error_bound():
    rng = random.Random(43)
    for _ in range(200):
        r = rand_rational(rng, 300, nonzero=True)
        p = rng.choice(SMALL_PRIMES)
        n = rng.randint(1, 8)
        e = padic_expansion(r, p, n)
        assert padic_norm(r - e.partial_sum(), p) <= Fraction(p) ** -(e.nu + n)


def test_expansion_rejects_zero_and_bad_precision():
    with pytest.raises(ZeroInput):
        padic_expansion(0, 3, 4)
    with pytest.raises(InputError):
        padic_expansion(1, 3, 0)


def test_expansion_rejects_composites():
    # the prime check is valuation's, which the expansion calls
    for r in (Fraction(1, 3), Fraction(8), Fraction(-7, 2)):
        with pytest.raises(NotPrime):
            padic_expansion(r, 4, 3)


def test_expansion_serialization_shape():
    e = padic_expansion(Fraction(9, 2), 3, 4)
    d = e.to_dict()
    assert set(d) == {"p", "nu", "digits"}
    assert d["p"] == 3 and d["nu"] == 2 and len(d["digits"]) == 4
    assert e == PAdicExpansion(p=3, nu=2, digits=tuple(d["digits"]))


def test_ball_membership_examples():
    assert ball_contains(0, 0, 5, 3)  # |5|_3 = 1 <= 3^0
    assert not ball_contains(0, -1, 5, 3)  # 1 > 1/3
    rng = random.Random(47)
    for _ in range(50):
        a = rand_rational(rng, 100)
        assert ball_contains(a, rng.randint(-3, 3), a, 5)


def test_ball_any_point_serves_as_center():
    rng = random.Random(53)
    for _ in range(200):
        p = rng.choice(SMALL_PRIMES)
        mu = rng.randint(-2, 2)
        a = rand_rational(rng, 60)
        b = rand_rational(rng, 60)
        if not ball_contains(a, mu, b, p):
            continue
        for _ in range(20):
            x = rand_rational(rng, 60)
            assert ball_contains(a, mu, x, p) == ball_contains(b, mu, x, p)
