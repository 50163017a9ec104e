"""Acceptance suite: ten exit criteria, every tolerance exact.

One test per criterion; `pytest -v tests/test_acceptance.py` prints one
pass/fail line for each.  Randomized criteria draw from fixed seeds so each
run checks the identical sample.
"""

import random
import sys
from fractions import Fraction

import pytest

from adelicdyn import (
    REAL,
    CaseTag,
    MoebiusMap,
    Place,
    Stability,
    adelic_report,
    audit_cofinite_indifference,
    case_a_map,
    case_b_map,
    case_c_map,
    case_d_map,
    case_e_map,
    case_f_map,
    case_predicted_report,
    classify_at_place,
    cross_ratio,
    exceptional_primes,
    fixed_points,
    iterate_at_place,
    modular_family,
    padic_norm,
    primes_upto,
    product_norm,
    recognize_case,
    siegel_max_radius,
)
from adelicdyn.errors import PoleInput
import oracle
from goldens import GOLDEN_COMMANDS, GOLDEN_DIR, _run
from helpers import rand_map, rand_nonzero, rand_rational, rand_square_disc_map

CASE_A_MAP = MoebiusMap(Fraction(1, 2), 0, 1, 2)
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


@pytest.fixture(scope="module")
def case_samples():
    """At least 100 parameter sets per family, free parameters of height <= 50."""
    rng = random.Random(2024)
    samples = {tag: [] for tag in CaseTag}
    while len(samples[CaseTag.A]) < 100:
        samples[CaseTag.A].append(
            case_a_map(rand_nonzero(rng, 50), rand_nonzero(rng, 50))
        )
    while len(samples[CaseTag.B]) < 100:
        t = rand_nonzero(rng, 50)
        if t in (1, -1):
            continue
        samples[CaseTag.B].append(case_b_map(t))
    for tag, build in ((CaseTag.C, case_c_map), (CaseTag.D, case_d_map)):
        while len(samples[tag]) < 100:
            samples[tag].append(build(rng.choice((1, -1)), rand_nonzero(rng, 50)))
    for tag, build in ((CaseTag.E, case_e_map), (CaseTag.F, case_f_map)):
        while len(samples[tag]) < 100:
            samples[tag].append(build(rand_rational(rng, 50), rand_nonzero(rng, 50)))
    return samples


@pytest.fixture(scope="module")
def unimodular_samples():
    """500 det-1 maps with c != 0 and rational-square discriminant."""
    rng = random.Random(4096)
    return [rand_square_disc_map(rng, height=30) for _ in range(500)]


def test_criterion_01_case_table_oracle_equivalence(case_samples):
    for tag, maps in case_samples.items():
        assert len(maps) >= 100
        for m in maps:
            assert m.det == 1
            assert tag in recognize_case(m)
            assert case_predicted_report(tag, m) == adelic_report(m)


def test_criterion_02_fixed_point_identities(unimodular_samples):
    assert len(unimodular_samples) >= 500
    for m in unimodular_samples:
        fps = fixed_points(m)
        assert not fps.fused
        x1, x2 = fps.points
        assert m.derivative_at(x1) * m.derivative_at(x2) == 1
        assert x1 * x2 == -m.b / m.c


def test_criterion_03_cofinite_indifference(unimodular_samples):
    scan = primes_upto(1000)
    for m in unimodular_samples:
        for xi in fixed_points(m).points:
            multiplier = m.derivative_at(xi)
            sets = exceptional_primes(multiplier)
            exceptional = sets.numerator_primes | sets.denominator_primes
            assert exceptional == set(oracle.primes_of(multiplier))
            for p in scan:
                indifferent = padic_norm(multiplier, p) == 1
                assert indifferent == (p not in exceptional)
    # the audit path (used by the CLI flag) ties back to classify_at_place
    for m in unimodular_samples[:20]:
        for audit in audit_cofinite_indifference(m, scan_limit=1000):
            assert audit.ok
        for xi in fixed_points(m).points:
            for p in (2, 3, 997):
                cls = classify_at_place(m, xi, Place(p))
                expected = padic_norm(m.derivative_at(xi), p)
                assert cls.multiplier_norm == expected


def test_criterion_04_product_formula(case_samples):
    rng = random.Random(555)
    for _ in range(10_000):
        assert product_norm(rand_nonzero(rng, 10**5)) == 1
    for maps in case_samples.values():
        for m in maps:
            for value in (*m.coefficients(), *fixed_points(m).points):
                if value != 0:
                    assert product_norm(value) == 1


def test_criterion_05_cross_ratio_invariance():
    rng = random.Random(314)
    checked = 0
    while checked < 1000:
        m = rand_map(rng, height=25)
        xs = []
        while len(xs) < 4:
            x = rand_rational(rng, 40)
            if x not in xs and m.c * x + m.d != 0:
                xs.append(x)
        assert cross_ratio(*(m.apply(x) for x in xs)) == cross_ratio(*xs)
        checked += 1


def test_criterion_06_siegel_sphere_invariance(unimodular_samples):
    # pinned fixture: 20 starts strictly inside radius 1 around 0 at p = 3
    starts = [
        3, -3, 6, -6, 9, -9, 12, 15, 21, 24,
        Fraction(3, 2), Fraction(-3, 2), Fraction(3, 4), Fraction(9, 2),
        Fraction(9, 4), Fraction(3, 5), Fraction(6, 5), Fraction(21, 4),
        Fraction(3, 7), Fraction(33, 2),
    ]
    assert len(starts) == 20
    assert siegel_max_radius(CASE_A_MAP, 0, 3) == 1
    record = iterate_at_place(CASE_A_MAP, 3, 0, Place(3), max_steps=2)
    assert [s.x for s in record.steps] == [3, Fraction(3, 10), Fraction(3, 46)]
    for x0 in starts:
        start_norm = padic_norm(x0, 3)
        assert start_norm < 1
        record = iterate_at_place(CASE_A_MAP, x0, 0, Place(3), max_steps=100)
        assert len(record.steps) == 101
        assert set(record.distances()) == {start_norm}
    # generalized: 50 random indifferent (map, place) pairs
    found = 0
    for m in unimodular_samples:
        if found == 50:
            break
        xi = fixed_points(m).points[0]
        multiplier = m.derivative_at(xi)
        for p in SMALL_PRIMES:
            if padic_norm(multiplier, p) != 1:
                continue
            rho = siegel_max_radius(m, xi, p)
            k = 0
            while Fraction(p) ** -k >= rho:
                k += 1
            x0 = xi + Fraction(p) ** k
            record = iterate_at_place(m, x0, xi, Place(p), max_steps=100)
            assert len(record.steps) == 101
            assert set(record.distances()) == {Fraction(p) ** -k}
            found += 1
            break
    assert found == 50


def test_criterion_07_real_attraction():
    record = iterate_at_place(CASE_A_MAP, 1, 0, REAL, max_steps=10)
    assert record.steps[3].x == Fraction(1, 106)
    assert record.steps[3].dist < Fraction(1, 100)
    hits = [s.n for s in record.steps if s.dist < Fraction(1, 10**4)]
    assert hits and hits[0] <= 10


def test_criterion_08_modular_families():
    for k in (1, 2, 3, 4, 5):
        for sign in (1, -1):
            for param in range(-20, 21):
                m = modular_family(k, sign, param)
                assert m.det == 1
                assert all(x.denominator == 1 for x in m.coefficients())
    for sign in (1, -1):
        for param in range(-20, 21):
            if param == 0:
                continue
            m = modular_family(1, sign, param)
            assert abs(m.d) == 1
            assert CaseTag.A in recognize_case(m)
            (report,) = adelic_report(m)
            assert report.xi == 0
            assert report.real.kind is Stability.INDIFFERENT
            assert report.finite_exceptions == ()


def test_criterion_09_structural_laws():
    rng = random.Random(999)
    # scale invariance and projective sign flip
    checked = 0
    while checked < 500:
        m = rand_map(rng, height=15)
        lam = rand_nonzero(rng, 15)
        x = rand_rational(rng, 20)
        if m.c * x + m.d == 0:
            continue
        for factor in (lam, Fraction(-1)):
            scaled = MoebiusMap(
                factor * m.a, factor * m.b, factor * m.c, factor * m.d
            )
            assert scaled.apply(x) == m.apply(x)
            assert scaled.derivative_at(x) == m.derivative_at(x)
        checked += 1
    # composition / matrix-power coherence up to n = 2^10
    checked = 0
    while checked < 500:
        m = rand_map(rng, height=5)
        x0 = rand_rational(rng, 5)
        length = 1024 if checked % 25 == 0 else rng.randint(0, 64)
        snapshots = {length, length // 2, 1, 0}
        try:
            x = x0
            for n in range(length + 1):
                if n in snapshots:
                    assert m.power(n).apply(x0) == x
                x = m.apply(x)
        except PoleInput:
            continue
        checked += 1
    # ultrametric inequality, equality when the norms differ
    for _ in range(500):
        x = rand_rational(rng, 300)
        y = rand_rational(rng, 300)
        p = rng.choice(SMALL_PRIMES)
        nx, ny, ns = padic_norm(x, p), padic_norm(y, p), padic_norm(x + y, p)
        assert ns <= max(nx, ny)
        if nx != ny:
            assert ns == max(nx, ny)


def test_criterion_10_cli_contract():
    # every golden from a child interpreter, as a user runs the CLI
    cli = [sys.executable, "-m", "adelicdyn"]
    for name, args in GOLDEN_COMMANDS:
        code, out, err = _run([*cli, *args])
        assert code == 0, f"{name}: {err.decode()}"
        assert err == b""
        assert out == (GOLDEN_DIR / f"{name}.json").read_bytes()
    for name, args in GOLDEN_COMMANDS[:3]:
        assert _run([*cli, *args]) == _run([*cli, *args])
