"""Exact orbits, behavior verdicts, Siegel disks, adeles, product formula."""

import collections
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from adelicdyn import dynamics, padic
from adelicdyn.dynamics import (
    DEFAULT_BIT_GUARD,
    WINDOW,
    AdelePoint,
    BasinPoint,
    Step,
    Termination,
    TrajectoryRecord,
    VerdictKind,
    admissible_bound,
    basin_sample,
    detect_behavior,
    iterate_at_place,
    local_multiplier_radius,
    principal_adele,
    product_norm,
    siegel_max_radius,
    step_adele,
    verify_product_formula,
)
from adelicdyn.errors import (
    CIsZero,
    NonIntegralTail,
    NotAFixedPoint,
    NotIndifferent,
    PoleAtPlace,
    PoleInput,
    ResourceLimitError,
    ZeroInput,
)
from adelicdyn.classification import (
    case_a_map,
    case_b_map,
    case_c_map,
    case_d_map,
    case_e_map,
    case_f_map,
)
from adelicdyn.exact import coprime_fraction, int_digit_limit, is_prime
from adelicdyn.moebius import MoebiusMap
from adelicdyn.padic import Place, REAL
import oracle
from helpers import counted, is_canonical, rand_rational, rand_square_disc_map

CASE_A_MAP = MoebiusMap(Fraction(1, 2), 0, 1, 2)
CASE_C_MAP = MoebiusMap(3, 2, -2, -1)
SMALL_RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


def test_real_orbit_example():
    record = iterate_at_place(CASE_A_MAP, 1, 0, REAL, max_steps=3)
    steps, stop = oracle.orbit(CASE_A_MAP.coefficients(), 1, 0, None, 3, 10**6)
    assert [x for _, x, _ in steps] == [1, Fraction(1, 6), Fraction(1, 26), Fraction(1, 106)]
    assert (record.steps, record.terminated_by) == (steps, stop)
    dists = record.distances()
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert record.terminated_by is Termination.MAX_STEPS


def test_padic_orbit_example():
    record = iterate_at_place(CASE_A_MAP, 3, 0, Place(3), max_steps=2)
    assert [s.x for s in record.steps] == [3, Fraction(3, 10), Fraction(3, 46)]
    assert record.distances() == [Fraction(1, 3)] * 3


def test_orbit_from_fixed_point_is_converged():
    record = iterate_at_place(CASE_A_MAP, 0, 0, REAL, max_steps=10)
    assert record.terminated_by is Termination.CONVERGED
    assert record.distances() == [Fraction(0)]


def test_orbit_validates_fixed_point():
    with pytest.raises(NotAFixedPoint):
        iterate_at_place(CASE_A_MAP, 1, 1, REAL, max_steps=5)


def test_pole_start_recorded_in_band():
    record = iterate_at_place(CASE_A_MAP, -2, 0, REAL, max_steps=5)
    assert record.terminated_by is Termination.POLE_HIT
    assert len(record.steps) == 1
    assert record.steps[0].x == -2


def test_pole_hit_mid_orbit():
    # f(-8/5) = -2, the pole
    assert CASE_A_MAP.apply(Fraction(-8, 5)) == -2
    record = iterate_at_place(CASE_A_MAP, Fraction(-8, 5), 0, REAL, max_steps=10)
    assert record.terminated_by is Termination.POLE_HIT
    assert [s.x for s in record.steps] == [Fraction(-8, 5), Fraction(-2)]


def test_overflow_guard_stops_growth():
    record = iterate_at_place(CASE_A_MAP, 1, 0, REAL, max_steps=100, bit_guard=20)
    assert record.terminated_by is Termination.OVERFLOW_GUARD
    assert len(record.steps) < 20
    for s in record.steps:
        assert s.x.denominator.bit_length() <= 20


def test_default_bit_guard_is_the_largest_printable_size():
    limit = int_digit_limit()
    if limit == 0:
        assert DEFAULT_BIT_GUARD == 10**6
        return
    if limit == 4300:  # the interpreter's default
        assert DEFAULT_BIT_GUARD == 14284
    assert len(str(2**DEFAULT_BIT_GUARD - 1)) <= limit
    assert 2 ** (DEFAULT_BIT_GUARD + 1) - 1 >= 10**limit  # has limit + 1 digits


def test_default_bit_guard_keeps_distances_printable():
    # xi = 1/3^2000 has a 3170-bit denominator, which |x - xi| carries on
    # top of x's: here the guard must stop on the distance, not on x
    xi, other, lam = Fraction(1, 3**2000), Fraction(1), Fraction(1, 2**20)
    m = MoebiusMap(*oracle.normal_form_map(lam, xi, other))
    record = iterate_at_place(m, 2, xi, REAL, max_steps=10**5)
    assert record.terminated_by is Termination.OVERFLOW_GUARD
    for step in record.steps:
        str(step.x), str(step.dist)  # ValueError past the digit limit
    next_x = m.apply(record.steps[-1].x)
    assert oracle.bits(next_x) <= DEFAULT_BIT_GUARD < oracle.bits(next_x - xi)


def test_a_start_past_the_bit_guard_is_a_resource_error():
    # a part exactly bit_guard bits long passes; one bit more raises, and
    # the message names the guard and the size
    x0 = Fraction(2**20 - 1)
    assert len(iterate_at_place(CASE_A_MAP, x0, 0, REAL, 0, bit_guard=20).steps) == 1
    with pytest.raises(ResourceLimitError, match=r"20-bit .* 19 bits"):
        iterate_at_place(CASE_A_MAP, x0, 0, REAL, 0, bit_guard=19)
    # x0 = 2 fits, but its distance to xi = 1/3^2000 carries xi's 3170 bits
    xi, other, lam = Fraction(1, 3**2000), Fraction(1), Fraction(2)
    m = MoebiusMap(*oracle.normal_form_map(lam, xi, other))
    size = oracle.bits(2 - xi)
    assert oracle.bits(Fraction(2)) < 100 < size
    iterate_at_place(m, 2, xi, REAL, 0, bit_guard=size)
    with pytest.raises(ResourceLimitError, match=f"{size}-bit .* {size - 1} bits"):
        iterate_at_place(m, 2, xi, REAL, 0, bit_guard=size - 1)
    with pytest.raises(ResourceLimitError):
        basin_sample(m, xi, REAL, 1, max_steps=0, bit_guard=100)


def test_threshold_convergence_terminates_early():
    record = iterate_at_place(CASE_A_MAP, 1, 0, REAL, max_steps=10_000)
    assert record.terminated_by is Termination.CONVERGED
    assert record.steps[-1].dist < Fraction(1, 2**40)
    assert len(record.steps) < 100


def test_orbit_matches_matrix_powers():
    rng = random.Random(109)
    for _ in range(30):
        m = rand_square_disc_map(rng, height=10)
        xi = oracle.fixed_points(m.coefficients())[0]
        x0 = rand_rational(rng, 10)
        record = iterate_at_place(m, x0, xi, REAL, max_steps=12)
        for step in record.steps:
            assert m.power(step.n).apply(x0) == step.x


def random_orbit_start(rng, trial):
    """A map, one of its fixed points xi, a place and a starting point.

    Maps scaled by a random rational k keep their fixed points but get
    non-integer coefficients and det = k^2 != +/-1; every sixth trial is an
    affine map (no pole).  Starting points include xi itself, the pole, and
    points a few steps before the pole (a Moebius map is a bijection, so an
    orbit lands on xi only by starting there).
    """
    if trial % 6 == 5:
        a = rand_rational(rng, 9)
        while a == 1 or a == 0:
            a = rand_rational(rng, 9)
        b = rand_rational(rng, 9)
        m, xi = MoebiusMap(a, b, 0, 1), b / (1 - a)
    else:
        unit = rand_square_disc_map(rng, height=9)
        xi = rng.choice(oracle.fixed_points(unit.coefficients()))
        k = rand_rational(rng, 9, nonzero=True)
        m = MoebiusMap(*(k * e for e in unit.coefficients()))
    v = rng.choice((REAL, Place(2), Place(3), Place(5)))
    kind = rng.choice(("random", "random", "xi", "pole", "before-pole"))
    x0 = rand_rational(rng, 12)
    if kind == "xi":
        x0 = xi
    elif kind == "pole" and m.pole is not None:
        x0 = m.pole
    elif kind == "before-pole" and m.pole is not None:
        x0 = m.pole
        for _ in range(rng.randint(1, 4)):
            try:
                x0 = m.inverse().apply(x0)
            except PoleInput:
                break
    return m, xi, v, x0


def test_orbit_matches_the_definitions(monkeypatch):
    # small bit guards trip the guard, and loose thresholds and short
    # windows (patched into the module constants the kernel reads) make
    # convergence common
    rng = random.Random(127)
    seen, paths = set(), set()
    for trial in range(200):
        m, xi, v, x0 = random_orbit_start(rng, trial)
        max_steps = rng.choice((0, 1, 12, 40))
        bit_guard = rng.choice((rng.randint(4, 64), 10**6))
        threshold = rng.choice((Fraction(1, 2**40), Fraction(1, 2**6), Fraction(1)))
        window = rng.choice((1, 3, 16))
        monkeypatch.setattr(dynamics, "WINDOW", window)
        monkeypatch.setattr(dynamics, "CONVERGENCE_THRESHOLD", threshold)
        expected = oracle.orbit(
            m.coefficients(), x0, xi, v.p, max_steps, bit_guard, threshold, window
        )
        if expected == "past_guard":
            with pytest.raises(ResourceLimitError):
                iterate_at_place(m, x0, xi, v, max_steps, bit_guard)
            continue
        record = iterate_at_place(m, x0, xi, v, max_steps, bit_guard)
        assert record == (v, xi, *expected)
        assert all(
            type(s.x) is Fraction and type(s.dist) is Fraction for s in record.steps
        )
        seen.add((record.terminated_by, len(record.steps) > 1))
        if not v.is_real:
            paths.update(disk_paths(m, record))
    # every way to stop, and both pole hits and convergence at x0 and later
    assert {stop for stop, _ in seen} == set(Termination)
    for stop in (Termination.POLE_HIT, Termination.CONVERGED):
        assert {(stop, False), (stop, True)} <= seen
    # every path of a p-adic distance through the linearization disk
    assert paths == {"inside step", "enters", "leaves", "affine"}


def disk_paths(m, record):
    """How a p-adic orbit moves through the linearization disk
    |x - xi|_p < |c xi + d|_p / |c|_p, the whole of Q_p for c = 0: "inside
    step" for a step from strictly inside, "enters" for a start outside
    that comes inside, "leaves" for a step from inside to outside, and
    "affine" for a step of a map with c = 0."""
    _, _, c, d = m.coefficients()
    v = record.place
    if c == 0:
        inside = [True] * len(record.steps)
    else:
        radius = oracle.norm(c * record.xi + d, v.p) / oracle.norm(c, v.p)
        inside = [s.dist < radius for s in record.steps]
    steps = list(zip(inside, inside[1:]))
    return {
        path
        for path, taken in (
            ("inside step", any(before for before, _ in steps)),
            ("enters", not inside[0] and any(inside)),
            ("leaves", any(before and not after for before, after in steps)),
            ("affine", c == 0 and bool(steps)),
        )
        if taken
    }


CASE_B_MAP = MoebiusMap(Fraction(5, 4), Fraction(3, 4), Fraction(3, 4), Fraction(5, 4))
# x -> (6x + 6)/(5x + 7) scaled by k = -1/5: its integer matrix
# -(6, 6, 5, 7) has det 12, which shares 6 with the top row
SCALED_MAP = MoebiusMap(*(Fraction(-1, 5) * e for e in (6, 6, 5, 7)))
# (map, xi, p, x0): x0 lies on a p-adic sphere around xi inside the
# linearization radius, where xi is indifferent, so every orbit runs its
# whole budget while its operands grow by 2 or more bits a step; two
# spheres have radius below CONVERGENCE_THRESHOLD
LONG_SPHERE_ORBITS = [
    (CASE_B_MAP, Fraction(1), 3, 1 + Fraction(3, 7)),
    (CASE_B_MAP, Fraction(-1), 5, -1 - Fraction(5**20, 11)),
    (CASE_A_MAP, Fraction(0), 3, Fraction(3**30)),
    (SCALED_MAP, Fraction(1), 5, 1 + Fraction(5, 7)),
]


def test_long_sphere_orbits_match_the_fraction_reference():
    # the kernel reduces each step by a gcd against the integer matrix's
    # det; tally, from the recorded orbits, the steps where the new pair
    # has a common factor, where det shares more with the new numerator
    # than the new denominator does, and where the new denominator is
    # negative, so each part of the reduction is seen to be exercised
    reduced = det_shares_more = negative = 0
    for m, xi, p, x0 in LONG_SPHERE_ORBITS:
        record = iterate_at_place(m, x0, xi, Place(p), max_steps=1000)
        expected = oracle.orbit(m.coefficients(), x0, xi, p, 1000, DEFAULT_BIT_GUARD)
        assert record == (Place(p), xi, *expected)
        assert record.terminated_by is Termination.MAX_STEPS
        assert record.distances() == [oracle.norm(x0 - xi, p)] * 1001
        assert oracle.bits(record.steps[-1].x) >= 2000
        assert all(is_canonical(s.x) and is_canonical(s.dist) for s in record.steps)
        scale = math.lcm(*(k.denominator for k in m.coefficients()))
        a, b, c, d = (int(k * scale) for k in m.coefficients())
        det = a * d - b * c
        for step in record.steps[:-1]:
            num, den = step.x.numerator, step.x.denominator
            new_num, new_den = a * num + b * den, c * num + d * den
            g = math.gcd(new_num, new_den)
            reduced += g > 1
            det_shares_more += math.gcd(new_num, det) > g
            negative += new_den < 0
    assert reduced and det_shares_more and negative


def test_coprime_fraction_is_the_canonical_fraction():
    big = 3**5000 + 2  # 7925 bits, coprime to 2**8000 - 1
    cases = [(-3, 4), (0, 1), (7, 1), (-(2**8000 - 1), big), (big, 2**8000 - 1)]
    for num, den in cases:
        built, expected = coprime_fraction(num, den), Fraction(num, den)
        assert built == expected
        assert (built.numerator, built.denominator) == (num, den)
        assert hash(built) == hash(expected)
        assert str(built) == str(expected)
        assert type(built) is Fraction


def test_detect_converges_real():
    record = iterate_at_place(CASE_A_MAP, 1, 0, REAL, max_steps=200)
    verdict = detect_behavior(record, CASE_A_MAP)
    assert verdict.kind is VerdictKind.CONVERGES


def test_detect_sphere_invariant():
    record = iterate_at_place(CASE_A_MAP, 3, 0, Place(3), max_steps=40)
    verdict = detect_behavior(record, CASE_A_MAP)
    assert verdict.kind is VerdictKind.SPHERE_INVARIANT
    assert verdict.evidence.constant_run == 41


def test_detect_escapes_padic():
    # |f'(0)|_2 = 4: inside the locality radius distances grow exactly 4x
    x0 = Fraction(2**40)
    record = iterate_at_place(CASE_A_MAP, x0, 0, Place(2), max_steps=18)
    dists = record.distances()
    assert dists[0] == Fraction(1, 2**40)
    assert all(b == 4 * a for a, b in zip(dists, dists[1:]))
    verdict = detect_behavior(record, CASE_A_MAP)
    assert verdict.kind is VerdictKind.ESCAPES
    assert verdict.evidence.start_inside_radius is True


def test_detect_escapes_real():
    # -3/2 is the real repeller; start inside |c xi + d| / |c| = 1/2 of it
    xi = Fraction(-3, 2)
    record = iterate_at_place(CASE_A_MAP, Fraction(-5, 4), xi, REAL, max_steps=30)
    verdict = detect_behavior(record, CASE_A_MAP)
    assert verdict.kind is VerdictKind.ESCAPES


#: Real orbits whose distance strictly grows over the window from inside the
#: locality radius, around a fixed point that does not repel.
ATTRACTING_GROWTH = (
    MoebiusMap(-4, 0, Fraction(1, 7), Fraction(-7, 2)), Fraction(1, 3), Fraction(-7, 2), 17
)
FUSED_GROWTH = (MoebiusMap(-1, -2, 2, 3), Fraction(-101, 100), Fraction(-1), 20)
#: `--max-steps 20 basin --map 40,0,1,40 --xi 0 --place real --height 1`'s x0 = -1
FUSED_SWEEP = (MoebiusMap(40, 0, 1, 40), Fraction(-1), Fraction(0), 20)


@pytest.mark.parametrize(
    "m, x0, xi, max_steps", [ATTRACTING_GROWTH, FUSED_GROWTH, FUSED_SWEEP]
)
def test_real_growth_near_a_point_that_does_not_repel_is_no_escape(m, x0, xi, max_steps):
    # f'(-7/2) = 7/8: the orbit leaves the repeller 0 for the pole 49/2 and
    # converges to -7/2 later; f'(-1) = 1, and the distance 1/|w| grows as
    # w = 1/(x + 1) runs -100, -98, ..., -60; f'(0) = 1, and the distance
    # 1/|n/40 - 1| grows from inside the radius 40
    assert oracle.norm(oracle.multiplier(m.coefficients(), xi), None) <= 1
    verdict = detect_behavior(iterate_at_place(m, x0, xi, REAL, max_steps), m)
    assert verdict.kind is VerdictKind.UNDETERMINED
    assert verdict.evidence.strictly_increasing
    assert verdict.evidence.start_inside_radius is True
    # a sweep reads |f'(xi)|_v > 1 from its own orbit kernel: the smallest
    # sweep that holds x0 gives x0 the same verdict
    height = max(abs(x0.numerator), x0.denominator)
    sweep = basin_sample(m, xi, REAL, height, max_steps)
    assert [point.verdict for point in sweep if point.x0 == x0] == [verdict]


def test_detect_undetermined_outside_radius():
    record = iterate_at_place(CASE_A_MAP, 1, 0, Place(2), max_steps=30)
    verdict = detect_behavior(record, CASE_A_MAP)
    assert verdict.kind is VerdictKind.UNDETERMINED


def test_detect_too_short():
    # a constant-distance orbit, but too short for the window to say so
    record = iterate_at_place(CASE_A_MAP, 3, 0, Place(3), max_steps=5)
    verdict = detect_behavior(record, CASE_A_MAP)
    assert verdict.kind is VerdictKind.UNDETERMINED
    assert verdict.evidence.window == 5


def test_verdicts_match_the_rules_with_a_second_convergence_test():
    # the orbit stops as converged as soon as the distances meet the
    # window-and-threshold test, so the reference's second test on the
    # finished distances never decides a verdict; budgets sit around the
    # 16-step window, small bit guards stop orbits early, and the 2-adic
    # repeller from 2^40 escapes (rare in a random sample)
    rng = random.Random(131)
    cases = [(CASE_A_MAP, Fraction(0), Place(2), Fraction(2**40), 17, 10**6)]
    for trial in range(300):
        m, xi, v, x0 = random_orbit_start(rng, trial)
        max_steps = rng.choice((0, 15, 16, 17, 200))
        bit_guard = rng.choice((rng.randint(4, 64), 10**6))
        cases.append((m, xi, v, x0, max_steps, bit_guard))
    kinds, stops = set(), set()
    for m, xi, v, x0, max_steps, bit_guard in cases:
        if oracle.orbit(m.coefficients(), x0, xi, v.p, 0, bit_guard) == "past_guard":
            with pytest.raises(ResourceLimitError):
                iterate_at_place(m, x0, xi, v, max_steps, bit_guard)
            continue
        record = iterate_at_place(m, x0, xi, v, max_steps, bit_guard)
        verdict = detect_behavior(record, m)
        stop = record.terminated_by
        assert verdict == oracle.verdict(m.coefficients(), xi, v.p, record.distances(), stop)
        kinds.add(verdict.kind)
        stops.add(record.terminated_by)
    assert kinds == set(VerdictKind)
    assert stops == set(Termination)


#: Orbits of maps with fixed points xi != other; w = (x - xi)/(x - other)
#: conjugates each map to w -> w / lam, and (x - other)/(x - xi) to x -> lam x.
MULTIPLIERS = SMALL_RATIONALS.filter(lambda r: r not in (0, 1))
CONJUGATE_ORBITS = given(
    lam=MULTIPLIERS,
    xi=SMALL_RATIONALS,
    other=SMALL_RATIONALS,
    x0=SMALL_RATIONALS,
    v=st.sampled_from((REAL, Place(2), Place(3), Place(5))),
    max_steps=st.integers(0, 200),
    bit_guard=st.sampled_from((30, 10**6)),
)


def _conjugate_map(lam, xi, other):
    assume(xi != other)
    return MoebiusMap(*oracle.normal_form_map(lam, xi, other))


def _conjugate_orbit(lam, xi, other, x0, v, max_steps, bit_guard):
    """The map of one CONJUGATE_ORBITS draw, and its orbit of x0."""
    m = _conjugate_map(lam, xi, other)
    return m, iterate_at_place(m, x0, xi, v, max_steps, bit_guard)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@CONJUGATE_ORBITS
def test_no_verdict_without_supporting_evidence(
    lam, xi, other, x0, v, max_steps, bit_guard
):
    m, record = _conjugate_orbit(lam, xi, other, x0, v, max_steps, bit_guard)
    verdict = detect_behavior(record, m)
    evidence = verdict.evidence
    if verdict.kind is VerdictKind.SPHERE_INVARIANT:
        assert evidence.window == 16
        assert evidence.constant_run == len(record.steps)
    elif verdict.kind is VerdictKind.ESCAPES:
        assert evidence.strictly_increasing
        assert evidence.start_inside_radius is True
    elif verdict.kind is VerdictKind.CONVERGES:
        assert evidence.final_dist == 0 or (
            evidence.strictly_decreasing and evidence.final_dist < Fraction(1, 2**40)
        )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@CONJUGATE_ORBITS
def test_every_orbit_point_is_the_closed_form_of_the_conjugate_map(
    lam, xi, other, x0, v, max_steps, bit_guard
):
    # w_n = mu^n w_0 with mu = f'(xi) gives x_n = (xi - w_n other)/(1 - w_n),
    # with no matrix power; w_n = 1 puts x_n at infinity, after the pole
    m, record = _conjugate_orbit(lam, xi, other, x0, v, max_steps, bit_guard)
    mu = m.derivative_at(xi)
    assert mu == 1 / lam
    if x0 == other:  # w_0 is infinite: the orbit stays at the fixed point
        assert all(step.x == other for step in record.steps)
        return
    w0 = (x0 - xi) / (x0 - other)
    for step in record.steps:
        w = mu**step.n * w0
        assert step.x == (xi - w * other) / (1 - w), step.n
        for place in (REAL, Place(2), Place(3), Place(5), Place(7)):
            w_norm = oracle.norm((step.x - xi) / (step.x - other), place.p)
            assert w_norm == oracle.norm(mu, place.p) ** step.n * oracle.norm(w0, place.p)
    if record.terminated_by is Termination.POLE_HIT:
        assert mu ** len(record.steps) * w0 == 1


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@CONJUGATE_ORBITS
def test_verdicts_obey_the_normal_form_law(lam, xi, other, x0, v, max_steps, bit_guard):
    m, record = _conjugate_orbit(lam, xi, other, x0, v, max_steps, bit_guard)
    kind = detect_behavior(record, m).kind
    mu = oracle.multiplier(m.coefficients(), xi)
    oracle.check_normal_form_law(kind, x0, xi, other, mu, v.p)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    lam=MULTIPLIERS,
    xi=SMALL_RATIONALS,
    other=SMALL_RATIONALS,
    v=st.sampled_from((REAL, Place(2), Place(3), Place(5))),
    height=st.integers(0, 3),
    max_steps=st.integers(0, 60),
)
def test_sweep_verdicts_obey_the_normal_form_law(lam, xi, other, v, height, max_steps):
    # the maps of CONJUGATE_ORBITS, each swept through `basin_sample`
    m = _conjugate_map(lam, xi, other)
    mu = oracle.multiplier(m.coefficients(), xi)
    for point in basin_sample(m, xi, v, height, max_steps, 10**6):
        oracle.check_normal_form_law(point.verdict.kind, point.x0, xi, other, mu, v.p)


def test_the_named_sweeps_obey_the_normal_form_law_in_every_kind():
    kinds = set()
    for xi, other in ((Fraction(0), Fraction(-3, 2)), (Fraction(-3, 2), Fraction(0))):
        mu = oracle.multiplier(CASE_A_MAP.coefficients(), xi)
        for v in (REAL, Place(2), Place(3), Place(5)):
            for point in basin_sample(CASE_A_MAP, xi, v, 4, max_steps=200):
                kind = point.verdict.kind
                oracle.check_normal_form_law(kind, point.x0, xi, other, mu, v.p)
                kinds.add(kind)
    assert kinds == set(VerdictKind)


def test_short_orbit_verdict_is_the_same_in_a_basin_sweep():
    # f(-8/5) = -2 is the pole, so the orbit of -8/5 stops after one step
    x0 = Fraction(-8, 5)
    record = iterate_at_place(CASE_A_MAP, x0, 0, REAL, max_steps=20)
    assert record.terminated_by is Termination.POLE_HIT
    alone = detect_behavior(record, CASE_A_MAP)
    assert alone.kind is VerdictKind.UNDETERMINED
    assert alone.evidence.start_inside_radius is True
    (swept,) = [
        point
        for point in basin_sample(CASE_A_MAP, 0, REAL, 8, max_steps=20)
        if point.x0 == x0
    ]
    assert swept.steps_used == 1
    assert swept.verdict.to_dict() == alone.to_dict()


def test_local_multiplier_radius_examples():
    assert local_multiplier_radius(CASE_A_MAP, 0, 2) == Fraction(1, 2)
    assert local_multiplier_radius(CASE_A_MAP, 0, 3) == 1
    assert local_multiplier_radius(CASE_A_MAP, 0, 5) == 1
    with pytest.raises(CIsZero):
        local_multiplier_radius(MoebiusMap(2, 1, 0, 1), 0, 3)
    with pytest.raises(PoleInput, match="-2 is the pole"):
        local_multiplier_radius(CASE_A_MAP, -2, 3)
    # the map fixes only -3/2 and 0
    with pytest.raises(NotAFixedPoint, match="5 is not fixed by the map"):
        local_multiplier_radius(CASE_A_MAP, 5, 3)


def test_linearization_law():
    rng = random.Random(113)
    for _ in range(10):
        m = rand_square_disc_map(rng, height=12)
        xi = oracle.fixed_points(m.coefficients())[-1]
        p = rng.choice((2, 3, 5, 7))
        rho = local_multiplier_radius(m, xi, p)
        multiplier_norm = oracle.norm(oracle.multiplier(m.coefficients(), xi), p)
        # strictly inside the radius: xi + p^k u with u p-integral, p^-k < rho
        k = 1
        while Fraction(p) ** -k >= rho:
            k += 1
        for _ in range(100):
            num = rng.choice((1, -1)) * rng.randint(1, 400)
            den = rng.randint(1, 400)
            if den % p == 0:
                den += 1
            offset = Fraction(p) ** (k + rng.randint(0, 3)) * Fraction(num, den)
            x = xi + offset
            assert oracle.norm(x - xi, p) < rho
            lhs = oracle.norm(m.apply(x) - xi, p)
            assert lhs == multiplier_norm * oracle.norm(x - xi, p)


def test_siegel_max_radius_examples():
    assert siegel_max_radius(CASE_A_MAP, 0, 3) == 1
    assert siegel_max_radius(CASE_C_MAP, -1, 5) == 1
    with pytest.raises(NotIndifferent):
        siegel_max_radius(CASE_A_MAP, 0, 2)


def test_siegel_max_radius_checks_the_multiplier_before_c():
    doubling = MoebiusMap(2, 0, 0, 1)
    with pytest.raises(NotIndifferent, match=r"^\|f'\(0\)\|_2 = 1/2, not 1$"):
        siegel_max_radius(doubling, 0, 2)
    with pytest.raises(CIsZero):
        siegel_max_radius(doubling, 0, 3)


def test_siegel_spheres_are_invariant():
    rho = siegel_max_radius(CASE_A_MAP, 0, 3)
    for x0 in (3, Fraction(3, 2), 9, Fraction(9, 4), 6):
        start = oracle.norm(x0, 3)
        assert start < rho
        record = iterate_at_place(CASE_A_MAP, x0, 0, Place(3), max_steps=50)
        assert set(record.distances()) == {start}


def test_basin_real_sample():
    points = basin_sample(CASE_A_MAP, 0, REAL, height=3, max_steps=200)
    assert len(points) == 14  # pole -2 skipped
    xs = [p.x0 for p in points]
    assert xs == sorted(set(xs), key=lambda r: (r.denominator, r.numerator))
    by_x0 = {p.x0: p for p in points}
    # the other fixed point sits on an exactly invariant sphere around 0
    assert by_x0[Fraction(-3, 2)].verdict.kind is VerdictKind.SPHERE_INVARIANT
    for p in points:
        if p.x0 == Fraction(-3, 2):
            continue
        assert p.verdict.kind is VerdictKind.CONVERGES


def test_basin_padic_sample():
    points = basin_sample(CASE_A_MAP, 0, Place(2), height=2, max_steps=60)
    verdicts = {p.x0: p.verdict.kind for p in points}
    assert verdicts == {
        Fraction(-1): VerdictKind.UNDETERMINED,
        Fraction(0): VerdictKind.CONVERGES,
        Fraction(1): VerdictKind.UNDETERMINED,
        Fraction(2): VerdictKind.UNDETERMINED,
        Fraction(-1, 2): VerdictKind.SPHERE_INVARIANT,
        Fraction(1, 2): VerdictKind.SPHERE_INVARIANT,
    }


def test_a_padic_sweep_takes_the_multiplier_once(monkeypatch):
    # the orbit kernel's step exponents and the sweep's verdicts read one
    # |f'(xi)|_v
    calls = collections.Counter()
    derivative_at = counted(calls, "derivative_at", MoebiusMap.derivative_at)
    monkeypatch.setattr(MoebiusMap, "derivative_at", derivative_at)
    points = basin_sample(CASE_A_MAP, 0, Place(2), height=2, max_steps=60)
    assert len(points) == 6
    assert calls == {"derivative_at": 1}


def test_basin_height_zero_is_empty():
    assert basin_sample(CASE_A_MAP, 0, REAL, height=0) == []


def test_a_sweep_checks_xi_even_without_starts():
    # the map fixes only -3/2 and 0
    with pytest.raises(NotAFixedPoint, match="5 is not fixed by the map"):
        basin_sample(CASE_A_MAP, 5, REAL, height=0)


def one_shot_sweep(m, xi, v, height, max_steps, bit_guard):
    """basin_sample's points written out as one `iterate_at_place` and one
    `detect_behavior` per start, with the terminations and verdict kinds
    seen."""
    points, seen = [], set()
    for den in range(1, height + 1):
        for num in range(-height, height + 1):
            x0 = Fraction(num, den)
            if math.gcd(num, den) != 1 or x0 == m.pole:
                continue
            record = iterate_at_place(m, x0, xi, v, max_steps, bit_guard)
            verdict = detect_behavior(record, m)
            seen.update((record.terminated_by, verdict.kind))
            points.append(BasinPoint(x0, verdict, len(record.steps) - 1).to_dict())
    return points, seen


def check_sweep_is_its_one_shot_orbits(m, xi, v, height, max_steps, bit_guard):
    """Compare the sweep with `one_shot_sweep`; a start past the bit guard
    must raise the same error from both.  Returns the terminations and
    verdict kinds seen, or the raised error's message."""
    try:
        expected, seen = one_shot_sweep(m, xi, v, height, max_steps, bit_guard)
    except ResourceLimitError as exc:
        with pytest.raises(ResourceLimitError) as raised:
            basin_sample(m, xi, v, height, max_steps, bit_guard)
        assert str(raised.value) == str(exc)
        return str(exc)
    swept = basin_sample(m, xi, v, height, max_steps, bit_guard)
    assert [point.to_dict() for point in swept] == expected
    return seen


NONZERO_RATIONALS = SMALL_RATIONALS.filter(lambda r: r != 0)
# det-1 maps of cases A and B, each with one of its fixed points
CASE_AB_STARTS = st.one_of(
    st.builds(case_a_map, NONZERO_RATIONALS, NONZERO_RATIONALS),
    st.builds(case_b_map, NONZERO_RATIONALS.filter(lambda t: t not in (1, -1))),
).flatmap(
    lambda m: st.tuples(st.just(m), st.sampled_from(oracle.fixed_points(m.coefficients())))
)
# the orbit of -8/5 hits the pole -2 at step 1
POLE_HIT_SWEEP = ((CASE_A_MAP, Fraction(0)), REAL, 8, 20, 10**6)
SHORT_SWEEP = ((CASE_A_MAP, Fraction(0)), Place(2), 3, WINDOW - 1, 10**6)
# x0 = 3 is at distance 9/2 from -3/2, past a 3-bit guard, after six starts
# whose orbits trip the guard later
GUARDED_SWEEP = ((CASE_A_MAP, Fraction(-3, 2)), REAL, 3, 40, 3)
# the basin_real_repelling golden's sweep, and a 3-adic sphere sweep: each
# meets the converged, sphere-invariant and undetermined verdicts
REAL_SWEEP = ((CASE_A_MAP, Fraction(-3, 2)), REAL, 3, 200, DEFAULT_BIT_GUARD)
SPHERE_SWEEP = ((CASE_A_MAP, Fraction(0)), Place(3), 3, 48, DEFAULT_BIT_GUARD)
# holds ATTRACTING_GROWTH's start 1/3, whose orbit must not escape here either
ATTRACTING_SWEEP = ((ATTRACTING_GROWTH[0], Fraction(-7, 2)), REAL, 3, 17, DEFAULT_BIT_GUARD)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    start=CASE_AB_STARTS,
    v=st.sampled_from((REAL, Place(2), Place(3), Place(5))),
    height=st.integers(0, 4),
    max_steps=st.integers(0, 40),
    bit_guard=st.sampled_from((3, 6, 12, 24, 10**6)),
)
@example(*POLE_HIT_SWEEP)
@example(*SHORT_SWEEP)
@example(*GUARDED_SWEEP)
@example(*REAL_SWEEP)
@example(*SPHERE_SWEEP)
@example(*ATTRACTING_SWEEP)
def test_a_sweep_is_its_one_shot_orbits(start, v, height, max_steps, bit_guard):
    m, xi = start
    check_sweep_is_its_one_shot_orbits(m, xi, v, height, max_steps, bit_guard)


def test_the_sweep_examples_reach_what_they_are_for():
    (m, xi), v, height, max_steps, bit_guard = POLE_HIT_SWEEP
    seen = check_sweep_is_its_one_shot_orbits(m, xi, v, height, max_steps, bit_guard)
    assert Termination.POLE_HIT in seen
    kinds = {VerdictKind.CONVERGES, VerdictKind.SPHERE_INVARIANT, VerdictKind.UNDETERMINED}
    for (m, xi), v, height, max_steps, bit_guard in (REAL_SWEEP, SPHERE_SWEEP):
        seen = check_sweep_is_its_one_shot_orbits(m, xi, v, height, max_steps, bit_guard)
        assert kinds <= seen
    (m, xi), v, height, max_steps, bit_guard = SHORT_SWEEP
    points = basin_sample(m, xi, v, height, max_steps, bit_guard)
    assert {point.verdict.evidence.window for point in points} == {0, WINDOW - 1}
    (m, xi), v, height, max_steps, bit_guard = GUARDED_SWEEP
    error = check_sweep_is_its_one_shot_orbits(m, xi, v, height, max_steps, bit_guard)
    assert error.startswith("the orbit starts with a 4-bit numerator")
    seen = check_sweep_is_its_one_shot_orbits(m, xi, v, 2, max_steps, bit_guard)
    assert Termination.OVERFLOW_GUARD in seen


#: Maps with one fixed point xi, from the constructors of cases C-F: w =
#: 1/(x - xi) conjugates each to w -> w + t, t = c/(c xi + d).
FUSED_MAPS = st.one_of(
    st.builds(case_c_map, st.sampled_from((1, -1)), NONZERO_RATIONALS),
    st.builds(case_d_map, st.sampled_from((1, -1)), NONZERO_RATIONALS),
    st.builds(case_e_map, SMALL_RATIONALS, NONZERO_RATIONALS),
    st.builds(case_f_map, SMALL_RATIONALS, NONZERO_RATIONALS),
)
FUSED_PLACES = (REAL, Place(2), Place(3), Place(5), Place(7))


def _fused_point_and_shift(m):
    (xi,) = oracle.fixed_points(m.coefficients())
    return xi, m.c / (m.c * xi + m.d)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    m=FUSED_MAPS,
    x0=SMALL_RATIONALS,
    v=st.sampled_from(FUSED_PLACES),
    max_steps=st.integers(0, 200),
    bit_guard=st.sampled_from((30, 10**6)),
)
@example(FUSED_GROWTH[0], FUSED_GROWTH[1], REAL, FUSED_GROWTH[3], DEFAULT_BIT_GUARD)
# t = 2 and w_0 = -6 for -1 - 1/6 = -7/6, so w_3 = 0: x_2 is the pole
@example(case_c_map(1, 2), Fraction(-7, 6), Place(3), 10, DEFAULT_BIT_GUARD)
def test_every_fused_orbit_point_is_the_closed_form(m, x0, v, max_steps, bit_guard):
    xi, t = _fused_point_and_shift(m)
    record = iterate_at_place(m, x0, xi, v, max_steps, bit_guard)
    kind = detect_behavior(record, m).kind
    oracle.check_fused_point_law(kind, x0, xi, t, v.p, enumerate(record.distances()))
    if x0 == xi:
        return
    w0 = 1 / (x0 - xi)
    for step in record.steps:
        assert step.x == xi + 1 / (w0 + step.n * t), step.n
    if record.terminated_by is not Termination.MAX_STEPS:
        pole_next = w0 + len(record.steps) * t == 0
        assert pole_next == (record.terminated_by is Termination.POLE_HIT)


def check_fused_sweep(m, v, height, max_steps):
    """Check each point of a sweep around a fused xi by its last distance;
    with no bit guard, an orbit that stops short of `max_steps` unconverged
    hit the pole, where w is 0.  Returns the verdict kinds seen."""
    xi, t = _fused_point_and_shift(m)
    kinds = set()
    for point in basin_sample(m, xi, v, height, max_steps, 10**6):
        x0, kind, n = point.x0, point.verdict.kind, point.steps_used
        final_dist = point.verdict.evidence.final_dist
        oracle.check_fused_point_law(kind, x0, xi, t, v.p, [(n, final_dist)])
        if n < max_steps and kind is not VerdictKind.CONVERGES:
            assert 1 / (x0 - xi) + (n + 1) * t == 0
        kinds.add(kind)
    return kinds


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    m=FUSED_MAPS,
    v=st.sampled_from(FUSED_PLACES),
    height=st.integers(0, 3),
    max_steps=st.integers(0, 60),
)
def test_fused_sweeps_obey_the_fused_point_law(m, v, height, max_steps):
    check_fused_sweep(m, v, height, max_steps)


def test_the_named_fused_sweeps_obey_the_fused_point_law():
    maps = (case_c_map(1, 2), case_d_map(-1, 3), case_e_map(2, 1), case_f_map(Fraction(1, 2), -3))
    kinds = set()
    for m in maps:
        for v in FUSED_PLACES:
            kinds |= check_fused_sweep(m, v, 4, 200)
    assert kinds == {VerdictKind.CONVERGES, VerdictKind.SPHERE_INVARIANT, VerdictKind.UNDETERMINED}


def test_real_distances_are_canonical_on_both_branches():
    # xi = 0 has den 1, coprime to every den; the orbits towards 0 from
    # even dens keep even dens, which share 2 with -3/2's den
    branches = set()
    for xi, x0 in ((0, Fraction(1, 3)), (0, 5), (Fraction(-3, 2), Fraction(1, 4))):
        record = iterate_at_place(CASE_A_MAP, x0, xi, REAL, max_steps=30)
        assert len(record.steps) > 10
        for step in record.steps:
            expected = abs(step.x - xi)
            assert (step.dist.numerator, step.dist.denominator) == (
                expected.numerator,
                expected.denominator,
            )
            branches.add(math.gcd(step.x.denominator, Fraction(xi).denominator))
    assert branches == {1, 2}


@pytest.mark.parametrize("xi", [Fraction(0), Fraction(-3, 2)])
@pytest.mark.parametrize("v", [REAL, Place(2), Place(3)])
def test_the_distance_at_xi_is_zero_over_one(xi, v):
    (step,) = iterate_at_place(CASE_A_MAP, xi, xi, v).steps
    assert type(step.dist) is Fraction
    assert (step.dist.numerator, step.dist.denominator) == (0, 1)


def test_constant_run_compares_equal_distances_that_are_distinct_objects():
    # a real sphere orbit's distances are built one per step: equal, never
    # the same object
    dists = [Fraction(7, 3), *(Fraction(1, 3) for _ in range(20))]
    assert len({id(dist) for dist in dists}) == len(dists)
    steps = tuple(Step(n, Fraction(n), dist) for n, dist in enumerate(dists))
    record = TrajectoryRecord(REAL, Fraction(0), steps, Termination.MAX_STEPS)
    verdict = detect_behavior(record, CASE_A_MAP)
    assert verdict.evidence.constant_run == 20
    coeffs, dists = CASE_A_MAP.coefficients(), record.distances()
    assert verdict == oracle.verdict(coeffs, Fraction(0), None, dists, "max_steps")
    whole = TrajectoryRecord(REAL, Fraction(0), steps[1:], Termination.MAX_STEPS)
    assert detect_behavior(whole, CASE_A_MAP).kind is VerdictKind.SPHERE_INVARIANT


def test_admissible_bound_examples():
    q, primes = admissible_bound(CASE_A_MAP, 1)
    assert (q, primes) == (3, (2, 3))  # f(1) = 1/6
    q, primes = admissible_bound(CASE_A_MAP, 0)
    assert (q, primes) == (1, ())
    q, primes = admissible_bound(CASE_A_MAP, Fraction(1, 5))
    assert 5 in primes
    assert (q, primes) == (11, (2, 5, 11))  # f(1/5) = 1/22


def test_admissible_bound_guarantee():
    rng = random.Random(127)
    for _ in range(50):
        m = rand_square_disc_map(rng, height=15)
        if m.d == 0:
            continue
        x0 = rand_rational(rng, 25)
        if m.c * x0 + m.d == 0:
            continue
        q, primes = admissible_bound(m, x0)
        image = m.apply(x0)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
            if p > q:
                assert oracle.norm(x0, p) <= 1
                assert oracle.norm(image, p) <= 1


def test_admissible_bound_preconditions():
    with pytest.raises(CIsZero):
        admissible_bound(MoebiusMap(1, 1, 0, 1), 0)
    with pytest.raises(ZeroInput):
        admissible_bound(MoebiusMap(1, 1, 1, 0), 1)


def test_principal_adele_and_step():
    point = principal_adele(1)
    assert point.listed_primes() == ()
    stepped = step_adele(CASE_A_MAP, point)
    assert stepped.real == Fraction(1, 6)
    assert stepped.elsewhere == Fraction(1, 6)
    assert stepped.listed_primes() == (2, 3)
    assert all(x == Fraction(1, 6) for x in stepped.finite.values())
    for v in (REAL, Place(2), Place(5)):
        assert stepped.component(v) == Fraction(1, 6)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    coefficients=st.tuples(*[SMALL_RATIONALS] * 4),
    r=st.builds(Fraction, st.integers(-10**4, 10**4), st.integers(1, 10**4)),
)
def test_step_adele_of_a_principal_adele_is_principal(coefficients, r):
    a, b, c, d = coefficients
    assume(a * d - b * c != 0 and c * r + d != 0)
    m = MoebiusMap(a, b, c, d)
    point = principal_adele(r)
    stepped, image = step_adele(m, point), principal_adele(m.apply(r))
    assert set(stepped.listed_primes()) >= set(point.listed_primes())
    listed = set(stepped.listed_primes()) | set(image.listed_primes())
    for v in (REAL, *map(Place, sorted(listed))):
        assert stepped.component(v) == image.component(v) == m.apply(r)


def test_step_adele_fixed_point_is_unchanged():
    point = principal_adele(0)
    assert step_adele(CASE_A_MAP, point) == point


def test_step_adele_pole_at_listed_place():
    point = AdelePoint(real=1, finite={2: Fraction(-2)}, elsewhere=1)
    with pytest.raises(PoleAtPlace) as info:
        step_adele(CASE_A_MAP, point)
    assert info.value.place == Place(2)


def test_step_adele_pole_at_the_real_and_at_every_unlisted_place():
    with pytest.raises(PoleAtPlace) as info:
        step_adele(CASE_A_MAP, AdelePoint(real=-2, finite={}, elsewhere=1))
    assert info.value.place == REAL
    with pytest.raises(PoleAtPlace, match="every unlisted place") as info:
        step_adele(CASE_A_MAP, AdelePoint(real=1, finite={}, elsewhere=-2))
    assert info.value.place is None


def test_adele_tail_must_be_integral():
    with pytest.raises(NonIntegralTail):
        AdelePoint(real=1, finite={}, elsewhere=Fraction(1, 2))
    # listing the offending prime fixes it
    AdelePoint(real=1, finite={2: Fraction(1, 2)}, elsewhere=Fraction(1, 2))


def test_adele_tail_check_needs_no_factoring():
    # 1000036000099 = 1000003 * 1000033, both primes above the default
    # trial-division bound, and the product above its square
    r = Fraction(1, 1000036000099)
    point = AdelePoint(real=r, finite={1000003: r, 1000033: r}, elsewhere=r)
    assert point.listed_primes() == (1000003, 1000033)
    with pytest.raises(NonIntegralTail):
        AdelePoint(real=r, finite={1000003: r}, elsewhere=r)
    with pytest.raises(NonIntegralTail):
        AdelePoint(real=r, finite={}, elsewhere=r)


def test_step_adele_keeps_restriction():
    rng = random.Random(131)
    for _ in range(40):
        m = rand_square_disc_map(rng, height=9)
        r = rand_rational(rng, 9)
        if m.c * r + m.d == 0:
            continue
        point = principal_adele(r)
        for _ in range(3):
            try:
                point = step_adele(m, point)
            except PoleAtPlace:
                break
            # the constructor re-checks the invariant on a rebuilt copy;
            # dropping every listed prime breaks it unless the tail is integral
            assert AdelePoint(point.real, point.finite, point.elsewhere) == point
            if point.elsewhere.denominator != 1:
                with pytest.raises(NonIntegralTail):
                    AdelePoint(point.real, {}, point.elsewhere)
            # also spot-check components
            for p in point.listed_primes():
                assert point.component(Place(p)) == point.finite[p]
            assert point.component(Place(101)) == point.elsewhere


def test_a_step_applies_the_map_once_per_distinct_component(monkeypatch):
    applied, proved = [], []
    apply = MoebiusMap.apply
    monkeypatch.setattr(MoebiusMap, "apply", lambda m, x: applied.append(x) or apply(m, x))
    monkeypatch.setattr(padic, "is_prime", lambda n: proved.append(n) or is_prime(n))
    # a principal adele keeps one component value, so one application a step
    point = principal_adele(Fraction(1, 3))
    for n in range(1, 13):
        point = step_adele(CASE_A_MAP, point)
        assert len(applied) == n
    assert len(point.listed_primes()) > 1
    # the listed primes are proven by `factorize`, never again by `Place`
    assert proved == []
    # three distinct values among five components, equal ones in separate
    # objects (the public constructor copies each), cost three applications
    applied.clear()
    half = Fraction(1, 2)
    point = AdelePoint(real=1, finite={2: half, 3: 1, 5: half, 7: 3}, elsewhere=1)
    stepped = step_adele(CASE_A_MAP, point)
    assert sorted(applied) == [half, 1, 3]
    for v in (REAL, Place(2), Place(3), Place(5), Place(7), Place(11)):
        assert stepped.component(v) == apply(CASE_A_MAP, point.component(v))


LISTABLE_PRIMES = (2, 3, 5, 7, 11)


@st.composite
def adeles_under_a_map(draw):
    """(m, x) for a non-principal adele x: 2-4 listed primes sharing a pool
    of at most three values, which often holds m's pole, and a tail
    integral off the listed primes that is sometimes one of those values."""
    a, b, c, d = draw(st.tuples(*[SMALL_RATIONALS] * 4))
    assume(a * d - b * c != 0)
    m = MoebiusMap(a, b, c, d)
    primes = draw(st.lists(st.sampled_from(LISTABLE_PRIMES), min_size=2, max_size=4, unique=True))
    tails = st.builds(
        lambda num, exponents: Fraction(num, math.prod(map(pow, primes, exponents))),
        st.integers(-30, 30),
        st.tuples(*[st.integers(0, 2)] * len(primes)),
    )
    pool = draw(st.lists(SMALL_RATIONALS | tails, min_size=1, max_size=3))
    if m.pole is not None and draw(st.booleans()):
        pool.append(m.pole)
    finite = {p: draw(st.sampled_from(pool)) for p in primes}
    real = draw(st.sampled_from(pool) | SMALL_RATIONALS)
    def integral_off_primes(v):
        den, listed = v.denominator, math.prod(primes)
        while (g := math.gcd(den, listed)) > 1:
            den //= g
        return den == 1

    integral = [v for v in pool if integral_off_primes(v)]
    elsewhere = draw(st.sampled_from(integral) | tails if integral else tails)
    return m, AdelePoint(real, finite, elsewhere)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=adeles_under_a_map())
@example(  # two listed primes hold the pole -2; the smaller one is named
    case=(CASE_A_MAP, AdelePoint(1, {7: -2, 3: -2, 5: 1}, Fraction(1, 3)))
)
def test_a_step_is_componentwise_and_checked(case):
    m, x = case
    pole = m.pole
    held = [p for p in x.listed_primes() if x.finite[p] == pole]
    if pole is not None and (x.real == pole or held or x.elsewhere == pole):
        with pytest.raises(PoleAtPlace) as info:
            step_adele(m, x)
        if x.real == pole:
            assert info.value.place == REAL
        elif held:
            assert info.value.place == Place(min(held))
        else:
            assert info.value.place is None
        return
    y = step_adele(m, x)
    # the unchecked result is what the public constructor builds from it
    assert y == AdelePoint(y.real, dict(y.finite), y.elsewhere)
    assert set(y.listed_primes()) >= set(x.listed_primes())
    unlisted = next(p for p in (13, 17, 19, 23) if p not in y.finite)
    for v in (REAL, *map(Place, y.listed_primes()), Place(unlisted)):
        assert y.component(v) == m.apply(x.component(v))


def test_product_norm_examples():
    assert product_norm(6) == 1
    assert product_norm(Fraction(-10, 21)) == 1
    assert product_norm(1) == 1
    with pytest.raises(ZeroInput):
        product_norm(0)


def test_product_formula_breakdown():
    report = verify_product_formula(Fraction(-3, 2))
    assert report.holds
    assert report.factors == (
        (REAL, Fraction(3, 2)),
        (Place(2), Fraction(2)),
        (Place(3), Fraction(1, 3)),
    )
    trivial = verify_product_formula(1)
    assert trivial.factors == ((REAL, Fraction(1)),)
    assert trivial.product == 1
    assert type(report)._fields == ("r", "factors")
