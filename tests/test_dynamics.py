"""Exact orbits, behavior verdicts, Siegel disks, adeles, product formula."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adelicdyn import dynamics
from adelicdyn.dynamics import (
    DEFAULT_BIT_GUARD,
    AdelePoint,
    BehaviorEvidence,
    BehaviorVerdict,
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
from adelicdyn.exact import coprime_fraction, int_digit_limit
from adelicdyn.moebius import MoebiusMap, fixed_points
from adelicdyn.padic import Place, REAL, padic_norm, place_norm
from helpers import rand_rational, rand_square_disc_map

CASE_A_MAP = MoebiusMap(Fraction(1, 2), 0, 1, 2)
CASE_C_MAP = MoebiusMap(3, 2, -2, -1)
SMALL_RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


def recurrence_oracle(m, x0, n):
    orbit = [Fraction(x0)]
    for _ in range(n):
        x = orbit[-1]
        orbit.append((m.a * x + m.b) / (m.c * x + m.d))
    return orbit


def test_real_orbit_example():
    record = iterate_at_place(CASE_A_MAP, 1, 0, REAL, max_steps=3)
    expected = recurrence_oracle(CASE_A_MAP, 1, 3)
    assert expected == [1, Fraction(1, 6), Fraction(1, 26), Fraction(1, 106)]
    assert [s.x for s in record.steps] == expected
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


def _bits(r):
    return max(r.numerator.bit_length(), r.denominator.bit_length())


def test_default_bit_guard_keeps_distances_printable():
    # xi = 1/3^2000 has a 3170-bit denominator, which |x - xi| carries on
    # top of x's: here the guard must stop on the distance, not on x
    xi, other, lam = Fraction(1, 3**2000), Fraction(1), Fraction(1, 2**20)
    m = MoebiusMap(lam * xi - other, (1 - lam) * xi * other, lam - 1, xi - lam * other)
    record = iterate_at_place(m, 2, xi, REAL, max_steps=10**5)
    assert record.terminated_by is Termination.OVERFLOW_GUARD
    for step in record.steps:
        str(step.x), str(step.dist)  # ValueError past the digit limit
    next_x = m.apply(record.steps[-1].x)
    assert _bits(next_x) <= DEFAULT_BIT_GUARD < _bits(next_x - xi)


def test_a_start_past_the_bit_guard_is_a_resource_error():
    # a part exactly bit_guard bits long passes; one bit more raises, and
    # the message names the guard and the size
    x0 = Fraction(2**20 - 1)
    assert len(iterate_at_place(CASE_A_MAP, x0, 0, REAL, 0, bit_guard=20).steps) == 1
    with pytest.raises(ResourceLimitError, match=r"20-bit .* 19 bits"):
        iterate_at_place(CASE_A_MAP, x0, 0, REAL, 0, bit_guard=19)
    # x0 = 2 fits, but its distance to xi = 1/3^2000 carries xi's 3170 bits
    xi, other, lam = Fraction(1, 3**2000), Fraction(1), Fraction(2)
    m = MoebiusMap(lam * xi - other, (1 - lam) * xi * other, lam - 1, xi - lam * other)
    size = _bits(2 - xi)
    assert _bits(Fraction(2)) < 100 < size
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
        xi = fixed_points(m).points[0]
        x0 = rand_rational(rng, 10)
        record = iterate_at_place(m, x0, xi, REAL, max_steps=12)
        for step in record.steps:
            assert m.power(step.n).apply(x0) == step.x


def definition_norm(r, v):
    """|r|_v from the definitions: |r| at the real place, p^-nu at p."""
    if v.is_real:
        return abs(r)
    if r == 0:
        return Fraction(0)
    nu, num, den = 0, r.numerator, r.denominator
    while num % v.p == 0:
        num //= v.p
        nu += 1
    while den % v.p == 0:
        den //= v.p
        nu -= 1
    return Fraction(1, v.p**nu) if nu >= 0 else Fraction(v.p**-nu)


def reference_orbit(m, x0, xi, v, max_steps, bit_guard, threshold, window):
    """The orbit loop written out from (ax + b)/(cx + d) in Fractions."""
    a, b, c, d = m.coefficients()
    x, xi = Fraction(x0), Fraction(xi)
    steps = [Step(0, x, definition_norm(x - xi, v))]
    if max(_bits(x), _bits(steps[0].dist)) > bit_guard:
        raise ResourceLimitError("the start passes the bit guard")

    def record(stop):
        return TrajectoryRecord(v, xi, tuple(steps), stop)

    if x == xi:
        return record(Termination.CONVERGED)
    run = 0
    for n in range(1, max_steps + 1):
        if c * x + d == 0:
            return record(Termination.POLE_HIT)
        x = (a * x + b) / (c * x + d)
        if max(x.numerator.bit_length(), x.denominator.bit_length()) > bit_guard:
            return record(Termination.OVERFLOW_GUARD)
        dist = definition_norm(x - xi, v)
        if max(dist.numerator.bit_length(), dist.denominator.bit_length()) > bit_guard:
            return record(Termination.OVERFLOW_GUARD)
        run = run + 1 if dist < steps[-1].dist else 0
        steps.append(Step(n, x, dist))
        if x == xi or (dist < threshold and run >= window):
            return record(Termination.CONVERGED)
    return record(Termination.MAX_STEPS)


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
        xi = rng.choice(fixed_points(unit).points)
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
    seen = set()
    for trial in range(200):
        m, xi, v, x0 = random_orbit_start(rng, trial)
        max_steps = rng.choice((0, 1, 12, 40))
        bit_guard = rng.choice((rng.randint(4, 64), 10**6))
        threshold = rng.choice((Fraction(1, 2**40), Fraction(1, 2**6), Fraction(1)))
        window = rng.choice((1, 3, 16))
        monkeypatch.setattr(dynamics, "WINDOW", window)
        monkeypatch.setattr(dynamics, "CONVERGENCE_THRESHOLD", threshold)
        try:
            expected = reference_orbit(
                m, x0, xi, v, max_steps, bit_guard, threshold, window
            )
        except ResourceLimitError:
            with pytest.raises(ResourceLimitError):
                iterate_at_place(m, x0, xi, v, max_steps, bit_guard)
            continue
        record = iterate_at_place(m, x0, xi, v, max_steps, bit_guard)
        assert record == expected
        assert all(
            type(s.x) is Fraction and type(s.dist) is Fraction for s in record.steps
        )
        seen.add((record.terminated_by, len(record.steps) > 1))
    # every way to stop, and both pole hits and convergence at x0 and later
    assert {stop for stop, _ in seen} == set(Termination)
    for stop in (Termination.POLE_HIT, Termination.CONVERGED):
        assert {(stop, False), (stop, True)} <= seen


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


def _canonical(r):
    return r.denominator > 0 and math.gcd(r.numerator, r.denominator) == 1


def test_long_sphere_orbits_match_the_fraction_reference():
    # the kernel reduces each step by a gcd against the integer matrix's
    # det; tally, from the recorded orbits, the steps where the new pair
    # has a common factor, where det shares more with the new numerator
    # than the new denominator does, and where the new denominator is
    # negative, so each part of the reduction is seen to be exercised
    reduced = det_shares_more = negative = 0
    for m, xi, p, x0 in LONG_SPHERE_ORBITS:
        record = iterate_at_place(m, x0, xi, Place(p), max_steps=1000)
        expected = reference_orbit(
            m, x0, xi, Place(p), 1000, DEFAULT_BIT_GUARD, Fraction(1, 2**40), 16
        )
        assert record == expected
        assert record.terminated_by is Termination.MAX_STEPS
        assert record.distances() == [padic_norm(x0 - xi, p)] * 1001
        assert _bits(record.steps[-1].x) >= 2000
        assert all(_canonical(s.x) and _canonical(s.dist) for s in record.steps)
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


def reference_verdict(t, m, window=16, threshold=Fraction(1, 2**40)):
    """The verdict rules with two tests the library drops as redundant: a
    second convergence test on the finished distances, and sphere
    invariance as "one distinct distance"."""
    dists = t.distances()
    rho = None
    if m.c != 0:
        rho = place_norm(m.c * t.xi + m.d, t.place) / place_norm(m.c, t.place)
    inside = None if rho is None else dists[0] < rho
    used = min(window, len(dists) - 1)
    tail = dists[-(used + 1) :]
    run = 1
    for i in range(len(dists) - 1, 0, -1):
        if dists[i - 1] != dists[i]:
            break
        run += 1
    evidence = BehaviorEvidence(
        window=used,
        strictly_decreasing=len(tail) > 1
        and all(b < a for a, b in zip(tail, tail[1:])),
        strictly_increasing=len(tail) > 1
        and all(b > a for a, b in zip(tail, tail[1:])),
        constant_run=run,
        final_dist=dists[-1],
        start_inside_radius=inside,
    )
    if t.terminated_by is Termination.CONVERGED:
        return BehaviorVerdict(VerdictKind.CONVERGES, evidence)
    if used < window:
        return BehaviorVerdict(VerdictKind.UNDETERMINED, evidence)
    if len(set(dists)) == 1:
        return BehaviorVerdict(VerdictKind.SPHERE_INVARIANT, evidence)
    if evidence.strictly_decreasing and dists[-1] < threshold:
        return BehaviorVerdict(VerdictKind.CONVERGES, evidence)
    if evidence.strictly_increasing and inside:
        return BehaviorVerdict(VerdictKind.ESCAPES, evidence)
    return BehaviorVerdict(VerdictKind.UNDETERMINED, evidence)


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
        try:
            reference_orbit(m, x0, xi, v, 0, bit_guard, Fraction(1, 2**40), 16)
        except ResourceLimitError:
            with pytest.raises(ResourceLimitError):
                iterate_at_place(m, x0, xi, v, max_steps, bit_guard)
            continue
        record = iterate_at_place(m, x0, xi, v, max_steps, bit_guard)
        verdict = detect_behavior(record, m)
        assert verdict == reference_verdict(record, m)
        kinds.add(verdict.kind)
        stops.add(record.terminated_by)
    assert kinds == set(VerdictKind)
    assert stops == set(Termination)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    lam=SMALL_RATIONALS.filter(lambda r: r not in (0, 1)),
    xi=SMALL_RATIONALS,
    other=SMALL_RATIONALS,
    x0=SMALL_RATIONALS,
    v=st.sampled_from((REAL, Place(2), Place(3), Place(5))),
    max_steps=st.integers(0, 200),
    bit_guard=st.sampled_from((30, 10**6)),
)
def test_no_verdict_without_supporting_evidence(
    lam, xi, other, x0, v, max_steps, bit_guard
):
    # the map with fixed points xi != other, conjugate to x -> lam x
    assume(xi != other)
    m = MoebiusMap(lam * xi - other, (1 - lam) * xi * other, lam - 1, xi - lam * other)
    record = iterate_at_place(m, x0, xi, v, max_steps, bit_guard)
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


def test_linearization_law():
    rng = random.Random(113)
    for _ in range(10):
        m = rand_square_disc_map(rng, height=12)
        xi = fixed_points(m).points[-1]
        p = rng.choice((2, 3, 5, 7))
        rho = local_multiplier_radius(m, xi, p)
        multiplier_norm = padic_norm(m.derivative_at(xi), p)
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
            assert padic_norm(x - xi, p) < rho
            lhs = padic_norm(m.apply(x) - xi, p)
            assert lhs == multiplier_norm * padic_norm(x - xi, p)


def test_siegel_max_radius_examples():
    assert siegel_max_radius(CASE_A_MAP, 0, 3) == 1
    assert siegel_max_radius(CASE_C_MAP, -1, 5) == 1
    with pytest.raises(NotIndifferent):
        siegel_max_radius(CASE_A_MAP, 0, 2)


def test_siegel_spheres_are_invariant():
    rho = siegel_max_radius(CASE_A_MAP, 0, 3)
    for x0 in (3, Fraction(3, 2), 9, Fraction(9, 4), 6):
        start = place_norm(x0, Place(3))
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


def test_basin_height_zero_is_empty():
    assert basin_sample(CASE_A_MAP, 0, REAL, height=0) == []


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
                assert padic_norm(x0, p) <= 1
                assert padic_norm(image, p) <= 1


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


def test_step_adele_fixed_point_is_unchanged():
    point = principal_adele(0)
    assert step_adele(CASE_A_MAP, point) == point


def test_step_adele_pole_at_listed_place():
    point = AdelePoint(real=1, finite={2: Fraction(-2)}, elsewhere=1)
    with pytest.raises(PoleAtPlace) as info:
        step_adele(CASE_A_MAP, point)
    assert info.value.place == Place(2)


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
