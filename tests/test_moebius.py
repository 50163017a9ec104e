"""Maps, matrix calculus, fixed points, cross-ratio, integer families."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adelicdyn.errors import (
    CIsZero,
    DegeneratePoints,
    InputError,
    NonRationalFixedPoints,
    NonSquareDeterminant,
    NotAFixedPoint,
    ParseError,
    PoleInput,
    SingularMap,
)
from adelicdyn.moebius import (
    FixedPoints,
    MoebiusMap,
    cross_ratio,
    discriminant,
    fixed_points,
    modular_family,
)
from adelicdyn.exact import is_perfect_square, shown
import oracle
from helpers import (
    counted,
    is_canonical,
    rand_map,
    rand_nonzero,
    rand_rational,
    rand_square_disc_map,
)

CASE_A_MAP = MoebiusMap(Fraction(1, 2), 0, 1, 2)


def test_construction_records_det():
    assert CASE_A_MAP.det == 1


def test_construction_rejects_singular():
    with pytest.raises(SingularMap, match=r"^ad - bc = 0$"):
        MoebiusMap(1, 2, 2, 4)


def test_identity():
    m = MoebiusMap.identity()
    assert m == MoebiusMap(1, 0, 0, 1)
    assert m.apply(Fraction(5, 7)) == Fraction(5, 7)
    assert m.derivative_at(3) == 1


def test_from_string():
    assert MoebiusMap.from_string("1/2,0,1,2") == CASE_A_MAP
    with pytest.raises(ParseError):
        MoebiusMap.from_string("1,2,3")
    with pytest.raises(ParseError):
        MoebiusMap.from_string("1, 2,3,4")


def test_apply_examples():
    assert CASE_A_MAP.apply(1) == Fraction(1, 6)
    assert CASE_A_MAP.apply(0) == 0
    assert CASE_A_MAP(1) == Fraction(1, 6)
    with pytest.raises(PoleInput):
        CASE_A_MAP.apply(-2)
    assert CASE_A_MAP.pole == -2


def test_check_fixed_point():
    assert CASE_A_MAP.check_fixed_point("-3/2") == Fraction(-3, 2)
    assert type(CASE_A_MAP.check_fixed_point(0)) is Fraction
    with pytest.raises(NotAFixedPoint, match="^5 is not fixed by the map$"):
        CASE_A_MAP.check_fixed_point(5)
    with pytest.raises(PoleInput):
        CASE_A_MAP.check_fixed_point(-2)


def test_derivative_examples():
    assert CASE_A_MAP.derivative_at(0) == Fraction(1, 4)  # 1/d^2 with d = 2
    assert CASE_A_MAP.derivative_at(Fraction(-3, 2)) == 4  # d^2
    with pytest.raises(PoleInput):
        CASE_A_MAP.derivative_at(-2)


def _matrix_product(f, g):
    # independent 2x2 oracle
    return (
        f[0] * g[0] + f[1] * g[2],
        f[0] * g[1] + f[1] * g[3],
        f[2] * g[0] + f[3] * g[2],
        f[2] * g[1] + f[3] * g[3],
    )


def test_compose_matches_matrix_product():
    f = MoebiusMap(1, 1, 0, 1)
    g = MoebiusMap(1, 0, 1, 1)
    composed = f.compose(g)
    assert composed.coefficients() == _matrix_product((1, 1, 0, 1), (1, 0, 1, 1))
    assert composed == MoebiusMap(2, 1, 1, 1)


def test_compose_is_function_composition():
    rng = random.Random(59)
    for _ in range(100):
        f, g = rand_map(rng), rand_map(rng)
        x = rand_rational(rng, 50)
        try:
            expected = f.apply(g.apply(x))
        except PoleInput:
            continue
        assert f.compose(g).apply(x) == expected


def test_identity_composes_trivially():
    g = rand_map(random.Random(61))
    e = MoebiusMap.identity()
    assert e.compose(g) == g
    assert g.compose(e) == g


def test_inverse_is_adjugate():
    assert CASE_A_MAP.inverse() == MoebiusMap(2, 0, -1, Fraction(1, 2))
    assert MoebiusMap.identity().inverse() == MoebiusMap.identity()


def test_compose_with_inverse_is_scalar_identity():
    rng = random.Random(67)
    for _ in range(100):
        m = rand_map(rng)
        prod = m.compose(m.inverse())
        assert prod.b == 0 and prod.c == 0 and prod.a == prod.d
        x = rand_rational(rng, 30)
        assert prod.apply(x) == x
        if m.det == 1:
            assert m.inverse().det == 1


def test_matrix_power_against_sequential_application():
    rng = random.Random(71)
    for _ in range(60):
        m = rand_map(rng, height=9)
        x = rand_rational(rng, 9)
        n = rng.randint(0, 40)
        try:
            expected = x
            for _ in range(n):
                expected = m.apply(expected)
        except PoleInput:
            continue
        assert m.power(n).apply(x) == expected


def test_negative_power_inverts():
    m = MoebiusMap(2, 1, 1, 1)
    assert m.power(-3).compose(m.power(3)).apply(Fraction(1, 5)) == Fraction(1, 5)


def test_huge_power_stays_fast():
    # the discriminant 5 is not a square, so this covers the squaring path:
    # 2^20 costs 20 squarings, not a million products
    m = MoebiusMap(2, 1, 1, 1)
    assert is_perfect_square(discriminant(m)) is None
    big = m.power(2**20)
    assert big.det == 1
    half = m.power(2**19)
    assert big == half.compose(half)


def _squaring_power(m, n):
    """The oracle: M^n by repeated squaring of coefficient tuples; negative
    n powers the adjugate (d, -b, -c, a)."""
    base = m.coefficients()
    if n < 0:
        a, b, c, d = base
        base, n = (d, -b, -c, a), -n
    result = (1, 0, 0, 1)
    while n:
        if n & 1:
            result = _matrix_product(result, base)
        base = _matrix_product(base, base)
        n >>= 1
    return MoebiusMap(*result)


def _conjugate(rng, upper):
    """P U P^-1 for a random integer P: the same eigenvalues as U."""
    while True:
        p = tuple(rng.randint(-5, 5) for _ in range(4))
        det = p[0] * p[3] - p[1] * p[2]
        if det:
            break
    adjugate = (p[3], -p[1], -p[2], p[0])
    product = _matrix_product(_matrix_product(p, upper), adjugate)
    return MoebiusMap(*(Fraction(x) / det for x in product))


def _power_inputs():
    """Maps in scope (rational eigenvalues) and off it, by name."""
    rng = random.Random(137)
    maps = []
    for _ in range(6):
        l1, l2 = rand_nonzero(rng, 9), rand_nonzero(rng, 9)
        if l1 != l2:
            maps.append(("distinct", _conjugate(rng, (l1, 0, 0, l2))))
    for lam in (Fraction(3), Fraction(-2, 5)):
        maps.append(("negative", _conjugate(rng, (-abs(lam), 1, 0, abs(lam) + 1))))
        maps.append(("negative", _conjugate(rng, (-abs(lam), 0, 0, -1 / abs(lam)))))
        maps.append(("trace 0", _conjugate(rng, (lam, 0, 0, -lam))))
    maps.append(("trace 0", MoebiusMap(0, 1, 1, 0)))
    maps += [("det 1", rand_square_disc_map(rng, height=9)) for _ in range(3)]
    lam = Fraction(2, 3)
    maps += [
        ("fused", MoebiusMap(Fraction(-3, 7), 0, 0, Fraction(-3, 7))),  # scalar
        ("fused", MoebiusMap(Fraction(5, 2), Fraction(-4, 3), 0, Fraction(5, 2))),
        ("fused", MoebiusMap(lam + 1, -1, 1, lam - 1)),
        ("fused", _conjugate(rng, (lam, 1, 0, lam))),
        ("fused", rand_square_disc_map(rng, height=9, fused=True)),
    ]
    for _ in range(4):
        a, d = rand_nonzero(rng, 9), rand_nonzero(rng, 9)
        maps.append(("lower triangular", MoebiusMap(a, 0, rand_rational(rng, 9), d)))
    maps.append(("lower triangular", MoebiusMap(2, 0, Fraction(-5, 3), Fraction(1, 2))))
    while sum(kind == "off scope" for kind, _ in maps) < 4:
        m = rand_map(rng, height=9)
        if is_perfect_square(discriminant(m)) is None:
            maps.append(("off scope", m))
    return maps, rng


def test_power_matches_repeated_squaring():
    maps, rng = _power_inputs()
    kinds = set()
    for kind, m in maps:
        root = is_perfect_square(discriminant(m))
        assert (root is None) == (kind == "off scope"), (kind, m)
        assert (root == 0) == (kind == "fused"), (kind, m)
        exponents = [0, 1, 2, rng.randint(3, 200), 2 ** rng.randint(6, 10)]
        exponents += [-1, -2, -rng.randint(3, 200)]
        for n in exponents:
            assert m.power(n) == _squaring_power(m, n), (kind, m, n)
        kinds.add(kind)
    assert kinds == {
        "distinct", "negative", "trace 0", "det 1", "fused", "lower triangular",
        "off scope",
    }


def test_in_scope_power_makes_no_matrix_products(monkeypatch):
    calls = {"compose": 0}
    monkeypatch.setattr(MoebiusMap, "compose", counted(calls, "compose", MoebiusMap.compose))
    n = 2**20
    big = CASE_A_MAP.power(n)
    assert calls == {"compose": 0}
    low, high = Fraction(1, 2**n), Fraction(2**n)
    assert big == MoebiusMap(low, 0, (low - high) / Fraction(-3, 2), high)
    MoebiusMap(2, 1, 1, 1).power(3)  # off scope: the counter does see squaring
    assert calls["compose"]


def test_rescale_examples():
    assert MoebiusMap(1, 0, 0, 4).rescale_to_unit_det() == MoebiusMap(
        Fraction(1, 2), 0, 0, 2
    )
    assert CASE_A_MAP.rescale_to_unit_det() == CASE_A_MAP
    with pytest.raises(NonSquareDeterminant):
        MoebiusMap(1, 1, 1, 3).rescale_to_unit_det()


def test_rescale_preserves_the_function():
    rng = random.Random(73)
    for _ in range(100):
        m = rand_square_disc_map(rng, height=15)
        lam = rand_nonzero(rng, 15)
        scaled = MoebiusMap(lam * m.a, lam * m.b, lam * m.c, lam * m.d)
        back = scaled.rescale_to_unit_det()
        assert back.det == 1
        x = rand_rational(rng, 20)
        if scaled.c * x + scaled.d != 0:
            assert back.apply(x) == scaled.apply(x)


def _coefficient():
    """Zero, small and negative integers, and fractions whose parts run to
    40 digits."""
    big = 10**40
    return st.one_of(
        st.just(Fraction(0)),
        st.integers(-9, 9).map(Fraction),
        st.builds(Fraction, st.integers(-big, big), st.integers(1, big)),
    )


def _maps():
    """Coefficient tuples of nonsingular maps: four drawn coefficients, the
    conjugate s P diag(l, 1) P^-1 with rational fixed points x1, x2, and the
    fused s P [[1, t], [0, 1]] P^-1 with the one fixed point x1."""
    c = _coefficient()
    nonzero = c.filter(bool)
    drawn = st.tuples(c, c, c, c)
    two = st.builds(
        lambda x1, x2, l, s: tuple(s * k for k in oracle.normal_form_map(l, x1, x2)),
        c, c, nonzero, nonzero,
    )
    fused = st.builds(
        lambda x1, t, s: tuple(s * k for k in (x1 * t + 1, -x1 * x1 * t, t, 1 - t * x1)),
        c, nonzero, nonzero,
    )
    return st.one_of(drawn, two, fused).filter(lambda k: k[0] * k[3] != k[1] * k[2])


def _outcome(f, *args):
    """f(*args), or the class and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _expected(coeffs, x):
    """apply, derivative_at and check_fixed_point at x, from the oracle,
    each error case as the library's class and message."""
    image, derivative = oracle.apply(coeffs, x), oracle.multiplier(coeffs, x)
    if image == "pole":
        at_pole = PoleInput, f"{shown(x)} is the pole -d/c of the map"
        return at_pole, (PoleInput, f"derivative undefined at the pole {shown(x)}"), at_pole
    fixed = x if image == x else (NotAFixedPoint, f"{shown(x)} is not fixed by the map")
    return image, derivative, fixed


def _expected_fixed_points(coeffs):
    points = oracle.fixed_points(coeffs)
    if points == "c_is_zero":
        return CIsZero, "fixed-point analysis needs c != 0"
    if points == "not_a_square":
        disc = oracle.discriminant(coeffs)
        return NonRationalFixedPoints, f"discriminant {shown(disc)} is not a rational square"
    return FixedPoints(points)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(coeffs=_maps(), data=st.data())
@example(coeffs=(Fraction(1, 2), 0, 1, 2), data=None)  # case A, the pole -2
@example(coeffs=(3, 2, -2, -1), data=None)  # fused at -1, c < 0
@example(coeffs=(2, 1, 0, 1), data=None)  # affine
def test_pointwise_methods_match_plain_formulas(coeffs, data):
    coeffs = tuple(map(Fraction, coeffs))
    m = MoebiusMap(*coeffs)
    a, b, c, d = coeffs
    pole = None if c == 0 else -d / c
    assert m.pole == pole
    if pole is not None:
        assert is_canonical(m.pole)
    expected_points = _expected_fixed_points(coeffs)
    points = _outcome(fixed_points, m)
    assert points == expected_points
    inputs = [Fraction(0), Fraction(-7, 3), 5]
    if isinstance(points, FixedPoints):
        inputs += points.points
        for xi in points.points:
            assert is_canonical(xi)
    if pole is not None:
        inputs += [pole, str(pole)]
    if data is not None:
        inputs += data.draw(
            st.lists(
                st.one_of(
                    _coefficient(),
                    st.integers(-10**30, 10**30),
                    _coefficient().map(str),
                ),
                max_size=3,
            )
        )
    for x in inputs:
        got = tuple(
            _outcome(f, x) for f in (m.apply, m.derivative_at, m.check_fixed_point)
        )
        assert got == _expected(coeffs, Fraction(x)), x
        for y in got:
            if not isinstance(y, tuple):
                assert is_canonical(y), y


def test_fixed_points_case_a():
    fps = fixed_points(CASE_A_MAP)
    assert fps == FixedPoints((Fraction(-3, 2), Fraction(0)))
    assert not fps.fused
    for xi in fps.points:
        assert CASE_A_MAP.apply(xi) == xi


def test_fixed_points_fused():
    fps = fixed_points(MoebiusMap(3, 2, -2, -1))
    assert fps == FixedPoints((Fraction(-1),))
    assert fps.fused


def test_fixed_points_irrational_discriminant():
    assert discriminant(MoebiusMap(1, 1, 1, 2)) == 5
    with pytest.raises(NonRationalFixedPoints):
        fixed_points(MoebiusMap(1, 1, 1, 2))


def test_fixed_points_affine_rejected():
    with pytest.raises(CIsZero):
        fixed_points(MoebiusMap(2, 1, 0, 1))


def test_discriminant_trace_form_identity():
    rng = random.Random(79)
    for _ in range(200):
        m = rand_map(rng)
        trace_form = (m.a + m.d) ** 2 - 4 * m.det
        assert discriminant(m) == trace_form


def test_fixed_point_identities():
    rng = random.Random(83)
    for _ in range(200):
        m = rand_square_disc_map(rng, height=20)
        fps = fixed_points(m)
        if fps.fused:
            continue
        x1, x2 = fps.points
        assert m.derivative_at(x1) * m.derivative_at(x2) == 1
        assert x1 * x2 == -m.b / m.c
        assert m.apply(x1) * m.apply(x2) == -m.b / m.c


def test_cross_ratio_example():
    x1, x2, x3, x4 = 0, 1, 2, 3
    direct = Fraction((x1 - x3) * (x2 - x4), (x1 - x4) * (x2 - x3))
    assert direct == Fraction(4, 3)
    assert cross_ratio(0, 1, 2, 3) == Fraction(4, 3)


def test_cross_ratio_degenerate():
    with pytest.raises(DegeneratePoints):
        cross_ratio(1, 2, 2, 1)


def test_cross_ratio_swap_symmetry():
    rng = random.Random(89)
    for _ in range(100):
        xs = []
        while len(xs) < 4:
            x = rand_rational(rng, 40)
            if x not in xs:
                xs.append(x)
        x1, x2, x3, x4 = xs
        assert cross_ratio(x1, x2, x3, x4) == cross_ratio(x2, x1, x4, x3)


def test_cross_ratio_invariance_under_maps():
    rng = random.Random(97)
    checked = 0
    while checked < 100:
        m = rand_map(rng)
        xs = []
        while len(xs) < 4:
            x = rand_rational(rng, 30)
            if x not in xs and (m.c * x + m.d) != 0:
                xs.append(x)
        before = cross_ratio(*xs)
        after = cross_ratio(*(m.apply(x) for x in xs))
        assert after == before
        checked += 1


def test_scale_and_projective_invariance():
    rng = random.Random(101)
    for _ in range(100):
        m = rand_map(rng)
        lam = rand_nonzero(rng, 20)
        for factor in (lam, Fraction(-1)):
            scaled = MoebiusMap(factor * m.a, factor * m.b, factor * m.c, factor * m.d)
            x = rand_rational(rng, 30)
            if m.c * x + m.d == 0:
                continue
            assert scaled.apply(x) == m.apply(x)
            assert scaled.derivative_at(x) == m.derivative_at(x)


def test_modular_family_spec_instances():
    assert modular_family(1, 1, 1) == MoebiusMap(1, 0, 1, 1)
    assert modular_family(3, 1, 1) == MoebiusMap(0, -1, 1, 2)
    assert modular_family(5, 1, 2) == MoebiusMap(3, -2, 2, -1)


def test_modular_family_sweep_unimodular_integer():
    for k in (1, 2, 3, 4, 5):
        for sign in (1, -1):
            for param in range(-20, 21):
                m = modular_family(k, sign, param)
                assert m.det == 1
                for coeff in m.coefficients():
                    assert coeff.denominator == 1


def test_modular_family_rejects_bad_input():
    with pytest.raises(InputError):
        modular_family(6, 1, 1)
    with pytest.raises(InputError):
        modular_family(1, 2, 1)
    with pytest.raises(InputError):
        modular_family(1, 1, Fraction(1, 2))
