"""Per-place stability, exceptional prime sets, the six families, reports."""

import random
from fractions import Fraction

import pytest

from adelicdyn import classification, padic
from adelicdyn.classification import (
    AdelicFixedPointReport,
    CaseTag,
    IndifferenceAudit,
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
    exceptional_primes,
    recognize_case,
)
from adelicdyn.errors import (
    CaseMismatch,
    CIsZero,
    NotAFixedPoint,
    NotUnimodular,
    PoleInput,
    ResourceLimitError,
    ZeroInput,
)
from adelicdyn.exact import DEFAULT_FACTOR_BOUND, MAX_PRIME_SCAN, factorize, primes_upto
from adelicdyn.moebius import MoebiusMap, fixed_points
from adelicdyn.padic import Place, REAL, norm_support, padic_norm
from helpers import rand_nonzero, rand_square_disc_map

CASE_A_MAP = MoebiusMap(Fraction(1, 2), 0, 1, 2)
CASE_B_MAP = MoebiusMap(Fraction(5, 3), Fraction(4, 3), Fraction(4, 3), Fraction(5, 3))
CASE_C_MAP = MoebiusMap(3, 2, -2, -1)


def test_classify_at_real_place():
    cls = classify_at_place(CASE_A_MAP, 0, REAL)
    assert cls.kind is Stability.ATTRACTIVE
    assert cls.multiplier_norm == Fraction(1, 4)


def test_classify_at_two():
    cls = classify_at_place(CASE_A_MAP, 0, Place(2))
    assert cls.kind is Stability.REPELLING
    assert cls.multiplier_norm == 4


def test_classify_at_seven_is_indifferent():
    cls = classify_at_place(CASE_A_MAP, 0, Place(7))
    assert cls.kind is Stability.INDIFFERENT
    assert cls.multiplier_norm == 1


def test_classify_rejects_non_fixed_point():
    with pytest.raises(NotAFixedPoint):
        classify_at_place(CASE_A_MAP, 1, REAL)


def test_classify_rejects_pole():
    with pytest.raises(PoleInput):
        classify_at_place(CASE_A_MAP, -2, REAL)


def test_exceptional_primes_examples():
    sets = exceptional_primes(2)
    assert sets.numerator_primes == {2} and sets.denominator_primes == frozenset()
    sets = exceptional_primes(1)
    assert sets.numerator_primes == sets.denominator_primes == frozenset()
    sets = exceptional_primes(Fraction(10, 21))
    assert sets.numerator_primes == {2, 5}
    assert sets.denominator_primes == {3, 7}
    assert sets.all_primes() == (2, 3, 5, 7)


def test_exceptional_primes_rejects_zero():
    with pytest.raises(ZeroInput):
        exceptional_primes(0)


def test_adelic_report_case_a():
    reports = adelic_report(CASE_A_MAP)
    assert [r.xi for r in reports] == [Fraction(-3, 2), Fraction(0)]
    first, second = reports
    assert first.real.kind is Stability.REPELLING
    assert first.real.multiplier_norm == 4
    assert [c.place.p for c in first.finite_exceptions] == [2]
    assert first.finite_exceptions[0].kind is Stability.ATTRACTIVE
    assert first.to_dict()["default"] == "indifferent"
    assert second.real.kind is Stability.ATTRACTIVE
    assert second.finite_exceptions[0].kind is Stability.REPELLING
    assert second.at(Place(97)).kind is Stability.INDIFFERENT


def test_adelic_report_case_c_all_indifferent():
    reports = adelic_report(CASE_C_MAP)
    assert len(reports) == 1
    report = reports[0]
    assert report.xi == -1
    assert report.real.kind is Stability.INDIFFERENT
    assert report.finite_exceptions == ()


def test_adelic_report_case_b():
    assert CASE_B_MAP.det == 1
    reports = adelic_report(CASE_B_MAP)
    by_xi = {r.xi: r for r in reports}
    plus = by_xi[Fraction(1)]
    assert plus.real.kind is Stability.ATTRACTIVE  # |a - b| = 1/3 < 1
    assert plus.real.multiplier_norm == Fraction(1, 9)
    assert [c.place.p for c in plus.finite_exceptions] == [3]
    assert plus.finite_exceptions[0].kind is Stability.REPELLING
    minus = by_xi[Fraction(-1)]
    assert minus.real.kind is Stability.REPELLING
    assert minus.finite_exceptions[0].kind is Stability.ATTRACTIVE


def test_report_serialization_shape():
    doc = adelic_report(CASE_A_MAP)[0].to_dict()
    assert set(doc) == {"xi", "places", "default"}
    assert doc["default"] == "indifferent"
    assert doc["places"][0] == {
        "place": "real",
        "kind": "repelling",
        "multiplier_norm": "4",
    }


def test_recognize_case_a_only():
    assert recognize_case(CASE_A_MAP) == {CaseTag.A}


def test_recognize_case_overlaps():
    # (1, 0, 1, 1) satisfies b = 0 and d = -a + 2 simultaneously
    assert recognize_case(MoebiusMap(1, 0, 1, 1)) == {CaseTag.A, CaseTag.E}
    # every map with b = -c, d = a + 2c, a + c = 1 also satisfies d = -a + 2
    assert recognize_case(CASE_C_MAP) == {CaseTag.C, CaseTag.E}
    assert recognize_case(CASE_B_MAP) == {CaseTag.B}


def test_recognize_case_requires_unimodular():
    with pytest.raises(NotUnimodular):
        recognize_case(MoebiusMap(2, 0, 0, 2))


def test_untagged_maps_still_get_reports():
    # the families are sufficient for rational fixed points, not exhaustive
    m = MoebiusMap(3, Fraction(-5, 2), 1, Fraction(-1, 2))
    assert m.det == 1
    assert recognize_case(m) == set()
    reports = adelic_report(m)
    assert [r.xi for r in reports] == [Fraction(1), Fraction(5, 2)]
    assert reports[0].real.multiplier_norm == 4


def test_predicted_report_matches_computed_on_fixtures():
    for m in (CASE_A_MAP, CASE_B_MAP, CASE_C_MAP, MoebiusMap(3, -2, 2, -1)):
        computed = adelic_report(m)
        for tag in recognize_case(m):
            assert case_predicted_report(tag, m) == computed


def test_predicted_report_case_mismatch():
    with pytest.raises(CaseMismatch):
        case_predicted_report(CaseTag.B, CASE_A_MAP)


def test_predicted_report_factors_q_once(monkeypatch):
    # both fixed points read q's support: one numerator and one
    # denominator factorization in all
    calls = []

    def counting_factorize(n, bound):
        calls.append(n)
        return factorize(n, bound)

    m = case_a_map(6, 1)
    monkeypatch.setattr(padic, "factorize", counting_factorize)
    reports = case_predicted_report(CaseTag.A, m)
    assert len(calls) == 2
    assert len(reports) == 2 and reports == adelic_report(m)


def test_case_a_fused_when_d_is_unit():
    m = case_a_map(1, 5)  # d = 1/a = 1
    fps = fixed_points(m)
    assert fps.fused and fps.points == (Fraction(0),)
    (report,) = adelic_report(m)
    assert report.real.kind is Stability.INDIFFERENT
    assert report.finite_exceptions == ()
    assert case_predicted_report(CaseTag.A, m) == [report]


def test_case_constructors_satisfy_their_tags():
    rng = random.Random(103)
    for _ in range(50):
        a = rand_nonzero(rng, 20)
        c = rand_nonzero(rng, 20)
        t = rand_nonzero(rng, 20)
        sign = rng.choice((1, -1))
        built = {
            CaseTag.A: case_a_map(a, c),
            CaseTag.C: case_c_map(sign, c),
            CaseTag.D: case_d_map(sign, c),
            CaseTag.E: case_e_map(a, c),
            CaseTag.F: case_f_map(a, c),
        }
        if t not in (1, -1):
            built[CaseTag.B] = case_b_map(t)
        for tag, m in built.items():
            assert m.det == 1
            assert tag in recognize_case(m)


def test_case_constructor_guards():
    with pytest.raises(ZeroInput):
        case_a_map(0, 1)
    with pytest.raises(CIsZero):
        case_a_map(2, 0)
    with pytest.raises(CIsZero):
        case_b_map(1)
    with pytest.raises(ZeroInput):
        case_b_map(0)
    with pytest.raises(CIsZero):
        case_e_map(2, 0)


def test_pairing_law():
    rng = random.Random(107)
    for _ in range(100):
        m = rand_square_disc_map(rng, height=20)
        reports = adelic_report(m)
        if len(reports) == 1:
            continue
        first, second = reports
        places = [REAL] + [c.place for c in first.finite_exceptions]
        for v in places:
            kinds = {first.at(v).kind, second.at(v).kind}
            if Stability.INDIFFERENT in kinds:
                assert kinds == {Stability.INDIFFERENT}
            else:
                assert kinds == {Stability.ATTRACTIVE, Stability.REPELLING}


def test_audit_runs_clean_on_fixtures():
    for m in (CASE_A_MAP, CASE_B_MAP, CASE_C_MAP):
        for audit in audit_cofinite_indifference(m, scan_limit=200):
            assert audit.ok
            assert audit.offenders == ()


def reference_audit(m, scan_limit, support=norm_support):
    """The audit with the per-prime rule it had before: |q|_p == 1 by
    `padic_norm`, which proves p prime again."""
    audits = []
    for xi in fixed_points(m).points:
        q = m.derivative_at(xi)
        exceptional = tuple(v.p for v, _ in support(q, DEFAULT_FACTOR_BOUND)[1:])
        offenders = tuple(
            p
            for p in primes_upto(scan_limit)
            if (padic_norm(q, p) == 1) == (p in exceptional)
        )
        audits.append(IndifferenceAudit(xi, scan_limit, exceptional, offenders))
    return audits


def map_with_multiplier(lam, xi, other):
    """The map with fixed points xi != other and f'(xi) = lam (f'(other) = 1/lam)."""
    return MoebiusMap(
        lam * xi - other, (1 - lam) * xi * other, lam - 1, xi - lam * other
    )


def support_dropping_a_prime(r, bound):
    support = norm_support(r, bound)
    return support[:1] + support[2:]  # the smallest exceptional prime is lost


def support_adding_a_prime(r, bound):
    q = Fraction(r)
    p = next(p for p in primes_upto(100) if q.numerator % p and q.denominator % p)
    real, *finite = norm_support(r, bound)
    return (real, *sorted((*finite, (Place(p), Fraction(1))), key=lambda e: e[0].p))


#: Primes on either side of the scan limits 2, 300 and 2000.
NEAR_THE_LIMITS = (2, 3, 293, 307, 1999, 2003)


def test_audit_matches_the_padic_norm_rule(monkeypatch):
    # multipliers carry primes just below and just above each scan limit;
    # with a faulty support (patched into both sides) the offenders agree too
    rng = random.Random(37)
    maps = [CASE_A_MAP, CASE_B_MAP, CASE_C_MAP]
    for _ in range(12):
        parts = [1, 1]
        for p in rng.sample(NEAR_THE_LIMITS + (5, 7, 11), 3):
            parts[rng.randrange(2)] *= p ** rng.randint(1, 2)
        lam = Fraction(*parts) * rng.choice((1, -1))
        if lam in (1, -1):
            continue
        xi, other = rand_nonzero(rng, 9), rand_nonzero(rng, 9)
        if xi != other:
            maps.append(map_with_multiplier(lam, xi, other))
    maps += [rand_square_disc_map(rng, height=30) for _ in range(8)]
    for support in (norm_support, support_dropping_a_prime, support_adding_a_prime):
        monkeypatch.setattr(classification, "norm_support", support)
        for m in maps:
            for scan_limit in (0, 1, 2, 300, 2000):
                expected = reference_audit(m, scan_limit, support)
                assert audit_cofinite_indifference(m, scan_limit) == expected


def test_audit_catches_a_faulty_support(monkeypatch):
    m = map_with_multiplier(Fraction(10, 21), Fraction(1, 3), Fraction(-2))
    for audit in audit_cofinite_indifference(m, 100):
        assert audit.ok and audit.exceptional == (2, 3, 5, 7)
    monkeypatch.setattr(classification, "norm_support", support_dropping_a_prime)
    for audit in audit_cofinite_indifference(m, 100):
        assert audit.exceptional == (3, 5, 7)
        assert audit.offenders == (2,) and not audit.ok
    monkeypatch.setattr(classification, "norm_support", support_adding_a_prime)
    for audit in audit_cofinite_indifference(m, 100):
        assert audit.exceptional == (2, 3, 5, 7, 11)  # 11 divides nothing
        assert audit.offenders == (11,) and not audit.ok


def test_audit_proves_no_scanned_prime_again(monkeypatch):
    # the sieve proved every scanned prime; only the exceptional primes are
    # proved, by `norm_support` (in Place(p) and again in its place norm)
    calls = []
    is_prime = padic.is_prime
    monkeypatch.setattr(padic, "is_prime", lambda n: calls.append(n) or is_prime(n))
    audits = audit_cofinite_indifference(CASE_A_MAP, 10**5)
    assert all(audit.ok for audit in audits)
    assert set(calls) <= {p for audit in audits for p in audit.exceptional}
    assert len(calls) <= 2 * sum(len(audit.exceptional) for audit in audits)


def test_audit_refuses_a_scan_above_the_cap():
    with pytest.raises(ResourceLimitError):
        audit_cofinite_indifference(CASE_A_MAP, scan_limit=MAX_PRIME_SCAN + 1)


def test_report_at_materializes_default():
    report = adelic_report(CASE_A_MAP)[0]
    default = report.at(Place(541))
    assert default.kind is Stability.INDIFFERENT
    assert default.multiplier_norm == 1


def test_reports_are_plain_data():
    a = adelic_report(CASE_A_MAP)
    b = adelic_report(CASE_A_MAP)
    assert a == b
    assert isinstance(a[0], AdelicFixedPointReport)
