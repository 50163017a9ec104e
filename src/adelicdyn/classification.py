"""Stability of rational fixed points at every place at once.

The multiplier f'(xi) is an exact rational, so |f'(xi)|_v differs from 1
only at the real place and at the finitely many primes dividing its
numerator or denominator: its support, which only `padic.norm_support`
computes.  A fixed point is therefore indifferent at all but a finite,
computable set of places; the report types here carry that cofinite
structure instead of enumerating primes.  One multiplier and one support
serve two distinct fixed points, since f'(xi) f'(xi') = 1 (kinds swapped).

Six closed-form parameter families (tags A..F) each force the fixed points
to be rational; for a map satisfying a family's constraints,
`case_predicted_report` reproduces the classification from the family's key
quantity alone, without evaluating the derivative, and must agree exactly
with `adelic_report`.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .errors import CaseMismatch, CIsZero, InputError, NotUnimodular, ZeroInput
from .exact import DEFAULT_FACTOR_BOUND, RationalLike, primes_upto, rational, shown
from .moebius import MoebiusMap, fixed_points, unit_sign
from .padic import Place, norm_support, place_norm

__all__ = [
    "AdelicFixedPointReport",
    "CaseTag",
    "ExceptionalSets",
    "IndifferenceAudit",
    "PlaceClassification",
    "Stability",
    "adelic_report",
    "audit_cofinite_indifference",
    "case_a_map",
    "case_b_map",
    "case_c_map",
    "case_d_map",
    "case_e_map",
    "case_f_map",
    "case_predicted_report",
    "classify_at_place",
    "exceptional_primes",
    "recognize_case",
]


class Stability(str, Enum):
    ATTRACTIVE = "attractive"
    REPELLING = "repelling"
    INDIFFERENT = "indifferent"


class PlaceClassification(NamedTuple):
    """Stability of one fixed point at one place, read from |f'(xi)|_v."""

    place: Place
    multiplier_norm: Fraction

    @property
    def kind(self) -> Stability:
        if self.multiplier_norm < 1:
            return Stability.ATTRACTIVE
        if self.multiplier_norm > 1:
            return Stability.REPELLING
        return Stability.INDIFFERENT

    def to_dict(self) -> dict:
        return {
            "place": str(self.place),
            "kind": self.kind.value,
            "multiplier_norm": str(self.multiplier_norm),
        }


def classify_at_place(m: MoebiusMap, xi: RationalLike, v: Place) -> PlaceClassification:
    """Compare |f'(xi)|_v with 1; exact comparison, no thresholds."""
    xi = m.check_fixed_point(xi)
    return PlaceClassification(v, place_norm(m.derivative_at(xi), v))


class ExceptionalSets(NamedTuple):
    """The finitely many primes where |generator|_p != 1.

    `numerator_primes` divide the numerator (norm < 1 there) and
    `denominator_primes` the denominator (norm > 1); the sets are disjoint
    because the generator is in lowest terms.
    """

    generator: Fraction
    numerator_primes: frozenset[int]
    denominator_primes: frozenset[int]


def exceptional_primes(
    q: RationalLike, bound: int = DEFAULT_FACTOR_BOUND
) -> ExceptionalSets:
    """The primes of q's `norm_support`, split by |q|_p < 1 and |q|_p > 1."""
    q = rational(q)
    finite = norm_support(q, bound)[1:]
    return ExceptionalSets(
        generator=q,
        numerator_primes=frozenset(v.p for v, norm in finite if norm < 1),
        denominator_primes=frozenset(v.p for v, norm in finite if norm > 1),
    )


class AdelicFixedPointReport(NamedTuple):
    """One rational fixed point seen from every place.

    `finite_exceptions` lists, by ascending prime, exactly the places where
    the point is not indifferent; everywhere else the default applies.
    """

    xi: Fraction
    real: PlaceClassification
    finite_exceptions: tuple[PlaceClassification, ...]

    def at(self, v: Place) -> PlaceClassification:
        """Classification at any place, materializing the default."""
        if v.is_real:
            return self.real
        for entry in self.finite_exceptions:
            if entry.place == v:
                return entry
        return PlaceClassification(v, Fraction(1))

    def to_dict(self) -> dict:
        return {
            "xi": str(self.xi),
            "places": [
                c.to_dict() for c in (self.real, *self.finite_exceptions)
            ],
            "default": Stability.INDIFFERENT.value,
        }


def _place_table(
    xi: Fraction, support: tuple[tuple[Place, Fraction], ...], exponent: int
) -> AdelicFixedPointReport:
    """Report for xi whose multiplier norm at every place v is |q|_v ** exponent.

    `support` is q's `norm_support`: one entry per place of it; at every
    other prime the norm is 1 and the default (indifferent) applies.
    """
    real, *rest = (PlaceClassification(v, norm**exponent) for v, norm in support)
    return AdelicFixedPointReport(xi=xi, real=real, finite_exceptions=tuple(rest))


def _multiplier_support(
    m: MoebiusMap, bound: int
) -> tuple[tuple[Fraction, ...], Fraction, tuple[tuple[Place, Fraction], ...]]:
    """The fixed points, the first one's multiplier q and q's `norm_support`."""
    points = fixed_points(m).points
    q = m.derivative_at(points[0])
    return points, q, norm_support(q, bound)


def adelic_report(
    m: MoebiusMap, bound: int = DEFAULT_FACTOR_BOUND
) -> list[AdelicFixedPointReport]:
    """One report per rational fixed point, ascending by the point.

    For distinct fixed points f'(xi) f'(xi') = 1, so one support serves both
    reports: the same exceptional primes, with kinds swapped.
    """
    points, _, support = _multiplier_support(m, bound)
    return _reports(points, support)


def _reports(points, support) -> list[AdelicFixedPointReport]:
    return [_place_table(xi, support, exponent) for xi, exponent in zip(points, (1, -1))]


class CaseTag(str, Enum):
    """The six det-1 parameter families with rational fixed points."""

    A = "A"  # b = 0: fixed points (1 - d^2)/(cd) and 0, keyed on |d|_v
    B = "B"  # c = b, d = a: fixed points +1/-1, keyed on |a - b|_v
    C = "C"  # b = -c, d = a + 2c: fused at -1, indifferent everywhere
    D = "D"  # b = -c, d = a - 2c: fused at +1, indifferent everywhere
    E = "E"  # d = -a + 2: fused at (a - 1)/c, indifferent everywhere
    F = "F"  # d = -a - 2: fused at (a + 1)/c, indifferent everywhere


def recognize_case(m: MoebiusMap) -> set[CaseTag]:
    """All family tags whose defining constraints hold exactly.

    Tags can overlap: (1, 0, 1, 1) satisfies both A and E, and the
    respective predicted reports agree.  The quadratic identities each
    family carries follow from det = 1 but are re-checked anyway.
    """
    if m.det != 1:
        raise NotUnimodular(f"case recognition needs det = 1, got {shown(m.det)}")
    a, b, c, d = m.coefficients()
    tags = set()
    if b == 0 and a * d == 1:
        tags.add(CaseTag.A)
    if c == b and d == a and a * a - b * b == 1:
        tags.add(CaseTag.B)
    if b == -c and d == a + 2 * c and (a + c) ** 2 == 1:
        tags.add(CaseTag.C)
    if b == -c and d == a - 2 * c and (a - c) ** 2 == 1:
        tags.add(CaseTag.D)
    if d == -a + 2 and (a - 1) ** 2 + b * c == 0:
        tags.add(CaseTag.E)
    if d == -a - 2 and (a + 1) ** 2 + b * c == 0:
        tags.add(CaseTag.F)
    return tags


def case_predicted_report(
    tag: CaseTag | str, m: MoebiusMap, bound: int = DEFAULT_FACTOR_BOUND
) -> list[AdelicFixedPointReport]:
    """Closed-form report for a recognized family, no derivative evaluated.

    Must coincide exactly with `adelic_report`: that equivalence is the
    library's main correctness oracle.
    """
    try:
        tag = CaseTag(tag)
    except ValueError:
        raise InputError(f"unknown case tag {shown(tag)}") from None
    if tag not in recognize_case(m):
        raise CaseMismatch(f"map does not satisfy the case {tag.value} constraints")
    a, b, c, d = m.coefficients()
    # q is the family's key quantity: xi_small has multiplier q^2 (it
    # attracts where |q|_v < 1), xi_large has q^-2.  The fused families
    # have q = 1 and a single point, indifferent everywhere.
    if tag is CaseTag.A:
        q, xi_small, xi_large = d, (1 - d * d) / (c * d), Fraction(0)
    elif tag is CaseTag.B:
        q, xi_small, xi_large = a - b, Fraction(1), Fraction(-1)
    else:
        q = Fraction(1)
        xi_small = xi_large = {
            CaseTag.C: Fraction(-1),
            CaseTag.D: Fraction(1),
            CaseTag.E: (a - 1) / c,
            CaseTag.F: (a + 1) / c,
        }[tag]
    support = norm_support(q, bound)
    reports = [_place_table(xi_small, support, 2)]
    if xi_large != xi_small:  # the two points fuse exactly when q = +/-1
        reports.append(_place_table(xi_large, support, -2))
    return sorted(reports, key=lambda r: r.xi)


def case_a_map(a: RationalLike, c: RationalLike) -> MoebiusMap:
    """b = 0, d = 1/a; needs a != 0 and c != 0."""
    a, c = rational(a), rational(c)
    if a == 0:
        raise ZeroInput("case A needs a != 0 (d = 1/a)")
    if c == 0:
        raise CIsZero("case A with c = 0 has no pole and is out of scope")
    return MoebiusMap(a, 0, c, 1 / a)


def case_b_map(t: RationalLike) -> MoebiusMap:
    """a = (t + 1/t)/2, b = c = (t - 1/t)/2, d = a; needs t not in {0, 1, -1}."""
    t = rational(t)
    if t == 0:
        raise ZeroInput("case B parameter t must be nonzero")
    if t in (1, -1):
        raise CIsZero("case B with t = +/-1 collapses to c = 0")
    a = (t + 1 / t) / 2
    b = (t - 1 / t) / 2
    return MoebiusMap(a, b, b, a)


def case_c_map(sign: int, c: RationalLike) -> MoebiusMap:
    """a + c = sign (+1 or -1), b = -c, d = a + 2c; needs c != 0."""
    c = _nonzero_c(c)
    s = unit_sign(sign)
    return MoebiusMap(s - c, -c, c, s + c)


def case_d_map(sign: int, c: RationalLike) -> MoebiusMap:
    """a - c = sign (+1 or -1), b = -c, d = a - 2c; needs c != 0."""
    c = _nonzero_c(c)
    s = unit_sign(sign)
    return MoebiusMap(s + c, -c, c, s - c)


def case_e_map(a: RationalLike, c: RationalLike) -> MoebiusMap:
    """b = -(a - 1)^2/c, d = 2 - a; needs c != 0."""
    a = rational(a)
    c = _nonzero_c(c)
    return MoebiusMap(a, -((a - 1) ** 2) / c, c, 2 - a)


def case_f_map(a: RationalLike, c: RationalLike) -> MoebiusMap:
    """b = -(a + 1)^2/c, d = -a - 2; needs c != 0."""
    a = rational(a)
    c = _nonzero_c(c)
    return MoebiusMap(a, -((a + 1) ** 2) / c, c, -a - 2)


def _nonzero_c(c: RationalLike) -> Fraction:
    c = rational(c)
    if c == 0:
        raise CIsZero("family constructors need c != 0")
    return c


class IndifferenceAudit(NamedTuple):
    """Scan result: primes <= scan_limit must be indifferent off the
    exceptional set and non-indifferent on it."""

    xi: Fraction
    scan_limit: int
    exceptional: tuple[int, ...]
    offenders: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.offenders

    def to_dict(self) -> dict:
        return {
            **self._asdict(),
            "xi": str(self.xi),
            "exceptional": list(self.exceptional),
            "offenders": list(self.offenders),
            "ok": self.ok,
        }


def audit_cofinite_indifference(
    m: MoebiusMap,
    scan_limit: int,
    bound: int = DEFAULT_FACTOR_BOUND,
) -> list[IndifferenceAudit]:
    """Verify indifference at every prime <= scan_limit off the exceptional set.

    The exceptional set is the multiplier's `norm_support` (trial division);
    each sieved prime p is decided by the definition: |q|_p = 1 exactly when
    p divides neither part of q = f'(xi) in lowest terms.  A second point's
    multiplier is 1/q, so one support and one scan serve both points.
    """
    return _audit(*_multiplier_support(m, bound), scan_limit)


def _audit(points, q, support, scan_limit: int) -> list[IndifferenceAudit]:
    exceptional = tuple(v.p for v, _ in support[1:])
    num, den = q.numerator, q.denominator
    offenders = tuple(
        p for p in primes_upto(scan_limit)
        if (num % p != 0 and den % p != 0) == (p in exceptional)
    )
    return [IndifferenceAudit(xi, scan_limit, exceptional, offenders) for xi in points]
