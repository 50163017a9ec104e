"""Moebius maps x -> (ax + b)/(cx + d) with rational coefficients.

A map is identified with its 2x2 coefficient matrix, so composition is the
matrix product and the n-th iterate is a matrix power: in closed form from
the eigenvalues when they are rational (the paper's scope), by repeated
squaring otherwise.  Poles raise errors rather than extending the
rationals by a point at infinity; the scalar type stays closed.  Maps are
kept exactly as constructed (no silent normalization);
`rescale_to_unit_det` is the explicit route to det = 1.

Pointwise work reads the map's cleared integer matrix (A, B, C, D), the
coefficients times the lcm of their denominators: the same map, cleared
once and kept.  At x = n/q in lowest terms, f(x) = (An + Bq)/(Cn + Dq),
whose parts have a gcd dividing det = AD - BC, and f'(x) =
det q^2/(Cn + Dq)^2.  Each is reduced once, at the end, where a chain of
Fraction operations takes gcds at every step; apply takes its gcd
against det, where any common factor must lie (the idea of Henrici's
rule, Knuth TAOCP vol. 2, 4.5.1).  The pole is Cn + Dq = 0, and the
fixed points come from one integer square root of (A - D)^2 + 4BC.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    CIsZero,
    DegeneratePoints,
    InputError,
    NonRationalFixedPoints,
    NonSquareDeterminant,
    NotAFixedPoint,
    PoleInput,
    SingularMap,
)
from .exact import (
    RationalLike, Value, coprime_fraction, is_perfect_square, parse_rationals, rational, shown,
)

__all__ = [
    "FixedPoints",
    "MoebiusMap",
    "cross_ratio",
    "discriminant",
    "fixed_points",
    "modular_family",
]


class MoebiusMap(Value):
    """Coefficients (a, b, c, d) with ad - bc != 0."""

    __slots__ = ("a", "b", "c", "d", "_cleared")
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __init__(self, a: RationalLike, b: RationalLike, c: RationalLike, d: RationalLike):
        a, b, c, d = rational(a), rational(b), rational(c), rational(d)
        if a * d - b * c == 0:
            raise SingularMap("ad - bc = 0")
        self._set(a, b, c, d)

    @classmethod
    def identity(cls) -> "MoebiusMap":
        return cls(1, 0, 0, 1)

    @classmethod
    def from_string(cls, text: str) -> "MoebiusMap":
        """Parse the 'a,b,c,d' comma syntax used on the command line."""
        return cls(*parse_rationals(text, 4))

    @property
    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    @property
    def pole(self) -> Fraction | None:
        """The input where the map blows up; None for affine maps (c = 0)."""
        return None if self.c == 0 else -self.d / self.c

    def _matrix(self) -> tuple[int, int, int, int]:
        """(A, B, C, D): the coefficients times their denominators' lcm, kept."""
        try:
            return self._cleared
        except AttributeError:  # the first call
            xs = self.a, self.b, self.c, self.d
            s = math.lcm(*(x.denominator for x in xs))
            cleared = tuple(x.numerator * (s // x.denominator) for x in xs)
            MoebiusMap._cleared.__set__(self, cleared)
            return cleared

    def apply(self, x: RationalLike) -> Fraction:
        """(An + Bq)/(Cn + Dq) at x = n/q.  The adjugate maps that pair to
        det (n, q), so its gcd divides det = AD - BC: it is
        gcd(gcd(An + Bq, det), Cn + Dq), one gcd against det and, only
        when that is not 1, a second."""
        x = rational(x)
        a, b, c, d = self._matrix()
        n, q = x.numerator, x.denominator
        den = c * n + d * q
        if den == 0:
            raise PoleInput(f"{shown(x)} is the pole -d/c of the map")
        num = a * n + b * q
        g = math.gcd(num, a * d - b * c)
        if g != 1:
            g = math.gcd(g, den)
            num, den = num // g, den // g
        if den < 0:
            num, den = -num, -den
        return coprime_fraction(num, den)

    def check_fixed_point(self, xi: RationalLike) -> Fraction:
        """xi as a Fraction; NotAFixedPoint unless the map fixes it."""
        xi = rational(xi)
        if self.apply(xi) != xi:
            raise NotAFixedPoint(f"{shown(xi)} is not fixed by the map")
        return xi

    def __call__(self, x: RationalLike) -> Fraction:
        return self.apply(x)

    def derivative_at(self, x: RationalLike) -> Fraction:
        """(ad - bc)/(cx + d)^2, exactly: (AD - BC) q^2/(Cn + Dq)^2 at
        x = n/q, reduced once by `Fraction`."""
        x = rational(x)
        a, b, c, d = self._matrix()
        n, q = x.numerator, x.denominator
        den = c * n + d * q
        if den == 0:
            raise PoleInput(f"derivative undefined at the pole {shown(x)}")
        return Fraction((a * d - b * c) * q * q, den * den)

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        """Matrix product: self.compose(other)(x) == self(other(x)).  Its det,
        the product of the dets, is nonzero: it skips the ad - bc check."""
        return MoebiusMap._unchecked(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MoebiusMap":
        """Adjugate matrix; undoes the map wherever both sides are defined."""
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def power(self, n: int) -> "MoebiusMap":
        """n-th matrix power M^n, in closed form when the eigenvalues are
        rational.

        The eigenvalues (a + d +- r)/2 are rational exactly when the
        discriminant is a rational square r^2, the paper's scope.  Then
        Sylvester's formula gives each entry from two rational powers:
        (l1^n (M - l2 I) - l2^n (M - l1 I)) / r for distinct eigenvalues,
        l^(n-1) (n M - (n-1) l I) for a fused eigenvalue l.  The formula is
        applied entry by entry: the powers need no gcd, and each product
        after them pairs a large operand with a small one.  Any other map is
        powered by repeated squaring.  At n = 0 each way gives I:
        (l1 - l2) I / r, l^-1 l I (det = l^2 != 0), and no squaring.
        Negative n powers the adjugate det M^-1, so power(-n) acts as f^-n
        but its coefficients are det^n M^-n, not those of M^-n.  det M^n =
        (det M)^n != 0, so the closed form skips the ad - bc check too.
        """
        if n < 0:
            return self.inverse().power(-n)
        root = is_perfect_square(discriminant(self))
        if root is not None:
            entries = zip(self.coefficients(), (1, 0, 0, 1))
            half_trace = (self.a + self.d) / 2
            if root == 0:
                scale = half_trace ** (n - 1)
                return MoebiusMap._unchecked(
                    *(scale * (n * x - (n - 1) * half_trace * e) for x, e in entries)
                )
            l1, l2 = half_trace + root / 2, half_trace - root / 2
            p1, p2 = l1**n, l2**n
            return MoebiusMap._unchecked(
                *((p1 * (x - l2 * e) - p2 * (x - l1 * e)) / root for x, e in entries)
            )
        result = MoebiusMap.identity()
        base = self
        while n:
            if n & 1:
                result = result.compose(base)
            n >>= 1
            if n:
                base = base.compose(base)
        return result

    def rescale_to_unit_det(self) -> "MoebiusMap":
        """Divide all coefficients by r where det = r^2 > 0.

        The rescaled map is pointwise equal to the original and has det 1.
        """
        root = is_perfect_square(self.det)
        if root is None:
            raise NonSquareDeterminant(
                f"det = {shown(self.det)} is not the square of a rational"
            )
        return MoebiusMap(self.a / root, self.b / root, self.c / root, self.d / root)

    def coefficients(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)

    def to_dict(self) -> dict:
        return {name: str(getattr(self, name)) for name in ("a", "b", "c", "d")}


class FixedPoints(NamedTuple):
    """Rational solutions of f(x) = x.

    `points` holds one entry when the two roots fuse (zero discriminant)
    and two entries in ascending order otherwise.
    """

    points: tuple[Fraction, ...]

    @property
    def fused(self) -> bool:
        return len(self.points) == 1

    def to_dict(self) -> dict:
        return {"fused": self.fused, "points": [str(x) for x in self.points]}


def discriminant(m: MoebiusMap) -> Fraction:
    """(a - d)^2 + 4bc; equals trace^2 - 4 det."""
    return (m.a - m.d) ** 2 + 4 * m.b * m.c


def fixed_points(m: MoebiusMap) -> FixedPoints:
    """Roots of c x^2 + (d - a) x - b = 0, exact.

    Requires c != 0 (the affine case is out of scope) and a rational square
    discriminant (otherwise the fixed points leave Q).  On the cleared
    matrix they are (A - D -+ r)/2C with r^2 = (A - D)^2 + 4BC, ascending
    once r takes the sign of C.
    """
    if m.c == 0:
        raise CIsZero("fixed-point analysis needs c != 0")
    a, b, c, d = m._matrix()
    disc = (a - d) ** 2 + 4 * b * c
    root = math.isqrt(disc) if disc >= 0 else -1
    if root * root != disc:
        raise NonRationalFixedPoints(
            f"discriminant {shown(discriminant(m))} is not a rational square"
        )
    if root == 0:
        return FixedPoints((Fraction(a - d, 2 * c),))
    if c < 0:
        root = -root
    return FixedPoints((Fraction(a - d - root, 2 * c), Fraction(a - d + root, 2 * c)))


def cross_ratio(
    x1: RationalLike, x2: RationalLike, x3: RationalLike, x4: RationalLike
) -> Fraction:
    """((x1 - x3)(x2 - x4)) / ((x1 - x4)(x2 - x3)), exact."""
    x1, x2, x3, x4 = map(rational, (x1, x2, x3, x4))
    den = (x1 - x4) * (x2 - x3)
    if den == 0:
        raise DegeneratePoints("cross-ratio needs x1 != x4 and x2 != x3")
    return ((x1 - x3) * (x2 - x4)) / den


def unit_sign(sign: int) -> int:
    """`sign`, which must be +1 or -1 (InputError otherwise)."""
    if sign not in (1, -1):
        raise InputError(f"sign must be +1 or -1, got {shown(sign)}")
    return sign


def modular_family(k: int, sign: int, param: int) -> MoebiusMap:
    """One of the five integer det-1 families, k in 1..5.

    `sign` (+1 or -1) picks the upper or lower symbol choice, `param` is the
    family's free integer (c for families 1, 3, 5; a for families 2, 4).
    """
    if k not in (1, 2, 3, 4, 5):
        raise InputError(f"family index must be 1..5, got {shown(k)}")
    s = unit_sign(sign)
    t = rational(param)
    if t.denominator != 1:
        raise InputError(f"family parameter must be an integer, got {shown(t)}")
    t = t.numerator
    families = (
        (s, 0, t, s),
        (t, t - s, -t + s, -t + 2 * s),
        (-t + s, -t, t, t + s),
        (t, -t + s, t - s, -t + 2 * s),
        (t + s, -t, t, -t + s),
    )
    return MoebiusMap(*families[k - 1])
