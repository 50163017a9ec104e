"""Moebius maps x -> (ax + b)/(cx + d) with rational coefficients.

A map is identified with its 2x2 coefficient matrix, so composition is the
matrix product and the n-th iterate is a matrix power: in closed form from
the eigenvalues when they are rational (the paper's scope), by repeated
squaring otherwise.  Poles raise errors rather than extending the
rationals by a point at infinity; the scalar type stays closed.  Maps are
kept exactly as constructed (no silent normalization);
`rescale_to_unit_det` is the explicit route to det = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    CIsZero,
    DegeneratePoints,
    InputError,
    NonRationalFixedPoints,
    NonSquareDeterminant,
    PoleInput,
    SingularMap,
)
from .exact import RationalLike, is_perfect_square, parse_rationals


@dataclass(frozen=True)
class MoebiusMap:
    """Coefficients (a, b, c, d) with ad - bc != 0."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.a * self.d - self.b * self.c == 0:
            raise SingularMap(
                f"ad - bc = 0 for ({self.a}, {self.b}, {self.c}, {self.d})"
            )

    @classmethod
    def identity(cls) -> "MoebiusMap":
        return cls(1, 0, 0, 1)

    @classmethod
    def _nonsingular(cls, *entries: Fraction) -> "MoebiusMap":
        """A map from Fraction entries whose det is known to be nonzero.

        Products and powers of maps have det = the product of the dets, so
        they skip the ad - bc check, whose gcds dominate on large entries.
        """
        m = object.__new__(cls)
        for name, x in zip(("a", "b", "c", "d"), entries):
            object.__setattr__(m, name, x)
        return m

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
        if self.c == 0:
            return None
        return -self.d / self.c

    def apply(self, x: RationalLike) -> Fraction:
        x = Fraction(x)
        den = self.c * x + self.d
        if den == 0:
            raise PoleInput(f"{x} is the pole -d/c of the map")
        return (self.a * x + self.b) / den

    def __call__(self, x: RationalLike) -> Fraction:
        return self.apply(x)

    def derivative_at(self, x: RationalLike) -> Fraction:
        """(ad - bc)/(cx + d)^2, exactly."""
        x = Fraction(x)
        den = self.c * x + self.d
        if den == 0:
            raise PoleInput(f"derivative undefined at the pole {x}")
        return self.det / den**2

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        """Matrix product: self.compose(other)(x) == self(other(x))."""
        return MoebiusMap._nonsingular(
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
        powered by repeated squaring.  Negative n powers the adjugate
        det M^-1, so power(-n) acts as f^-n but its coefficients are
        det^n M^-n, not those of M^-n.
        """
        if n < 0:
            return self.inverse().power(-n)
        if n == 0:
            return MoebiusMap.identity()
        root = is_perfect_square(discriminant(self))
        if root is not None:
            entries = zip(self.coefficients(), (1, 0, 0, 1))
            half_trace = (self.a + self.d) / 2
            if root == 0:
                scale = half_trace ** (n - 1)
                return MoebiusMap._nonsingular(
                    *(scale * (n * x - (n - 1) * half_trace * e) for x, e in entries)
                )
            l1, l2 = half_trace + root / 2, half_trace - root / 2
            p1, p2 = l1**n, l2**n
            return MoebiusMap._nonsingular(
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
                f"det = {self.det} is not the square of a rational"
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
    discriminant (otherwise the fixed points leave Q).
    """
    if m.c == 0:
        raise CIsZero("fixed-point analysis needs c != 0")
    disc = discriminant(m)
    root = is_perfect_square(disc)
    if root is None:
        raise NonRationalFixedPoints(
            f"discriminant {disc} is not a rational square"
        )
    if root == 0:
        return FixedPoints(((m.a - m.d) / (2 * m.c),))
    first = (m.a - m.d - root) / (2 * m.c)
    second = (m.a - m.d + root) / (2 * m.c)
    lo, hi = sorted((first, second))
    return FixedPoints((lo, hi))


def cross_ratio(
    x1: RationalLike, x2: RationalLike, x3: RationalLike, x4: RationalLike
) -> Fraction:
    """((x1 - x3)(x2 - x4)) / ((x1 - x4)(x2 - x3)), exact."""
    x1, x2, x3, x4 = (Fraction(x) for x in (x1, x2, x3, x4))
    den = (x1 - x4) * (x2 - x3)
    if den == 0:
        raise DegeneratePoints("cross-ratio needs x1 != x4 and x2 != x3")
    return ((x1 - x3) * (x2 - x4)) / den


def modular_family(k: int, sign: int, param: int) -> MoebiusMap:
    """One of the five integer det-1 families, k in 1..5.

    `sign` (+1 or -1) picks the upper or lower symbol choice, `param` is the
    family's free integer (c for families 1, 3, 5; a for families 2, 4).
    """
    if k not in (1, 2, 3, 4, 5):
        raise InputError(f"family index must be 1..5, got {k}")
    if sign not in (1, -1):
        raise InputError(f"sign must be +1 or -1, got {sign}")
    t = Fraction(param)
    if t.denominator != 1:
        raise InputError(f"family parameter must be an integer, got {param}")
    t = t.numerator
    s = sign
    if k == 1:
        coeffs = (s, 0, t, s)
    elif k == 2:
        coeffs = (t, t - s, -t + s, -t + 2 * s)
    elif k == 3:
        coeffs = (-t + s, -t, t, t + s)
    elif k == 4:
        coeffs = (t, -t + s, t - s, -t + 2 * s)
    else:
        coeffs = (t + s, -t, t, -t + s)
    return MoebiusMap(*coeffs)
