"""Exact orbits, Siegel disks, basin sweeps, adele steps and the product
formula.

Iteration never leaves the rationals: every orbit point and every distance
to the reference fixed point is an exact Fraction, so statements like "the
sphere is invariant" are literal equality checks.  An orbit step is
`MoebiusMap.apply`'s, on the map's cleared integer matrix (the `moebius`
docstring states the rule).  Every recorded x and dist is still an exact,
canonical Fraction.  One helper, `_local`, reads a checked fixed point's
multiplier norm |f'(xi)|_v and linearization radius |c xi + d|_v / |c|_v
(none for c = 0: the disk is everything); the kernel's step exponents, the
verdicts' test |f'(xi)|_v > 1 and both public radii come from it.  At a
p-adic place an orbit step strictly inside the disk scales the distance by
exactly |f'(xi)|_p, as `local_multiplier_radius` proves, so the kernel
steps the distance's exponent there and computes it only at the start and
outside the disk.  A bit-size guard aborts runaway orbits instead of
falling back to floating point.  A basin sweep checks xi once, and its one
orbit kernel records only distances.  An adele step applies the map once to
each distinct component value, which also finds the pole, and the adeles
the library builds itself skip the checks of `AdelePoint(...)`: their
primes are proven once, by `factorize` or by the first constructor.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from itertools import repeat
from types import MappingProxyType
from typing import Callable, NamedTuple

from .errors import (
    CIsZero,
    NonIntegralTail,
    NotIndifferent,
    PoleAtPlace,
    PoleInput,
    ResourceLimitError,
    ZeroInput,
)
from .exact import (
    DEFAULT_BIT_GUARD,
    DEFAULT_FACTOR_BOUND,
    DEFAULT_MAX_STEPS,
    RationalLike,
    Value,
    coprime_fraction,
    factorize,
    prime_power,
    rational,
    shown,
    strip_prime,
)
from .moebius import MoebiusMap
from .padic import INFINITE, REAL, Place, _exponent, norm_support, place_norm

__all__ = [
    "AdelePoint",
    "BasinPoint",
    "BehaviorEvidence",
    "BehaviorVerdict",
    "ProductFormulaReport",
    "Step",
    "Termination",
    "TrajectoryRecord",
    "VerdictKind",
    "admissible_bound",
    "basin_sample",
    "detect_behavior",
    "iterate_at_place",
    "local_multiplier_radius",
    "principal_adele",
    "product_norm",
    "siegel_max_radius",
    "step_adele",
    "verify_product_formula",
]

#: An orbit has converged once its distance to xi has strictly decreased
#: for WINDOW consecutive steps and is below CONVERGENCE_THRESHOLD; every
#: other verdict is read from the last WINDOW steps of the orbit.
WINDOW = 16
CONVERGENCE_THRESHOLD = Fraction(1, 2**40)


class Termination(str, Enum):
    MAX_STEPS = "max_steps"
    POLE_HIT = "pole_hit"
    OVERFLOW_GUARD = "overflow_guard"
    CONVERGED = "converged"


class Step(NamedTuple):
    n: int
    x: Fraction
    dist: Fraction


class TrajectoryRecord(NamedTuple):
    """Exact orbit at one place with per-step distance to a fixed point."""

    place: Place
    xi: Fraction
    steps: tuple[Step, ...]
    terminated_by: Termination

    def distances(self) -> list[Fraction]:
        return [s.dist for s in self.steps]


def _bit_size(num: int, den: int, dist: Fraction) -> int:
    """What the bit guard measures: the longest part of x = num/den and dist."""
    return max(k.bit_length() for k in (num, den, dist.numerator, dist.denominator))


def iterate_at_place(
    m: MoebiusMap,
    x0: RationalLike,
    xi: RationalLike,
    v: Place,
    max_steps: int = DEFAULT_MAX_STEPS,
    bit_guard: int = DEFAULT_BIT_GUARD,
) -> TrajectoryRecord:
    """Run x, f(x), f(f(x)), ... recording |x_n - xi|_v at every step.

    Poles are recorded as a termination rather than raised, so a sweep over
    many starting points never aborts.  The orbit stops as converged when
    it starts on xi, or once the distance has strictly decreased for
    WINDOW consecutive steps and sits below CONVERGENCE_THRESHOLD
    (everything after is fixed-point approach, and sizes would grow without
    bound).  This is the only convergence test in the library.  The orbit
    stops by the bit guard before recording a step whose x or dist has a
    numerator or denominator longer than `bit_guard` bits; dist can outgrow
    x by the bits of xi.  A start (step 0) that already passes the guard
    raises ResourceLimitError.  At the default every recorded value prints.
    x0 is read, xi checked, and the orbit run once by `_orbit_kernel`.
    """
    x0, xi = rational(x0), m.check_fixed_point(xi)
    xs, dists, terminated = _orbit_kernel(m, xi, v, max_steps, bit_guard, True)[0](x0)
    steps = tuple(map(tuple.__new__, repeat(Step), zip(range(len(xs)), xs, dists)))
    return TrajectoryRecord(v, xi, steps, terminated)


def _orbit_kernel(
    m: MoebiusMap, xi: Fraction, v: Place, max_steps: int, bit_guard: int, keep_xs: bool
) -> tuple[
    Callable[[Fraction], tuple[list[Fraction] | None, list[Fraction], Termination]],
    Fraction | None,
    bool,
]:
    """(run, radius, |f'(xi)|_v > 1) for a checked xi, the last two `_local`'s;
    run(x0) -> (xs, dists, terminated) is x0's orbit, xs None unless
    `keep_xs`.  All that does not depend on x0 is prepared here.

    The map is cleared once, and a step is `MoebiusMap.apply`'s, inline on
    the pair num/den.  The distance comes from the integer
    num xi_den - xi_num den; at a p-adic place "the distance decreased" is
    decided on its valuation.  There, from a previous distance p^-nu
    strictly inside the linearization disk (nu > rho, with p^-rho the
    radius), the next is exactly p^-(nu + mu), with p^-mu = |f'(xi)|_p, by
    the rule that `local_multiplier_radius` proves; the distance is
    computed at the start, outside the disk and at the real place.
    """
    norm, radius = _local(m, xi, v)
    a, b, c, d = m._matrix()
    det = a * d - b * c
    xi_num, xi_den = xi.numerator, xi.denominator
    # distance(num, den, last) is (dist, rank): rank orders the distances as
    # dist does, so a step's distance decreased iff its rank is below the
    # last rank, which the start, with no last, leaves at its default
    if v.is_real:

        def distance(num: int, den: int, last=None) -> tuple[Fraction, Fraction]:
            # no rule steps a real distance, so `last` is not read
            # both points are in lowest terms, so with gcd(den, xi_den) = 1 a
            # prime of den divides xi_num den but not num xi_den, so not t,
            # and likewise for xi_den: t/(den xi_den) needs no gcd, and t = 0
            # makes den = xi_den = 1, so 0/1
            t = abs(num * xi_den - xi_num * den)
            canonical = coprime_fraction if math.gcd(den, xi_den) == 1 else Fraction
            dist = canonical(t, den * xi_den)
            return dist, dist

    else:
        p = v.p
        xi_den_nu = strip_prime(xi_den, p)[1]
        norms: dict[int, Fraction] = {}  # p^-nu by nu, shared by every orbit
        mu = -_exponent(p, norm)
        rho = -INFINITE if radius is None else -_exponent(p, radius)  # c = 0: all of Q_p

        def distance(num: int, den: int, last=INFINITE) -> tuple[Fraction, int | None]:
            # rank -nu, the integer exponent of dist = p^-nu; inside the disk
            # it is stepped from the last rank, and the start's INFINITE is
            # outside every disk; x = xi only at a start that ends the orbit
            # at once, so rank None there is never compared
            nu = -last
            if nu > rho:
                nu += mu
            else:
                t = num * xi_den - xi_num * den
                if t == 0:
                    return Fraction(0), None
                nu = -xi_den_nu
                # inline rather than strip_prime: this is the per-step hot path
                while t % p == 0:
                    t //= p
                    nu += 1
                while den % p == 0:
                    den //= p
                    nu -= 1
            norm = norms.get(nu)
            if norm is None:
                norm = norms[nu] = prime_power(p, -nu)
            return norm, -nu

    # dist has at most xi's bits + 1 more bits than x (its parts divide
    # num xi_den - xi_num den or den xi_den), so only an x longer than
    # `near` can trip the guard
    near = bit_guard - max(xi_num.bit_length(), xi_den.bit_length()) - 1

    def run(x0: Fraction):
        num, den = x0.numerator, x0.denominator
        dist, rank = distance(num, den)
        size = _bit_size(num, den, dist)
        if size > bit_guard:
            raise ResourceLimitError(
                f"the orbit starts with a {size}-bit numerator or denominator,"
                f" above the bit guard of {bit_guard} bits"
            )
        xs, dists = [x0] if keep_xs else None, [dist]
        if x0 == xi:
            return xs, dists, Termination.CONVERGED
        terminated = Termination.MAX_STEPS
        decreasing_run = 0
        for _ in range(max_steps):
            new_den = c * num + d * den
            if new_den == 0:  # x is the pole -d/c
                terminated = Termination.POLE_HIT
                break
            num, den = a * num + b * den, new_den
            g = math.gcd(num, det)
            if g != 1:
                g = math.gcd(g, den)
                num, den = num // g, den // g
            if den < 0:
                num, den = -num, -den
            last_rank = rank
            dist, rank = distance(num, den, rank)
            if (num.bit_length() > near or den.bit_length() > near) and (
                _bit_size(num, den, dist) > bit_guard
            ):
                terminated = Termination.OVERFLOW_GUARD
                break
            decreasing_run = decreasing_run + 1 if rank < last_rank else 0
            if xs is not None:
                xs.append(coprime_fraction(num, den))
            dists.append(dist)
            if decreasing_run >= WINDOW and dist < CONVERGENCE_THRESHOLD:
                terminated = Termination.CONVERGED
                break
        return xs, dists, terminated

    return run, radius, norm > 1


class VerdictKind(str, Enum):
    CONVERGES = "converges_to_fixed_point"
    ESCAPES = "escapes"
    SPHERE_INVARIANT = "sphere_invariant"
    UNDETERMINED = "undetermined"


class BehaviorEvidence(NamedTuple):
    """Window statistics the verdict was based on."""

    window: int
    strictly_decreasing: bool
    strictly_increasing: bool
    constant_run: int
    final_dist: Fraction
    start_inside_radius: bool | None

    def to_dict(self) -> dict:
        return {**self._asdict(), "final_dist": str(self.final_dist)}


class BehaviorVerdict(NamedTuple):
    kind: VerdictKind
    evidence: BehaviorEvidence

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "evidence": self.evidence.to_dict()}


def _local(m: MoebiusMap, xi: Fraction, v: Place) -> tuple[Fraction, Fraction | None]:
    """(|f'(xi)|_v, radius) at a checked fixed point xi: the radius
    |c xi + d|_v / |c|_v is the distance from xi to the pole, None if c = 0."""
    radius = None if m.c == 0 else place_norm(xi - m.pole, v)
    return place_norm(m.derivative_at(xi), v), radius


def _needs_c(m: MoebiusMap) -> MoebiusMap:
    """m, once it passes the one check of a public locality radius: c != 0."""
    if m.c == 0:
        raise CIsZero("locality radius needs c != 0")
    return m


def detect_behavior(t: TrajectoryRecord, m: MoebiusMap) -> BehaviorVerdict:
    """Classify what the recorded orbit did.

    Converged means the orbit stopped as converged in `iterate_at_place`,
    which tests for convergence after every step it records.  Any other
    orbit with fewer than WINDOW steps (an early pole hit, the bit guard, or
    a small step budget) is undetermined.  Otherwise sphere-invariant means
    the distance never changed at all, and escape is only claimed for
    orbits that strictly grow over the last WINDOW steps after starting
    strictly inside the locality radius around an xi with |f'(xi)|_v > 1.
    At a finite place such growth implies |f'(xi)|_v > 1 (inside the radius
    the ultrametric scales each step's distance by it); at the real place an
    orbit can grow for a window near an attracting or fused xi.
    """
    norm, radius = _local(m, t.xi, t.place)
    return _verdict(t.distances(), t.terminated_by, radius, norm > 1)


def _verdict(
    dists: list[Fraction], terminated_by: Termination, radius: Fraction | None, repels: bool
) -> BehaviorVerdict:
    """`detect_behavior` from an orbit's distances, stop, radius and |f'(xi)|_v > 1."""
    inside = None if radius is None else dists[0] < radius
    used = min(WINDOW, len(dists) - 1)
    tail = dists[-(used + 1) :]
    pairs = list(zip(tail, tail[1:]))
    # `in` tests `is` before `==`: p-adic distances are shared objects of
    # the orbit kernel's p^-nu table
    last, constant_run = dists[-1], 1
    while constant_run < len(dists) and dists[-constant_run - 1] in (last,):
        constant_run += 1
    evidence = BehaviorEvidence(
        window=used,
        strictly_decreasing=bool(pairs) and all(b < a for a, b in pairs),
        strictly_increasing=bool(pairs) and all(b > a for a, b in pairs),
        constant_run=constant_run,
        final_dist=dists[-1],
        start_inside_radius=inside,
    )
    if terminated_by is Termination.CONVERGED:
        kind = VerdictKind.CONVERGES
    elif used < WINDOW:
        kind = VerdictKind.UNDETERMINED
    elif constant_run == len(dists):
        kind = VerdictKind.SPHERE_INVARIANT
    elif evidence.strictly_increasing and inside and repels:
        kind = VerdictKind.ESCAPES
    else:
        kind = VerdictKind.UNDETERMINED
    return BehaviorVerdict(kind, evidence)


def local_multiplier_radius(m: MoebiusMap, xi: RationalLike, p: int) -> Fraction:
    """Radius of exact linearization at a finite place.

    From f(x) - xi = (x - xi) det / ((cx + d)(c xi + d)): strictly inside
    |x - xi|_p < |c xi + d|_p / |c|_p the ultrametric forces
    |cx + d|_p = |c xi + d|_p, so one step scales the distance by exactly
    |f'(xi)|_p.  The orbit kernel relies on this rule: inside the radius it
    steps a p-adic distance by |f'(xi)|_p instead of computing it.
    """
    return _local(m, _needs_c(m).check_fixed_point(xi), Place(p))[1]


def siegel_max_radius(m: MoebiusMap, xi: RationalLike, p: int) -> Fraction:
    """Largest radius within which every sphere around xi is invariant.

    Defined only where xi is indifferent; equals the linearization radius,
    since there |f(x) - xi|_p = |x - xi|_p exactly.
    """
    xi, v = rational(xi), Place(p)
    norm, radius = _local(m, m.check_fixed_point(xi), v)
    if norm != 1:
        raise NotIndifferent(f"|f'({shown(xi)})|_{shown(p)} = {shown(norm)}, not 1")
    _needs_c(m)
    return radius


class BasinPoint(NamedTuple):
    x0: Fraction
    verdict: BehaviorVerdict
    steps_used: int

    def to_dict(self) -> dict:
        return {**self._asdict(), "x0": str(self.x0), "verdict": self.verdict.to_dict()}


def basin_sample(
    m: MoebiusMap,
    xi: RationalLike,
    v: Place,
    height: int,
    max_steps: int = DEFAULT_MAX_STEPS,
    bit_guard: int = DEFAULT_BIT_GUARD,
) -> list[BasinPoint]:
    """Verdict for every canonical fraction num/den with |num|, den <= height.

    Enumeration is by denominator then numerator, each rational exactly
    once, the pole skipped.  xi is checked once, even with no start; each
    point is what `iterate_at_place` and `detect_behavior` give, from one
    orbit kernel and one locality radius.  So a trajectory shorter than
    WINDOW steps (early pole hit or overflow) is undetermined rather than
    raising; only a start past the bit guard raises.
    """
    xi = m.check_fixed_point(xi)
    orbit, radius, repels = _orbit_kernel(m, xi, v, max_steps, bit_guard, False)
    pole = m.pole
    out = []
    for den in range(1, height + 1):
        for num in range(-height, height + 1):
            x0 = Fraction(num, den)
            if x0.denominator != den or x0 == pole:  # not in lowest terms, or the pole
                continue
            _, dists, terminated = orbit(x0)
            out.append(BasinPoint(x0, _verdict(dists, terminated, radius, repels), len(dists) - 1))
    return out


def admissible_bound(
    m: MoebiusMap, x0: RationalLike, bound: int = DEFAULT_FACTOR_BOUND
) -> tuple[int, tuple[int, ...]]:
    """Primes where x0 or f(x0) is non-integral, and their maximum q.

    For every prime p > q both |x0|_p <= 1 and |f(x0)|_p <= 1, which is the
    per-point bound an adelic step needs; q is 1 when both values are
    already integral everywhere.  Needs c != 0 and d != 0.
    """
    if m.c == 0:
        raise CIsZero("the admissibility bound assumes c != 0")
    if m.d == 0:
        raise ZeroInput("the admissibility bound assumes d != 0")
    x0 = rational(x0)
    image = m.apply(x0)
    primes = set(factorize(x0.denominator, bound).primes())
    primes.update(factorize(image.denominator, bound).primes())
    return (max(primes) if primes else 1, tuple(sorted(primes)))


class AdelePoint(Value):
    """Adele with rational components.

    Explicit values at the real place and at finitely many listed primes;
    at every unlisted prime the component is the shared rational
    `elsewhere`, which must be p-integral there (checked at construction,
    which is what keeps the non-integral support finite).  `finite` is a
    read-only view of the listed components.
    """

    __slots__ = ("real", "finite", "elsewhere")
    real: Fraction
    finite: MappingProxyType[int, Fraction]
    elsewhere: Fraction

    def __init__(
        self, real: RationalLike, finite: dict[int, RationalLike], elsewhere: RationalLike
    ):
        real, elsewhere = rational(real), rational(elsewhere)
        finite = {p: rational(x) for p, x in finite.items()}
        # strip the listed primes from the tail denominator; whatever is
        # left is made of unlisted primes where the tail is not integral
        rest = elsewhere.denominator
        for p in finite:
            Place(p)  # validates primality
            rest, _ = strip_prime(rest, p)
        if rest != 1:
            raise NonIntegralTail(
                f"{shown(elsewhere)} is not p-integral at the unlisted primes"
                f" p dividing {shown(rest)}"
            )
        self._set(real, MappingProxyType(finite), elsewhere)

    @classmethod
    def _proven(
        cls, real: Fraction, finite: dict[int, Fraction], elsewhere: Fraction
    ) -> "AdelePoint":
        """An adele from Fraction parts known to hold: every key of `finite`
        a proven prime and `elsewhere` integral at every other prime."""
        return cls._unchecked(real, MappingProxyType(finite), elsewhere)

    def __hash__(self) -> int:
        return hash((self.real, frozenset(self.finite.items()), self.elsewhere))

    def __reduce__(self):
        return AdelePoint, (self.real, dict(self.finite), self.elsewhere)

    def listed_primes(self) -> tuple[int, ...]:
        return tuple(sorted(self.finite))

    def component(self, v: Place) -> Fraction:
        if v.is_real:
            return self.real
        return self.finite.get(v.p, self.elsewhere)

    def to_dict(self) -> dict:
        return {
            "real": str(self.real),
            "components": [
                {"p": p, "x": str(self.finite[p])} for p in self.listed_primes()
            ],
            "elsewhere": str(self.elsewhere),
        }


def principal_adele(r: RationalLike, bound: int = DEFAULT_FACTOR_BOUND) -> AdelePoint:
    """The diagonal embedding of one rational, listing its denominator primes.

    Its primes are those `factorize` proved, and are not proven again.
    """
    r = rational(r)
    listed = factorize(r.denominator, bound).primes()
    return AdelePoint._proven(r, {p: r for p in listed}, r)


def step_adele(
    m: MoebiusMap, x: AdelePoint, bound: int = DEFAULT_FACTOR_BOUND
) -> AdelePoint:
    """Apply the map componentwise, growing the listed set as needed.

    Any prime where the shared tail value stops being integral after the
    step becomes listed, so the output satisfies the adele restriction
    again.  A pole is reported at the first place that holds it: the real
    place, then the listed primes ascending, then every unlisted place.
    Each distinct component value is mapped once, and the pole is the value
    whose `MoebiusMap.apply` raises `PoleInput`, so a step of a principal
    adele costs one application and no separate pole test; the listed
    primes are proven already, and the new ones by `factorize`, so none is
    proven again.
    """
    # the distinct component values, keyed by their parts: Fraction's own
    # hash takes a modular inverse on every call
    values = {(r.numerator, r.denominator): r for r in (x.real, x.elsewhere, *x.finite.values())}
    images: dict[tuple[int, int], Fraction] = {}
    pole = None
    for key, r in values.items():
        try:
            images[key] = m.apply(r)
        except PoleInput:  # r is the pole, which at most one value is
            pole = r
            break
    if pole is not None:
        if x.real == pole:
            raise PoleAtPlace(REAL)
        for p in x.listed_primes():
            if x.finite[p] == pole:
                raise PoleAtPlace(Place(p))
        raise PoleAtPlace(None, "pole hit at every unlisted place")

    def image(value: Fraction) -> Fraction:
        return images[value.numerator, value.denominator]

    new_elsewhere = image(x.elsewhere)
    new_finite = {p: image(xp) for p, xp in x.finite.items()}
    for p in factorize(new_elsewhere.denominator, bound).primes():
        new_finite.setdefault(p, new_elsewhere)
    return AdelePoint._proven(image(x.real), new_finite, new_elsewhere)


class ProductFormulaReport(NamedTuple):
    """Per-place factors of |r|; their product is 1 for every nonzero r."""

    r: Fraction
    factors: tuple[tuple[Place, Fraction], ...]

    @property
    def product(self) -> Fraction:
        return math.prod(norm for _, norm in self.factors)

    @property
    def holds(self) -> bool:
        return self.product == 1

    def to_dict(self) -> dict:
        return {
            "r": str(self.r),
            "factors": [
                {"place": str(v), "norm": str(norm)} for v, norm in self.factors
            ],
            "product": str(self.product),
            "holds": self.holds,
        }


def verify_product_formula(
    r: RationalLike, bound: int = DEFAULT_FACTOR_BOUND
) -> ProductFormulaReport:
    """Evidence that |r|_inf * prod_p |r|_p = 1: the factor at every place
    of r's support (`norm_support`), and their exact product."""
    r = rational(r)
    return ProductFormulaReport(r=r, factors=norm_support(r, bound))


def product_norm(r: RationalLike, bound: int = DEFAULT_FACTOR_BOUND) -> Fraction:
    """|r| over the ideles: |r|_inf times |r|_p at every prime dividing r."""
    return verify_product_formula(r, bound).product
