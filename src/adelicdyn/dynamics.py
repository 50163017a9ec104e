"""Exact orbits, Siegel disks, basin sweeps, adele steps and the product
formula.

Iteration never leaves the rationals: every orbit point and every distance
to the reference fixed point is an exact Fraction, so statements like "the
sphere is invariant" are literal equality checks.  Orbits are stepped as an
integer matrix acting on the point's num/den pair, each step reduced by a
gcd against the matrix's det, since the adjugate maps the new pair to det
times the old, coprime one, so the new pair's gcd divides det.  Every
recorded x and dist is still an exact, canonical Fraction.  A bit-size
guard aborts runaway orbits instead of falling back to floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .classification import Stability, classify_at_place
from .errors import (
    CIsZero,
    NonIntegralTail,
    NotAFixedPoint,
    NotIndifferent,
    PoleAtPlace,
    PoleInput,
    ResourceLimitError,
    ZeroInput,
)
from .exact import (
    DEFAULT_FACTOR_BOUND,
    RationalLike,
    coprime_fraction,
    factorize,
    int_digit_limit,
    strip_prime,
)
from .moebius import MoebiusMap
from .padic import REAL, Place, norm_support, place_norm, valuation

DEFAULT_MAX_STEPS = 10_000
#: The largest bit size whose integers print within int_digit_limit()
#: decimal digits (10^6 where the interpreter has no limit); the default
#: and the cap of the CLI's --bit-guard.
DEFAULT_BIT_GUARD = (
    (10 ** int_digit_limit()).bit_length() - 1 if int_digit_limit() else 10**6
)
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

    The map's denominators are cleared once into an integer matrix
    (a, b, c, d), which acts on the point as the pair num/den: a step is
    (a num + b den) / (c num + d den), whose gcd divides det because the
    adjugate maps that pair to det (num, den) with num, den coprime, so it
    is gcd(gcd(a num + b den, det), c num + d den), a gcd against det.
    The distance comes from the integer num xi_den - xi_num den; at a
    p-adic place "the distance decreased" is decided on its valuation.
    Every recorded x and dist is still an exact, canonical Fraction.
    """
    x0, xi = Fraction(x0), Fraction(xi)
    if m.apply(xi) != xi:
        raise NotAFixedPoint(f"{xi} is not fixed by the map")
    scale = math.lcm(*(k.denominator for k in m.coefficients()))
    a, b, c, d = (k.numerator * (scale // k.denominator) for k in m.coefficients())
    det = a * d - b * c
    xi_num, xi_den = xi.numerator, xi.denominator
    # distance(num, den) is (dist, rank): rank orders the distances as dist
    # does, so a step's distance decreased iff its rank is below the last
    if v.is_real:

        def distance(num: int, den: int) -> tuple[Fraction, Fraction]:
            dist = Fraction(abs(num * xi_den - xi_num * den), den * xi_den)
            return dist, dist

    else:
        p = v.p
        xi_den_nu = valuation(xi_den, p)
        norms: dict[int, Fraction] = {}  # p^-nu by nu, for this call only

        def distance(num: int, den: int) -> tuple[Fraction, int | None]:
            # rank -nu, the integer exponent of dist = p^-nu; x = xi only
            # at a start that ends the orbit at once, so rank None there is
            # never compared
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
                norm = norms[nu] = Fraction(p) ** -nu
            return norm, -nu

    window, threshold = WINDOW, CONVERGENCE_THRESHOLD
    # dist has at most xi's bits + 1 more bits than x (its parts divide
    # num xi_den - xi_num den or den xi_den), so only an x longer than
    # `near` can trip the guard
    near = bit_guard - max(xi_num.bit_length(), xi_den.bit_length()) - 1
    num, den = x0.numerator, x0.denominator
    dist, rank = distance(num, den)
    size = max(k.bit_length() for k in (num, den, dist.numerator, dist.denominator))
    if size > bit_guard:
        raise ResourceLimitError(
            f"the orbit starts with a {size}-bit numerator or denominator,"
            f" above the bit guard of {bit_guard} bits"
        )
    steps = [Step(0, x0, dist)]
    terminated = Termination.MAX_STEPS
    decreasing_run = 0
    if x0 == xi:
        terminated = Termination.CONVERGED
    else:
        for n in range(1, max_steps + 1):
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
            x = coprime_fraction(num, den)
            last_rank = rank
            dist, rank = distance(num, den)
            if (num.bit_length() > near or den.bit_length() > near) and max(
                k.bit_length() for k in (num, den, dist.numerator, dist.denominator)
            ) > bit_guard:
                terminated = Termination.OVERFLOW_GUARD
                break
            decreasing_run = decreasing_run + 1 if rank < last_rank else 0
            steps.append(Step(n, x, dist))
            if decreasing_run >= window and dist < threshold:
                terminated = Termination.CONVERGED
                break
    return TrajectoryRecord(v, xi, tuple(steps), terminated)


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
        return {
            "window": self.window,
            "strictly_decreasing": self.strictly_decreasing,
            "strictly_increasing": self.strictly_increasing,
            "constant_run": self.constant_run,
            "final_dist": str(self.final_dist),
            "start_inside_radius": self.start_inside_radius,
        }


class BehaviorVerdict(NamedTuple):
    kind: VerdictKind
    evidence: BehaviorEvidence

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "evidence": self.evidence.to_dict()}


def _locality_radius(m: MoebiusMap, xi: Fraction, v: Place) -> Fraction | None:
    """|c xi + d|_v / |c|_v, the distance from xi to the pole; None if c = 0."""
    if m.c == 0:
        return None
    return place_norm(m.c * xi + m.d, v) / place_norm(m.c, v)


def detect_behavior(t: TrajectoryRecord, m: MoebiusMap) -> BehaviorVerdict:
    """Classify what the recorded orbit did.

    Converged means the orbit stopped as converged in `iterate_at_place`,
    which tests for convergence after every step it records.  Any other
    orbit with fewer than WINDOW steps (an early pole hit, the bit guard, or
    a small step budget) is undetermined.  Otherwise sphere-invariant means
    the distance never changed at all, and escape is only claimed for
    orbits that strictly grow over the last WINDOW steps after starting
    strictly inside the locality radius, where repulsion is actually
    guaranteed; strict growth from further out stays undetermined.
    """
    dists = t.distances()
    rho = _locality_radius(m, t.xi, t.place)
    inside = None if rho is None else dists[0] < rho
    used = min(WINDOW, len(dists) - 1)
    tail = dists[-(used + 1) :]
    pairs = list(zip(tail, tail[1:]))
    constant_run = 1
    while constant_run < len(dists) and dists[-constant_run - 1] == dists[-1]:
        constant_run += 1
    evidence = BehaviorEvidence(
        window=used,
        strictly_decreasing=bool(pairs) and all(b < a for a, b in pairs),
        strictly_increasing=bool(pairs) and all(b > a for a, b in pairs),
        constant_run=constant_run,
        final_dist=dists[-1],
        start_inside_radius=inside,
    )
    if t.terminated_by is Termination.CONVERGED:
        kind = VerdictKind.CONVERGES
    elif used < WINDOW:
        kind = VerdictKind.UNDETERMINED
    elif constant_run == len(dists):
        kind = VerdictKind.SPHERE_INVARIANT
    elif evidence.strictly_increasing and inside:
        kind = VerdictKind.ESCAPES
    else:
        kind = VerdictKind.UNDETERMINED
    return BehaviorVerdict(kind, evidence)


def local_multiplier_radius(m: MoebiusMap, xi: RationalLike, p: int) -> Fraction:
    """Radius of exact linearization at a finite place.

    From f(x) - xi = (x - xi) det / ((cx + d)(c xi + d)): strictly inside
    |x - xi|_p < |c xi + d|_p / |c|_p the ultrametric forces
    |cx + d|_p = |c xi + d|_p, so one step scales the distance by exactly
    |f'(xi)|_p.
    """
    xi = Fraction(xi)
    if m.c == 0:
        raise CIsZero("locality radius needs c != 0")
    if m.c * xi + m.d == 0:
        raise PoleInput(f"{xi} is the pole of the map")
    return _locality_radius(m, xi, Place(p))


def siegel_max_radius(m: MoebiusMap, xi: RationalLike, p: int) -> Fraction:
    """Largest radius within which every sphere around xi is invariant.

    Defined only where xi is indifferent; equals the linearization radius,
    since there |f(x) - xi|_p = |x - xi|_p exactly.
    """
    xi = Fraction(xi)
    cls = classify_at_place(m, xi, Place(p))
    if cls.kind is not Stability.INDIFFERENT:
        raise NotIndifferent(
            f"|f'({xi})|_{p} = {cls.multiplier_norm}, not 1"
        )
    return local_multiplier_radius(m, xi, p)


class BasinPoint(NamedTuple):
    x0: Fraction
    verdict: BehaviorVerdict
    steps_used: int

    def to_dict(self) -> dict:
        return {
            "x0": str(self.x0),
            "verdict": self.verdict.to_dict(),
            "steps_used": self.steps_used,
        }


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
    once, the pole skipped.  Each orbit comes from `iterate_at_place` and
    its verdict from `detect_behavior`, so a trajectory shorter than WINDOW
    steps (early pole hit or overflow) is undetermined rather than raising;
    only a start past the bit guard raises.
    """
    xi = Fraction(xi)
    pole = m.pole
    out = []
    for den in range(1, height + 1):
        for num in range(-height, height + 1):
            if math.gcd(abs(num), den) != 1:
                continue
            x0 = Fraction(num, den)
            if pole is not None and x0 == pole:
                continue
            record = iterate_at_place(m, x0, xi, v, max_steps, bit_guard)
            verdict = detect_behavior(record, m)
            out.append(BasinPoint(x0, verdict, len(record.steps) - 1))
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
    x0 = Fraction(x0)
    image = m.apply(x0)
    primes = set(factorize(x0.denominator, bound).primes())
    primes.update(factorize(image.denominator, bound).primes())
    return (max(primes) if primes else 1, tuple(sorted(primes)))


@dataclass(frozen=True)
class AdelePoint:
    """Adele with rational components.

    Explicit values at the real place and at finitely many listed primes;
    at every unlisted prime the component is the shared rational
    `elsewhere`, which must be p-integral there (checked at construction,
    which is what keeps the non-integral support finite).
    """

    real: Fraction
    finite: dict[int, Fraction]
    elsewhere: Fraction

    def __post_init__(self):
        object.__setattr__(self, "real", Fraction(self.real))
        object.__setattr__(
            self,
            "finite",
            {p: Fraction(x) for p, x in self.finite.items()},
        )
        object.__setattr__(self, "elsewhere", Fraction(self.elsewhere))
        # strip the listed primes from the tail denominator; whatever is
        # left is made of unlisted primes where the tail is not integral
        rest = self.elsewhere.denominator
        for p in self.finite:
            Place(p)  # validates primality
            rest, _ = strip_prime(rest, p)
        if rest != 1:
            raise NonIntegralTail(
                f"{self.elsewhere} is not p-integral at the unlisted primes"
                f" p dividing {rest}"
            )

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
    """The diagonal embedding of one rational, listing its denominator primes."""
    r = Fraction(r)
    listed = factorize(r.denominator, bound).primes()
    return AdelePoint(real=r, finite={p: r for p in listed}, elsewhere=r)


def step_adele(
    m: MoebiusMap, x: AdelePoint, bound: int = DEFAULT_FACTOR_BOUND
) -> AdelePoint:
    """Apply the map componentwise, growing the listed set as needed.

    Any prime where the shared tail value stops being integral after the
    step becomes listed, so the output satisfies the adele restriction
    again.
    """
    pole = m.pole
    if pole is not None:
        if x.real == pole:
            raise PoleAtPlace(REAL)
        for p in x.listed_primes():
            if x.finite[p] == pole:
                raise PoleAtPlace(Place(p))
        if x.elsewhere == pole:
            raise PoleAtPlace(None, "pole hit at every unlisted place")
    new_elsewhere = m.apply(x.elsewhere)
    new_finite = {p: m.apply(xp) for p, xp in x.finite.items()}
    for p in factorize(new_elsewhere.denominator, bound).primes():
        if p not in new_finite:
            new_finite[p] = new_elsewhere
    return AdelePoint(
        real=m.apply(x.real), finite=new_finite, elsewhere=new_elsewhere
    )


class ProductFormulaReport(NamedTuple):
    """Per-place factors of |r|; their product is 1 for every nonzero r."""

    r: Fraction
    factors: tuple[tuple[Place, Fraction], ...]
    product: Fraction

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
    r = Fraction(r)
    factors = norm_support(r, bound)
    product = math.prod(norm for _, norm in factors)
    return ProductFormulaReport(r=r, factors=factors, product=product)


def product_norm(r: RationalLike, bound: int = DEFAULT_FACTOR_BOUND) -> Fraction:
    """|r| over the ideles: |r|_inf times |r|_p at every prime dividing r."""
    return verify_product_formula(r, bound).product
