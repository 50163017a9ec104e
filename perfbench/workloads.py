"""The four benchmark workloads: seeded inputs, the timed call, the check.

Each workload is an endless stream of blocks of operations drawn from
`random.Random(seed)`, so every run of a seed sees the same inputs in the
same order, and each block has the same mix of operation kinds and sizes
whatever the seed.  `run` is the only part that
is timed.  `check` compares its output with `oracle`, which shares no code
with the library, and raises `CheckFailed` on any mismatch.

Calls into the library go through attribute lookups on the `adelicdyn`
package at call time, so the wrappers `tracer.Tracer` installs see them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path
from typing import NamedTuple

import adelicdyn as ad

import calibrate
import oracle
from worker import ROOT, child_env

HERE = Path(__file__).resolve().parent

# Fingerprints stand in for megabit integers, which are too slow to print.
_FP = (1 << 61) - 1


def fingerprint(x: Q) -> str:
    return f"{x.numerator % _FP}/{x.denominator % _FP}"


class CheckFailed(Exception):
    """An output disagreed with its oracle."""


class Op(NamedTuple):
    kind: str
    args: tuple


class Outcome(NamedTuple):
    digest: str  # canonical text of the output, hashed into the run digest
    steps: int = 0  # map applications inside orbits
    primes: tuple = ()  # primes for the independent check after the run


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _unit(rng, limit: int, p: int | None = None) -> int:
    """A random integer in 1..limit that p does not divide."""
    while True:
        n = rng.randint(1, limit)
        if p is None or n % p:
            return n


def _small_rational(rng, limit: int, p: int | None = None) -> Q:
    return rng.choice((1, -1)) * Q(_unit(rng, limit, p), _unit(rng, limit, p))


def case_a_coeffs(rng, a_choices, c_limit: int, p: int | None = None):
    """(a, 0, c, 1/a): det 1, fixed points 0 and (1 - d^2)/(c d)."""
    a = Q(rng.choice(a_choices)) * rng.choice((1, -1))
    return (a, Q(0), _small_rational(rng, c_limit, p), 1 / a)


def case_b_coeffs(t: Q):
    """(a, b, b, a) with a = (t + 1/t)/2, b = (t - 1/t)/2: fixed points +-1."""
    a, b = (t + 1 / t) / 2, (t - 1 / t) / 2
    return (a, b, b, a)


ROADMAP_MAP = calibrate.ROADMAP_MAP


class Workload:
    name = ""
    #: fresh interpreters the run starts per operation (cli-oneshot only)
    spawns = False
    #: Operation time allowed between two kernel runs (see calibrate.py):
    #: none by default, so a kernel run follows every operation, which
    #: gave steadier figures than one every 50 ms.
    KERNEL_INTERVAL_S = 0.0
    #: operation kinds whose times are kept as measured (see calibrate.py)
    UNSCALED = frozenset()

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.pending = list(self.block())

    def blocks(self):
        """Endless blocks of operations; runs stop only between blocks, so
        every run has the same mix."""
        while True:
            yield self.pending
            self.pending = list(self.block())

    def block(self):
        raise NotImplementedError

    def kernel(self):
        """The machine-speed kernel for this workload (see calibrate.py)."""
        return calibrate.Kernel(self.name)

    def run(self, op: Op):
        return getattr(self, "run_" + op.kind)(*op.args)

    def check(self, op: Op, out) -> Outcome:
        return getattr(self, "check_" + op.kind)(op.args, out)


class OrbitDeep(Workload):
    """Long sphere orbits and large matrix powers of det-1 hyperbolic maps.

    Every map here has multiplier 4 or 1/4 at its fixed points, so orbit
    operands grow by 2 bits a step and a step count is a bit size: 1000,
    2000 and 4000 steps end at about 2k, 4k and 8k bits.  The orbits start
    on a p-adic sphere around a fixed point at an odd prime, where the
    point is indifferent, so no orbit converges and every one runs its
    full length.  Powers use lower-triangular (case A) maps and exponents
    2^k, which cost k squarings; one more set bit in the exponent adds a
    product of megabit matrices that can triple the time, and a dense
    case B power of 2^19 takes seconds.  Per block of 24 operations
    the mix puts the median on the 2000-step orbits and the 90th
    percentile on the 4000-step orbits; the 2^20 power lies above it,
    so a change to `power` shows in ops_per_s rather than in the
    percentiles.  Power times are not scaled (see calibrate.py).
    """

    name = "orbit-deep"
    # (steps, map): R is 1/2,0,1,2, A a seeded case A map, B a seeded case
    # B map.  The 2000- and 4000-step orbits all use R (with seeded x0),
    # so the median and the 90th percentile sit on operations of one cost
    # each.
    ORBITS = (
        ((1000, "B"), (1000, "B"), (1000, "A"), (1000, "A"), (1000, "R"))
        + ((2000, "R"),) * 10
        + ((4000, "R"),) * 5
    )
    POWERS = (2**16, 2**17, 2**18, 2**20)
    PRIMES = (3, 5, 7, 11, 13)
    UNSCALED = frozenset({"power"})

    def orbit_input(self, steps: int, kind: str, p: int) -> Op:
        rng = self.rng
        if kind == "R":
            coeffs, xi = ROADMAP_MAP, Q(0)
        elif kind == "A":
            coeffs, xi = case_a_coeffs(rng, (Q(1, 2), Q(2)), 6, p), Q(0)
        else:
            t = rng.choice((Q(2), Q(1, 2))) * rng.choice((1, -1))
            coeffs, xi = case_b_coeffs(t), Q(rng.choice((1, -1)))
        # |x0 - xi|_p = p^-e < 1, inside the linearization radius (which
        # is >= 1 for these maps at odd p), so the sphere is invariant
        e = rng.choice((1, 2))
        x0 = xi + rng.choice((1, -1)) * Q(p**e * _unit(rng, 30, p), _unit(rng, 30, p))
        return Op("orbit", (coeffs, x0, xi, p, steps))

    def block(self):
        rng = self.rng
        # Orbits of one length take turns over PRIMES, so every block has
        # the same primes: a 2000-step orbit takes 45 ms at p = 3 and 55 ms
        # at p = 5, and a seeded choice of p moved the median by seed.
        ops = [
            self.orbit_input(steps, kind, self.PRIMES[i % len(self.PRIMES)])
            for i, (steps, kind) in enumerate(self.ORBITS)
        ]
        for n in self.POWERS:
            # the largest power is always the ROADMAP map's, so the run's
            # peak memory does not depend on the seed
            if n in (2**16, 2**20):
                coeffs = ROADMAP_MAP
            else:
                coeffs = case_a_coeffs(rng, (Q(1, 2), Q(2)), 6)
            ops.append(Op("power", (coeffs, n)))
        # a fixed order, so that the peak memory does not depend on the seed
        return ops

    def run_orbit(self, coeffs, x0, xi, p, steps):
        m = ad.MoebiusMap(*coeffs)
        return ad.iterate_at_place(m, x0, xi, ad.Place(p), max_steps=steps)

    def check_orbit(self, args, record) -> Outcome:
        coeffs, x0, xi, p, steps = args
        _expect(record.terminated_by.value == "max_steps", f"orbit stopped: {record.terminated_by}")
        _expect(len(record.steps) == steps + 1, "orbit length")
        start = oracle.norm(x0 - xi, p)
        _expect(all(s.dist == start for s in record.steps), "distance left the sphere")
        _expect(record.steps[1].x == oracle.apply(coeffs, x0), "first step")
        m = ad.MoebiusMap(*coeffs)
        n = steps // 2 + 1
        _expect(record.steps[n].x == m.power(n).apply(x0), f"x_{n} != f^{n}(x0)")
        last = record.steps[-1].x
        return Outcome(f"orbit {steps} {fingerprint(last)}", steps=steps)

    def run_power(self, coeffs, n):
        return ad.MoebiusMap(*coeffs).power(n)

    def check_power(self, args, result) -> Outcome:
        coeffs, n = args
        expected = oracle.lower_triangular_power(coeffs, n)
        _expect(result.coefficients() == expected, f"power {n} differs from closed form")
        return Outcome("power " + " ".join(fingerprint(x) for x in expected))


def _enumerate_basin(height: int, pole) -> list[Q]:
    points = []
    for den in range(1, height + 1):
        for num in range(-height, height + 1):
            if math.gcd(abs(num), den) == 1 and Q(num, den) != pole:
                points.append(Q(num, den))
    return points


def _multiplier(coeffs, xi: Q) -> Q:
    a, b, c, d = coeffs
    return (a * d - b * c) / (c * xi + d) ** 2


def _kind(norm: Q) -> str:
    return "attractive" if norm < 1 else "repelling" if norm > 1 else "indifferent"


def _expected_reports(coeffs) -> list[dict]:
    """`AdelicFixedPointReport.to_dict()` of every fixed point, from the
    definitions: the multiplier's norm at the real place and at each prime
    dividing it."""
    reports = []
    for xi in oracle.fixed_points(coeffs):
        mult = _multiplier(coeffs, xi)
        places = [(str(p), oracle.norm(mult, p)) for p in _prime_divisors(mult)]
        reports.append({
            "xi": str(xi),
            "places": [
                {"place": place, "kind": _kind(norm), "multiplier_norm": str(norm)}
                for place, norm in [("real", abs(mult)), *places]
            ],
            "default": "indifferent",
        })
    return reports


def _prime_divisors(r: Q) -> list[int]:
    """Primes dividing the numerator or denominator of a small rational."""
    out = set()
    for n in (abs(r.numerator), r.denominator):
        p = 2
        while p * p <= n:
            while n % p == 0:
                out.add(p)
                n //= p
            p += 1
        if n > 1:
            out.add(n)
    return sorted(out)


class SweepShallow(Workload):
    """Many short computations on small operands.

    Basin sweeps cover every fraction of height 3 with an explicit cap of
    48 steps: the library default of 10 000 lets undetermined orbits grow
    without end.  Classifications run the adelic report, the per-place
    classification and the cofinite audit of one map; family operations
    build a case A..F map and its closed-form report.  A block holds 4
    family operations (under 0.5 ms), 12 classifications (1-2 ms), a
    sweep at the real place (5-10 ms) and 4 at p-adic places (15-35 ms),
    which puts the median in the middle of the classifications and the
    90th percentile in the middle of the p-adic sweeps.
    """

    name = "sweep-shallow"
    HEIGHT = 3
    MAX_STEPS = 48
    AUDIT_LIMIT = 300
    BASIN_PLACES = (None, 2, 3, 5, 7)
    CLASSIFICATIONS = 12
    FAMILIES = ("A", "B", "C", "D", "E", "F")
    # most operations take about a millisecond, as long as the kernel
    KERNEL_INTERVAL_S = 0.05

    def det1_map(self):
        rng = self.rng
        if rng.random() < 0.5:
            coeffs = case_a_coeffs(rng, (Q(1, 2), Q(2), Q(1, 3), Q(3), Q(2, 3)), 5)
        else:
            t = rng.choice((Q(2), Q(3), Q(1, 2), Q(1, 3), Q(3, 2), Q(5))) * rng.choice((1, -1))
            coeffs = case_b_coeffs(t)
        return coeffs

    def block(self):
        rng = self.rng
        ops = []
        for place in self.BASIN_PLACES:
            coeffs = self.det1_map()
            xi = rng.choice(oracle.fixed_points(coeffs))
            ops.append(Op("basin", (coeffs, xi, place)))
        for _ in range(self.CLASSIFICATIONS):
            coeffs = self.det1_map()
            places = [None]
            for xi in oracle.fixed_points(coeffs):
                places += [p for p in _prime_divisors(_multiplier(coeffs, xi)) if p not in places]
            places += [p for p in (2, 3, 5, 7, 11, 13) if p not in places][:2]
            ops.append(Op("classify", (coeffs, tuple(places))))
        for tag in rng.sample(self.FAMILIES, 4):
            sign = rng.choice((1, -1))
            c = _small_rational(rng, 9)
            a = _small_rational(rng, 9)
            if tag == "A":
                params = (a, c)
            elif tag == "B":
                params = (Q(rng.choice((2, 4, 5, 7)), rng.choice((1, 3))) * sign,)
            elif tag in ("C", "D"):
                params = (sign, c)
            else:
                params = (a, c)
            ops.append(Op("family", (tag, params)))
        rng.shuffle(ops)
        return ops

    def run_basin(self, coeffs, xi, place):
        m = ad.MoebiusMap(*coeffs)
        v = ad.REAL if place is None else ad.Place(place)
        return ad.basin_sample(m, xi, v, self.HEIGHT, max_steps=self.MAX_STEPS)

    def check_basin(self, args, points) -> Outcome:
        coeffs, xi, place = args
        a, b, c, d = coeffs
        pole = -d / c
        expected = _enumerate_basin(self.HEIGHT, pole)
        _expect([pt.x0 for pt in points] == expected, "basin enumeration")
        steps = 0
        for k, point in enumerate(points):
            _expect(0 <= point.steps_used <= self.MAX_STEPS, "steps_used out of range")
            steps += point.steps_used
            if k % 5 == 0:  # recompute every fifth orbit from the definitions
                x = point.x0
                for _ in range(point.steps_used):
                    x = oracle.apply(coeffs, x)
                _expect(
                    point.verdict.evidence.final_dist == oracle.norm(x - xi, place),
                    f"final distance of {point.x0}",
                )
        text = json.dumps([pt.to_dict() for pt in points], sort_keys=True)
        return Outcome("basin " + text, steps=steps)

    def run_classify(self, coeffs, places):
        m = ad.MoebiusMap(*coeffs)
        reports = ad.adelic_report(m)
        per_place = [
            ad.classify_at_place(m, r.xi, ad.REAL if p is None else ad.Place(p))
            for r in reports
            for p in places
        ]
        audits = ad.audit_cofinite_indifference(m, self.AUDIT_LIMIT)
        return reports, per_place, audits

    def check_classify(self, args, out) -> Outcome:
        coeffs, places = args
        reports, per_place, audits = out
        actual = [r.to_dict() for r in reports]
        _expect(actual == _expected_reports(coeffs), "adelic report")
        k = 0
        for r in reports:
            mult = _multiplier(coeffs, r.xi)
            for p in places:
                cls = per_place[k]
                k += 1
                norm = oracle.norm(mult, p)
                _expect(cls.multiplier_norm == norm and cls.kind.value == _kind(norm), f"class at {p}")
                _expect(r.at(cls.place) == cls, f"report disagrees at {p}")
        _expect(all(audit.ok for audit in audits), "audit found offenders")
        return Outcome("classify " + json.dumps(actual, sort_keys=True))

    def run_family(self, tag, params):
        make_map = getattr(ad, f"case_{tag.lower()}_map")
        m = make_map(*params)
        tags = ad.recognize_case(m)
        return m, {t.value: ad.case_predicted_report(t, m) for t in tags}

    def check_family(self, args, out) -> Outcome:
        tag, _ = args
        m, predicted = out
        _expect(tag in predicted, f"case {tag} not recognized")
        expected = _expected_reports(m.coefficients())
        for t, report in predicted.items():
            _expect([r.to_dict() for r in report] == expected, f"case {t} table differs from the oracle's")
        return Outcome(f"family {tag} " + json.dumps(expected, sort_keys=True))


class AdelicFactor(Workload):
    """The exact layer on large integers.

    Product formulas factor rationals whose parts are a small smooth
    number times a prime between 2.5e11 and 5e11, or two primes whose
    smaller one lies between 1e5 and 2e5, so trial division always runs
    to a known depth.  `Place(p)` checks a prime between 5e11 and 1e12
    cold: each prime is drawn once.  Adele orbits step a principal adele
    12 times; inputs whose tail denominator would pass 1e12 are redrawn,
    because beyond it trial division may stop on `FactorizationIncomplete`
    and this workload is defined to have no failing operation.  A block
    holds 6 adele orbits (about 3 ms), 2 cheap product formulas, 6 places
    (about 40 ms) and 3 product formulas of two large primes (about
    200 ms): the median falls among the places and the 90th percentile
    among the large product formulas.
    """

    name = "adelic-factor"
    ADELE_STEPS = 12
    TAIL_LIMIT = 10**12

    def __init__(self, seed):
        self.drawn: set[int] = set()
        super().__init__(seed)

    def fresh_prime(self, lo: int, hi: int) -> int:
        while True:
            p = oracle.next_prime(self.rng.randrange(lo, hi))
            if p < hi and p not in self.drawn:
                self.drawn.add(p)
                return p

    def big_part(self, kind: str) -> int:
        rng = self.rng
        if kind == "prime":
            smooth = rng.choice((1, 2, 3, 4))
            return smooth * self.fresh_prime(25 * 10**10, 50 * 10**10)
        if kind == "semiprime":
            small = self.fresh_prime(10**5, 2 * 10**5)
            return small * self.fresh_prime(10**6 // 2, 5 * 10**6)
        return math.prod(rng.choice((2, 3, 5, 7, 11, 13, 17, 19, 23)) for _ in range(8))

    def adele_input(self) -> Op:
        rng = self.rng
        while True:
            a = rng.choice((Q(1, 2), Q(2))) * rng.choice((1, -1))
            coeffs = (a, Q(0), Q(rng.randint(1, 5) * rng.choice((1, -1))), 1 / a)
            r = _small_rational(rng, 9)
            x, ok = r, True
            for _ in range(self.ADELE_STEPS):
                a, b, c, d = coeffs
                if c * x + d == 0:
                    break
                x = oracle.apply(coeffs, x)
                ok = ok and x.denominator <= self.TAIL_LIMIT
            if ok:
                return Op("adele", (coeffs, r))

    def block(self):
        ops = [
            Op("product", (Q(self.big_part(n), self.big_part(d)),))
            for n, d in (
                ("prime", "prime"),
                ("prime", "prime"),
                ("prime", "prime"),
                ("prime", "smooth"),
                ("semiprime", "smooth"),
            )
        ]
        ops += [Op("place", (self.fresh_prime(5 * 10**11, 10**12),)) for _ in range(6)]
        ops += [self.adele_input() for _ in range(6)]
        self.rng.shuffle(ops)
        return ops

    def run_product(self, r):
        return ad.verify_product_formula(r)

    def check_product(self, args, report) -> Outcome:
        (r,) = args
        _expect(report.holds and report.product == 1, "product formula")
        _expect(report.factors[0][1] == abs(r), "real factor")
        num, den = 1, 1
        primes = []
        for place, norm in report.factors[1:]:
            p = place.p
            primes.append(p)
            _expect(norm == oracle.norm(r, p), f"norm at {p}")
            if norm < 1:
                num *= norm.denominator
            else:
                den *= norm.numerator
        _expect((num, den) == (abs(r.numerator), r.denominator), "factorization value")
        return Outcome("product " + json.dumps(report.to_dict(), sort_keys=True), primes=tuple(primes))

    def run_place(self, p):
        return ad.Place(p)

    def check_place(self, args, place) -> Outcome:
        _expect(place.p == args[0], "place prime")
        return Outcome(f"place {place.p}", primes=(place.p,))

    def run_adele(self, coeffs, r):
        m = ad.MoebiusMap(*coeffs)
        x = ad.principal_adele(r)
        for n in range(self.ADELE_STEPS):
            try:
                x = ad.step_adele(m, x)
            except ad.errors.PoleAtPlace:  # a defined answer (exit 2), not a failure
                return n, x
        return self.ADELE_STEPS, x

    def check_adele(self, args, out) -> Outcome:
        coeffs, r = args
        steps, x = out
        a, b, c, d = coeffs
        expected = r
        for _ in range(steps):
            expected = oracle.apply(coeffs, expected)
        if steps < self.ADELE_STEPS:
            _expect(c * expected + d == 0, "pole reported off the pole")
        _expect(x.real == expected and x.elsewhere == expected, "adele components")
        _expect(all(v == expected for v in x.finite.values()), "listed components")
        listed = x.listed_primes()
        _expect(oracle.strip_primes(expected.denominator, listed) == 1, "unlisted denominator prime")
        return Outcome(f"adele {steps} {expected} {listed}", steps=steps, primes=listed)


#: The CLI golden argv, frozen so the workload does not change when the
#: golden set does.  Their expected stdout is read from tests/golden/.
GOLDEN_ARGV = {
    "classify_case_a": ["classify", "--map", "1/2,0,1,2"],
    "classify_case_b": ["classify", "--map", "5/3,4/3,4/3,5/3"],
    "classify_case_c": ["classify", "--map", "3,2,-2,-1"],
    "classify_case_d": ["classify", "--map", "3,-2,2,-1"],
    "classify_audited": ["--audit-primes", "50", "classify", "--map", "1/2,0,1,2"],
    "iterate_p3_sphere": [
        "iterate", "--map", "1/2,0,1,2", "--x0", "3", "--place", "3", "--steps", "24",
    ],
    "iterate_real_converges": [
        "iterate", "--map", "1/2,0,1,2", "--x0", "1", "--place", "real", "--steps", "60",
    ],
    "modular_f1": ["modular", "--family", "1", "--sign", "+", "--c", "1"],
    "modular_f5": ["modular", "--family", "5", "--sign", "+", "--c", "2"],
    "case_e": ["case", "--tag", "E", "--a", "2", "--c", "1"],
    "product_formula": ["product-formula", "-r", "-10/21"],
    "cross_ratio": ["cross-ratio", "--map", "1/2,0,1,2", "--points", "0,1,3,4"],
    "adele_step": ["adele-step", "--map", "1/2,0,1,2", "--principal", "1"],
    "basin_p2": [
        "--max-steps", "40", "basin", "--map", "1/2,0,1,2", "--xi", "0", "--place", "2",
        "--height", "2",
    ],
}


def _map_arg(coeffs) -> str:
    return ",".join(str(x) for x in coeffs)


class CliOneshot(Workload):
    """Sequential CLI invocations, each in a fresh interpreter.

    One block is the 14 goldens, 3 seeded classify, 2 iterate and 4
    product-formula calls, and 4 calls that must exit 2, 3 or 4.
    """

    name = "cli-oneshot"
    spawns = True
    KERNEL_INTERVAL_S = 0.25

    def kernel(self):
        return calibrate.SpawnKernel(self.env)

    def __init__(self, seed):
        self.env = child_env()
        self.golden = {
            name: (ROOT / "tests" / "golden" / f"{name}.json").read_bytes()
            for name in GOLDEN_ARGV
        }
        self.trace_dir: Path | None = None
        self.trace_summaries: list[dict] = []
        self.trace_spans: list = []
        self.invocations = 0
        super().__init__(seed)

    def block(self):
        rng = self.rng
        ops = [
            Op("golden", (name, ["--format", "json", *argv]))
            for name, argv in GOLDEN_ARGV.items()
        ]
        for _ in range(3):
            coeffs = case_a_coeffs(rng, (Q(1, 2), Q(2), Q(1, 3), Q(3)), 7)
            ops.append(Op("classify", (coeffs,)))
        for _ in range(2):
            # sphere orbits never converge, so every run has the same steps
            place = rng.choice((3, 5, 7))
            coeffs = case_a_coeffs(rng, (Q(1, 2), Q(2)), 5, place)
            x0 = Q(place * _unit(rng, 9, place), _unit(rng, 9, place))
            ops.append(Op("iterate", (coeffs, x0, Q(0), place, 32)))
        for _ in range(4):
            # a numerator with a prime factor near 4e11 costs a known
            # depth of trial division, which puts the 90th percentile on
            # these calls and not on process-start jitter
            big = rng.randint(1, 4) * oracle.next_prime(rng.randrange(25 * 10**10, 50 * 10**10))
            ops.append(Op("product", (Q(big, _unit(rng, 10**6)),)))
        composite = rng.choice((4, 6, 8, 9, 10, 12, 15))
        semiprime = oracle.next_prime(rng.randint(5, 60)) * oracle.next_prime(rng.randint(5, 60))
        while True:  # a map whose fixed points are irrational
            coeffs = tuple(Q(rng.randint(-9, 9)) for _ in range(4))
            a, b, c, d = coeffs
            if c != 0 and a * d != b * c and not oracle.fixed_points(coeffs):
                break
        ops += [
            Op("error", (2, ["classify", "--map", f"{rng.randint(1, 9)},{rng.randint(1, 9)}"])),
            Op("error", (2, ["iterate", "--map", "1/2,0,1,2", "--x0", "3", "--place", str(composite)])),
            Op("error", (3, ["classify", "--map", _map_arg(coeffs)])),
            Op("error", (4, ["--factor-bound", "2", "product-formula", "-r", str(semiprime)])),
        ]
        rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        argv = self.argv(op)
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "adelicdyn", *argv]
        else:
            out_path = self.trace_dir / f"cli-{os.getpid()}-{self.invocations}.json"
            cmd = [sys.executable, str(HERE / "clitrace.py"), str(out_path), *argv]
        self.invocations += 1
        proc = subprocess.run(cmd, capture_output=True, env=self.env, cwd=ROOT, timeout=60)
        if self.trace_dir is not None:
            doc = json.loads(out_path.read_text())
            out_path.unlink()
            self.trace_summaries.append(doc["summary"])
            self.trace_spans.extend(
                (*span[:5], self.invocations - 1) for span in doc["spans"]
            )
        return proc

    @staticmethod
    def argv(op: Op) -> list[str]:
        kind, args = op
        if kind in ("golden", "error"):
            return args[1]
        if kind == "classify":
            return ["--format", "json", "classify", "--map", _map_arg(args[0])]
        if kind == "iterate":
            coeffs, x0, xi, place, steps = args
            return [
                "--format", "json", "iterate", "--map", _map_arg(coeffs), "--x0", str(x0),
                "--xi", str(xi), "--place", "real" if place is None else str(place),
                "--steps", str(steps),
            ]
        return ["--format", "json", "product-formula", "-r", str(args[0])]

    def check(self, op: Op, proc) -> Outcome:
        kind, args = op
        expected_code = args[0] if kind == "error" else 0
        _expect(b"Traceback" not in proc.stderr, "traceback on stderr")
        _expect(
            proc.returncode == expected_code,
            f"exit {proc.returncode}, expected {expected_code}: {proc.stderr[-200:]!r}",
        )
        if kind == "error":
            _expect(proc.stdout == b"" and proc.stderr.startswith(b"error: "), "error report")
            return Outcome(f"error {expected_code}")
        if kind == "golden":
            _expect(proc.stdout == self.golden[args[0]], f"golden {args[0]} differs")
            doc = json.loads(proc.stdout)
            steps = len(doc.get("steps", ())) - 1 if "steps" in doc else 0
            steps += sum(pt["steps_used"] for pt in doc.get("points", ()) if isinstance(pt, dict))
            return Outcome("golden " + args[0], steps=max(steps, 0))
        doc = json.loads(proc.stdout)
        return getattr(self, "check_" + kind)(args, doc)

    def check_classify(self, args, doc) -> Outcome:
        (coeffs,) = args
        points = oracle.fixed_points(coeffs)
        _expect(doc["fixed_points"]["points"] == [str(x) for x in points], "fixed points")
        for report, xi in zip(doc["reports"], points):
            mult = _multiplier(coeffs, xi)
            for entry in report["places"]:
                p = None if entry["place"] == "real" else int(entry["place"])
                _expect(entry["multiplier_norm"] == str(oracle.norm(mult, p)), "norm")
        return Outcome("classify " + json.dumps(doc, sort_keys=True))

    def check_iterate(self, args, doc) -> Outcome:
        coeffs, x0, xi, place, steps = args
        x = x0
        for step in doc["steps"]:
            if step["n"]:
                x = oracle.apply(coeffs, x)
            _expect(step["x"] == str(x), f"x_{step['n']}")
            _expect(step["dist"] == str(oracle.norm(x - xi, place)), f"dist_{step['n']}")
        _expect(len(doc["steps"]) <= steps + 1, "orbit length")
        return Outcome("iterate " + json.dumps(doc, sort_keys=True), steps=len(doc["steps"]) - 1)

    def check_product(self, args, doc) -> Outcome:
        (r,) = args
        _expect(doc["holds"] is True and doc["product"] == "1", "product formula")
        primes = tuple(int(f["place"]) for f in doc["factors"][1:])
        for f, p in zip(doc["factors"][1:], primes):
            _expect(f["norm"] == str(oracle.norm(r, p)), f"norm at {p}")
        _expect(oracle.strip_primes(abs(r.numerator) * r.denominator, primes) == 1, "missing prime")
        return Outcome("product " + json.dumps(doc, sort_keys=True), primes=primes)


WORKLOADS = {w.name: w for w in (OrbitDeep, SweepShallow, AdelicFactor, CliOneshot)}


def digest_of(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
