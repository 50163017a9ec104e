"""The definitions the test suite checks the library against, each written once.

It imports nothing from `adelicdyn` (`test_layers` checks that), so a check
that passes is not the library agreeing with itself.  A map is its
coefficients (a, b, c, d), a place a prime p or None for the real place,
and an error case is returned as its name.  Results are plain tuples and
strings, which the library's NamedTuples and str enums compare equal to.
"""

from __future__ import annotations

import math
from fractions import Fraction

#: The steps a verdict reads, and the distance below which an orbit converges.
WINDOW = 16
THRESHOLD = Fraction(1, 2**40)


def valuation(r: Fraction, p: int) -> int:
    """The exponent of p in the nonzero rational r: r / p^nu is a p-unit."""
    num, den, nu = r.numerator, r.denominator, 0
    while num % p == 0:
        num //= p
        nu += 1
    while den % p == 0:
        den //= p
        nu -= 1
    return nu


def norm(r: Fraction, p: int | None) -> Fraction:
    """|r|_v: |r| at the real place (p None), p^-nu at p, and |0|_p = 0."""
    if p is None:
        return abs(r)
    if r == 0:
        return Fraction(0)
    return Fraction(p) ** -valuation(r, p)


def is_prime(n: int, limit: int = 10**6) -> bool | None:
    """n's primality by trial division up to isqrt(n); None when that passes limit."""
    if n < 2:
        return False
    root = math.isqrt(n)
    if any(n % d == 0 for d in range(2, min(root, limit) + 1)):
        return False
    return True if root <= limit else None


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """|n|'s (prime, exponent) pairs, ascending, by trial division up to √n."""
    n, factors, p = abs(n), [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            factors.append((p, e))
        p += 1
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


def primes_of(q: Fraction) -> tuple[int, ...]:
    """The primes p with |q|_p != 1: those of q's numerator and denominator, ascending."""
    return tuple(sorted(p for n in (q.numerator, q.denominator) for p, _ in factorize(n)))


def apply(coeffs, x: Fraction) -> Fraction | str:
    """(ax + b)/(cx + d), or "pole" where cx + d = 0."""
    a, b, c, d = coeffs
    if c * x + d == 0:
        return "pole"
    return (a * x + b) / (c * x + d)


def multiplier(coeffs, x: Fraction) -> Fraction | str:
    """The derivative (ad - bc)/(cx + d)^2, or "pole" where cx + d = 0."""
    a, b, c, d = coeffs
    if c * x + d == 0:
        return "pole"
    return (a * d - b * c) / (c * x + d) ** 2


def normal_form_map(lam, xi, other) -> tuple[Fraction, ...]:
    """The map with fixed points xi != other that w = (x - xi)/(x - other)
    conjugates to w -> w / lam: f'(xi) = 1/lam and f'(other) = lam."""
    return (lam * xi - other, (1 - lam) * xi * other, lam - 1, xi - lam * other)


def discriminant(coeffs) -> Fraction:
    """(a - d)^2 + 4bc, the discriminant of c x^2 + (d - a) x - b."""
    a, b, c, d = coeffs
    return (a - d) ** 2 + 4 * b * c


def fixed_points(coeffs) -> tuple[Fraction, ...] | str:
    """The rational roots of c x^2 + (d - a) x - b = 0, ascending and
    distinct; "c_is_zero" for c = 0, and "not_a_square" when the
    discriminant is not the square of a rational."""
    a, b, c, d = coeffs
    if c == 0:
        return "c_is_zero"
    disc = discriminant(coeffs)
    if disc < 0:
        return "not_a_square"
    num, den = math.isqrt(disc.numerator), math.isqrt(disc.denominator)
    if num * num != disc.numerator or den * den != disc.denominator:
        return "not_a_square"
    root = Fraction(num, den)
    return tuple(sorted({(a - d + root) / (2 * c), (a - d - root) / (2 * c)}))


def bits(r: Fraction) -> int:
    return max(r.numerator.bit_length(), r.denominator.bit_length())


def orbit(coeffs, x0, xi, p, max_steps, bit_guard, threshold=THRESHOLD, window=WINDOW):
    """(steps, stop) of x0's orbit, each step (n, x_n, |x_n - xi|_v), written
    out from (ax + b)/(cx + d); "past_guard" when step 0 passes the guard."""
    x, xi = Fraction(x0), Fraction(xi)
    steps = [(0, x, norm(x - xi, p))]
    if max(bits(x), bits(steps[0][2])) > bit_guard:
        return "past_guard"
    if x == xi:
        return tuple(steps), "converged"
    run = 0
    for n in range(1, max_steps + 1):
        x = apply(coeffs, x)
        if x == "pole":
            return tuple(steps), "pole_hit"
        dist = norm(x - xi, p)
        if max(bits(x), bits(dist)) > bit_guard:
            return tuple(steps), "overflow_guard"
        run = run + 1 if dist < steps[-1][2] else 0
        steps.append((n, x, dist))
        if x == xi or (dist < threshold and run >= window):
            return tuple(steps), "converged"
    return tuple(steps), "max_steps"


def verdict(coeffs, xi, p, dists, stop, window=WINDOW, threshold=THRESHOLD):
    """The verdict rules with two tests the library drops as redundant: a
    second convergence test on the finished distances, and sphere
    invariance as "one distinct distance"."""
    _, _, c, d = coeffs
    inside = None if c == 0 else dists[0] < norm(c * xi + d, p) / norm(c, p)
    repels = norm(multiplier(coeffs, xi), p) > 1
    used = min(window, len(dists) - 1)
    tail = dists[-(used + 1) :]
    run = 1
    for i in range(len(dists) - 1, 0, -1):
        if dists[i - 1] != dists[i]:
            break
        run += 1
    decreasing = len(tail) > 1 and all(b < a for a, b in zip(tail, tail[1:]))
    increasing = len(tail) > 1 and all(b > a for a, b in zip(tail, tail[1:]))
    evidence = (used, decreasing, increasing, run, dists[-1], inside)
    if stop == "converged":
        return "converges_to_fixed_point", evidence
    if used < window:
        return "undetermined", evidence
    if len(set(dists)) == 1:
        return "sphere_invariant", evidence
    if decreasing and dists[-1] < threshold:
        return "converges_to_fixed_point", evidence
    if increasing and inside and repels:
        return "escapes", evidence
    return "undetermined", evidence


def audit(coeffs, scan_limit, exceptional=None):
    """(xi, scan_limit, exceptional, offenders) for each fixed point xi, with
    q = f'(xi): the offenders are the primes p <= scan_limit where |q|_p == 1
    disagrees with p not being exceptional, and the exceptional primes are
    `exceptional(q)`, by default `primes_of(q)`."""
    audits, primes = [], [p for p in range(2, scan_limit + 1) if is_prime(p)]
    for xi in fixed_points(coeffs):
        q = multiplier(coeffs, xi)
        listed = tuple((exceptional or primes_of)(q))
        offenders = tuple(p for p in primes if (norm(q, p) == 1) == (p in listed))
        audits.append((xi, scan_limit, listed, offenders))
    return audits


def check_normal_form_law(kind, x0, xi, other, mu, p):
    """Check a verdict for x0 against w -> mu w, the map in the coordinate
    w = (x - xi)/(x - other), with mu = f'(xi).  There |w_n|_v =
    |mu|_v^n |w_0|_v and |x_n - xi|_v = |xi - other|_v |w_n|_v / |1 - w_n|_v.
    So only |mu|_v < 1 brings x to xi, and only |mu|_v > 1 pushes it away.
    A distance that never changes needs |mu|_v = 1, or a start on `other`,
    or a finite place with |mu|_v > 1 and a start on the sphere
    |x - xi|_v = |xi - other|_v: there |w_n|_v > 1 for every n >= 1, so the
    ultrametric gives |1 - w_n|_v = |w_n|_v, and every distance is
    |xi - other|_v."""
    mu_norm = norm(mu, p)
    if kind == "converges_to_fixed_point":
        assert x0 == xi or mu_norm < 1
    elif kind == "escapes":
        assert mu_norm > 1
    elif kind == "sphere_invariant":
        on_the_sphere_of_other = norm(x0 - xi, p) == norm(xi - other, p)
        assert (
            mu_norm == 1
            or x0 == other
            or (p is not None and mu_norm > 1 and on_the_sphere_of_other)
        )


def check_fused_point_law(kind, x0, xi, t, p, dists):
    """Check an orbit of x0 around a fused xi against w_n = w_0 + n t, the
    map in the coordinate w = 1/(x - xi): `dists` holds pairs (n, |x_n -
    xi|_v), each of which must be 1/|w_n|_v.  The derivative at xi is 1, so
    no orbit escapes; at a finite place |w_n|_v is bounded, so only a start
    on xi converges there."""
    if x0 != xi:
        w0 = 1 / (x0 - xi)
        for n, dist in dists:
            assert dist == 1 / norm(w0 + n * t, p), n
    assert kind != "escapes"
    if kind == "converges_to_fixed_point":
        assert x0 == xi or p is None
