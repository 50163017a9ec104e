"""Exact orbits: real attraction, p-adic invariant spheres, escape, basins.

The same map shows three behaviors depending on the place: its fixed point
0 attracts on the real line, repels 2-adically, and sits inside a Siegel
disk 3-adically where every orbit stays on its starting sphere forever.
"""

from fractions import Fraction

from adelicdyn import (
    MoebiusMap,
    Place,
    REAL,
    basin_sample,
    detect_behavior,
    iterate_at_place,
    local_multiplier_radius,
    siegel_max_radius,
)

m = MoebiusMap(Fraction(1, 2), 0, 1, 2)

# --- real attraction -----------------------------------------------------------
record = iterate_at_place(m, 1, 0, REAL, max_steps=8)
print("real orbit from 1 (distance to 0):")
for step in record.steps:
    print(f"  n={step.n:2d}  x = {str(step.x):>9}  |x|_inf = {step.dist}")
# a verdict reads the last 16 steps, so it needs a longer orbit
record = iterate_at_place(m, 1, 0, REAL, max_steps=40)
print(f"orbit stops as {record.terminated_by.value} at step {record.steps[-1].n}")
print(f"verdict: {detect_behavior(record, m).kind.value}")
print()

# --- 3-adic Siegel disk ----------------------------------------------------------
rho = siegel_max_radius(m, 0, 3)
print(f"Siegel radius around 0 at p=3: {rho}")
for x0 in (3, Fraction(3, 2), 9):
    record = iterate_at_place(m, x0, 0, Place(3), max_steps=50)
    dists = set(record.distances())
    print(f"  orbit from {x0}: 50 steps, distance set {sorted(dists)}")
print("every sphere inside the disk is invariant: the orbit never leaves it")
print()

# --- 2-adic repulsion -------------------------------------------------------------
rho2 = local_multiplier_radius(m, 0, 2)
print(f"2-adic locality radius around 0: {rho2}; |f'(0)|_2 = 4 > 1, so inside it")
record = iterate_at_place(m, Fraction(2**12), 0, Place(2), max_steps=5)
print("orbit from 2^12 (distances quadruple every step):")
for step in record.steps:
    print(f"  n={step.n}  dist = {step.dist}")
print()

# --- basin sweep -------------------------------------------------------------------
print("verdicts for all canonical fractions of height <= 3 at the real place:")
for point in basin_sample(m, 0, REAL, height=3, max_steps=200):
    print(f"  x0 = {str(point.x0):>4}: {point.verdict.kind.value}"
          f" ({point.steps_used} steps)")
print("(-3/2 is the second fixed point: exactly constant distance, never absorbed)")
