#!/usr/bin/env python3
"""Classical instanton pipeline: projector, curvature, charge.

From solved charge-one data the monad maps are evaluated on the twistor
line over each plane point, giving the rank-2 projector, its Grassmann
connection, the curvature, and the anti-self-duality residual; a product
quadrature then recovers the integer topological charge.
"""

import numpy as np

from ncadhm import (
    ClassicalModel, PointR4, SolveConfig, charge,
    curvature_samples, evaluate_projector, solve,
)

d = solve(1, ClassicalModel(), cfg=SolveConfig(rng_seed=1))
rng = np.random.default_rng(0)
pts = [PointR4(complex(*rng.standard_normal(2)),
               complex(*rng.standard_normal(2))) for _ in range(8)]

print("== projector samples ==")
s = evaluate_projector(d, pts[0])
print("trace Q =", np.trace(s.Q).real, " trace P =", np.trace(s.P).real)
print("|Q^2 - Q| =", np.linalg.norm(s.Q @ s.Q - s.Q))

print("\n== curvature and anti-self-duality ==")
for sample in curvature_samples(d, pts):
    print(f"  at ({sample.point.zeta1:.2f}, {sample.point.zeta2:.2f}): "
          f"|F + *F| / |F| = {sample.asd_residual:.2e}")

print("\n== topological charge ==")
for res in (6, 8, 12):
    q = charge(d, res)
    print(f"  resolution {res:2d}: charge = {q:.6f}")
q0 = charge(d, 10)
qt = charge(d.translate(0.4, -0.3j), 10)
print(f"  translation stability: {abs(qt - q0) / q0:.2e}")
