#!/usr/bin/env python3
"""Symbolic verification of the twistor-fibration algebra maps.

Four checks run with exact arithmetic: the four-sphere sits inside the
seven-sphere, the fibration images are fixed by the quaternionic involution,
the two stereographic charts invert each other on the localised algebras,
and the localised twistor algebra splits off a classical projective line.
"""

from ncadhm import NCPolynomial, apply_J, verify_embeddings
from ncadhm.hopf_twist import z
from ncadhm.twistor import (
    j_moyal_coaction_residual, j_squared_residual, j_weight_residual,
)

print("== quaternionic involution on generators ==")
for j in range(1, 5):
    p = NCPolynomial.from_generator(z(j))
    print(f"J(z{j}) = {apply_J(p)},  J(J(z{j})) = {apply_J(apply_J(p))}")

print("\n== embedding checks ==")
report = verify_embeddings()
print(report.summary())

print("\n== compatibility of J with the symmetry models ==")
print("J^2 defect:", j_squared_residual())
print("torus weight mismatches under J:", j_weight_residual())
print("translation coaction defect under J:", j_moyal_coaction_residual())
