#!/usr/bin/env python3
"""Derive the deformed coordinate algebras from their twisting cocycles.

The translation twist turns the ambient coordinates into a Heisenberg-type
algebra and leaves the plane calculus undeformed; the torus twist produces
pure phase relations.  Everything below is computed from the cocycle, not
hard-coded.
"""

import numpy as np

from ncadhm import (
    C4, R4, MoyalModel, ToricModel, NCPolynomial, derive_relations,
    multiply, normal_form, r_matrix,
)
from ncadhm.hopf_twist import S1, S2, T1, T1S, VARSIGMA, z, zeta

hbar, alpha, beta = 0.1, 1.0, 2.0
moyal = MoyalModel(hbar, alpha, beta)
toric = ToricModel(0.25)

print("== cocycle and R-matrix values ==")
print("F(t1*, t1)        =", moyal.cocycle(T1S, T1))
print("R(t1*, t1)        =", r_matrix(moyal, T1S, T1))
print("R(sigma1, sigma3) =", r_matrix(toric, VARSIGMA[0], VARSIGMA[2]))

print("\n== translation twist of the ambient coordinates ==")
rel = derive_relations(moyal, C4)
for pair in [(z(4), z(3)), (z(3, True), z(3)), (z(4, True), z(4))]:
    p = normal_form(NCPolynomial.from_word(pair), rel)
    print(f"{pair[0]}*{pair[1]} -> {p}")

print("\n== the plane inherits Heisenberg relations ==")
relr = derive_relations(moyal, R4)
comm = multiply(NCPolynomial.from_generator(zeta(1, True)),
                NCPolynomial.from_generator(zeta(1)), relr) \
    - multiply(NCPolynomial.from_generator(zeta(1)),
               NCPolynomial.from_generator(zeta(1, True)), relr)
print("[zeta1*, zeta1] =", comm)
print("stored rules:", sorted(str(k) for k in relr.rules))
print("(no grade-mixing rules: the plane calculus is undeformed)")

print("\n== torus twist: phase relations ==")
relt = derive_relations(toric, C4)
for pair in [(z(3), z(1)), (z(3), z(1, True)), (z(4), z(2))]:
    p = normal_form(NCPolynomial.from_word(pair), relt)
    print(f"{pair[0]}*{pair[1]} -> {p}")

print("\n== classical limits ==")
print("hbar = 0 rules:", derive_relations(MoyalModel(0.0, 1, 1), C4).rules)
print("theta = 0 rules:", derive_relations(ToricModel(0.0), C4).rules)
