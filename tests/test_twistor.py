import numpy as np
import pytest

from ncadhm import twistor
from ncadhm.hopf_twist import z
from ncadhm.star_algebra import NCPolynomial, UnknownGenerator, normal_form
from ncadhm.twistor import (
    apply_J, c4_ring, cp3_gen, cp3_z_image, j_moyal_coaction_residual,
    j_squared_residual, j_weight_residual, verify_embeddings,
)


def word(*gens):
    return NCPolynomial.from_word(tuple(gens))


def test_j_generator_table():
    p = apply_J(word(z(1)))
    assert (p + word(z(2, True))).eval_norm() < 1e-15
    # J^2 = -1 on the plane generators
    q = apply_J(apply_J(word(z(1))))
    assert (q + word(z(1))).eval_norm() < 1e-15


def test_j_anti_multiplicative():
    # J(z1 z3) = J(z3) J(z1) = (-z4*)(-z2*) = z2* z4* (sorted)
    p = apply_J(word(z(1), z(3)))
    assert (p - word(z(2, True), z(4, True))).eval_norm() < 1e-15


def test_j_on_projective_generators():
    assert (apply_J(word(cp3_gen("a1"))) - word(cp3_gen("a2"))).eval_norm() \
        < 1e-15
    assert (apply_J(word(cp3_gen("u2"))) - word(cp3_gen("v2*"))).eval_norm() \
        < 1e-15
    assert (apply_J(word(cp3_gen("u1"))) + word(cp3_gen("u1"))).eval_norm() \
        < 1e-15


def test_j_squared():
    assert j_squared_residual() == 0.0


def test_j_unknown_generator():
    from ncadhm.hopf_twist import zeta
    with pytest.raises(UnknownGenerator):
        apply_J(word(zeta(1)))


def test_verify_embeddings_all_pass():
    report = verify_embeddings()
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == ["s4_in_s7", "fibration_j_fixed",
                     "stereographic_inverses", "localised_trivialisation"]
    for c in report.checks:
        assert c.residual == 0.0


def test_j_intertwines_coactions():
    assert j_weight_residual() == 0
    assert j_moyal_coaction_residual() == 0.0


def test_report_json():
    report = verify_embeddings()
    d = report.to_json_dict()
    assert d["passed"] is True
    assert len(d["checks"]) == 4


def _intertwining_residual():
    """Largest defect of J(iota(q)) = iota(J(q)) over the 20 projective
    letters q, where iota(q_jl) = z_j z_l*, in the commutative C4 ring."""
    ring = c4_ring()
    worst = 0.0
    for name in twistor._CP3:
        for q in (cp3_gen(name), cp3_gen(name + "*")):
            lhs = apply_J(cp3_z_image(q))
            rhs = NCPolynomial.zero()
            for (w, _, _), v in apply_J(word(q)).terms.items():
                (letter,) = w
                rhs = rhs + cp3_z_image(letter).scale(v)
            worst = max(worst, normal_form(lhs - rhs, ring).eval_norm())
    return worst


def test_j_tables_intertwine_the_projector_letters():
    assert _intertwining_residual() == 0.0


# Paired sign mutants of the two J tables: three of the four pass every
# twistor-checks check, and the intertwining catches each of them.
J_MUTANTS = {
    "J(z1), J(z2)": ("_J_C4", {1: (1.0, z(2, True)), 2: (-1.0, z(1, True))}),
    "J(z3), J(z4)": ("_J_C4", {3: (1.0, z(4, True)), 4: (-1.0, z(3, True))}),
    "J(u1), J(v1)": ("_J_CP3", {"u1": (1.0, "u1"), "v1": (1.0, "v1")}),
    "J(u3), J(v3)": ("_J_CP3", {"u3": (1.0, "v3*"), "v3": (1.0, "u3*")}),
}


@pytest.mark.parametrize("mutant", list(J_MUTANTS))
def test_intertwining_catches_paired_j_sign_mutants(mutant, monkeypatch):
    table, entries = J_MUTANTS[mutant]
    for key, value in entries.items():
        assert getattr(twistor, table)[key][0] == -value[0]
        monkeypatch.setitem(getattr(twistor, table), key, value)
    assert _intertwining_residual() == 2.0
