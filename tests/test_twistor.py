import numpy as np
import pytest

from ncadhm import twistor
from ncadhm.hopf_twist import z
from ncadhm.star_algebra import (
    CP3_NAMES, NCPolynomial, UnknownGenerator, normal_form,
)
from ncadhm.twistor import (
    apply_J, c4_ring, cp3_gen, cp3_z_image, j_image,
    j_moyal_coaction_residual, j_squared_residual, j_weight_residual,
    verify_embeddings,
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


# J on the projective letters, written out by hand: name -> (sign, image)
J_CP3_ORACLE = {"a1": (1.0, "a2"), "a2": (1.0, "a1"), "a3": (1.0, "a4"),
                "a4": (1.0, "a3"), "u1": (-1.0, "u1"), "v1": (-1.0, "v1"),
                "u2": (1.0, "v2*"), "u3": (-1.0, "v3*"),
                "v2": (1.0, "u2*"), "v3": (-1.0, "u3*")}


def test_derived_projective_j_matches_the_literal_table():
    assert sorted(J_CP3_ORACLE) == sorted(CP3_NAMES.values())
    for name, (sign, image) in J_CP3_ORACLE.items():
        assert j_image(cp3_gen(name)) == (sign, cp3_gen(image))
        assert j_image(cp3_gen(name + "*")) == (sign, cp3_gen(image).star())


def _intertwining_residual():
    """Largest defect of J(iota(q)) = iota(J(q)) over the 20 projective
    letters q, where iota(q_jl) = z_j z_l*, in the commutative C4 ring."""
    ring = c4_ring()
    worst = 0.0
    for name in CP3_NAMES.values():
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


# Paired sign mutants of the one J table.  J on the projective letters is
# derived from it, so the intertwining still holds, and fibration_j_fixed
# catches each of them.
J_MUTANTS = {
    "J(z1), J(z2)": {1: (1.0, z(2, True)), 2: (-1.0, z(1, True))},
    "J(z3), J(z4)": {3: (1.0, z(4, True)), 4: (-1.0, z(3, True))},
}


@pytest.mark.parametrize("mutant", list(J_MUTANTS))
def test_fibration_j_fixed_catches_paired_j_sign_mutants(mutant, monkeypatch):
    for key, value in J_MUTANTS[mutant].items():
        assert twistor._J_C4[key][0] == -value[0]
        monkeypatch.setitem(twistor._J_C4, key, value)
    residuals = {c.name: c.residual for c in verify_embeddings().checks}
    assert residuals == {"s4_in_s7": 0.0, "fibration_j_fixed": 8.0,
                         "stereographic_inverses": 0.0,
                         "localised_trivialisation": 0.0}
    assert _intertwining_residual() == 0.0
