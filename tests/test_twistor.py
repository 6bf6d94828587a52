import numpy as np
import pytest

from ncadhm.hopf_twist import z
from ncadhm.star_algebra import NCPolynomial, UnknownGenerator
from ncadhm.twistor import (
    apply_J, cp3_gen, j_moyal_coaction_residual, j_squared_residual,
    j_weight_residual, verify_embeddings,
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
