"""Property tests on random words of the derived C4 systems with calculus.

Associativity of the normal-ordered product, star-closure of the adjoint
(adjoint(ab) = adjoint(b) adjoint(a)) and d^2 = 0, for the Moyal and the
torus deformation, on polynomials drawn by hypothesis.
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from ncadhm.hopf_twist import MoyalModel, ToricModel, derive_relations
from ncadhm.star_algebra import (
    C4, NCPolynomial, adjoint, differential, multiply,
)

MODELS = {"moyal": lambda: MoyalModel(0.1, 1.0, 2.0),
          "toric": lambda: ToricModel(0.25)}

PROPERTY_SETTINGS = settings(max_examples=50, deadline=None,
                             derandomize=True, database=None)


@functools.cache
def _system(name):
    return derive_relations(MODELS[name](), C4)


@st.composite
def polynomials(draw, rel):
    """Up to three terms, each a word of up to three letters with a small
    Gaussian-integer coefficient."""
    p = NCPolynomial.zero()
    for _ in range(draw(st.integers(1, 3))):
        word = draw(st.lists(st.sampled_from(rel.generators), max_size=3))
        c = complex(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
        p = p + NCPolynomial.from_word(word, c)
    return p


@pytest.mark.parametrize("name", list(MODELS))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_product_is_associative(name, data):
    rel = _system(name)
    a, b, c = (data.draw(polynomials(rel)) for _ in range(3))
    lhs = multiply(multiply(a, b, rel), c, rel)
    rhs = multiply(a, multiply(b, c, rel), rel)
    assert (lhs - rhs).eval_norm(rel.theta) < 1e-9


@pytest.mark.parametrize("name", list(MODELS))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_adjoint_reverses_products(name, data):
    rel = _system(name)
    a, b = (data.draw(polynomials(rel)) for _ in range(2))
    lhs = adjoint(multiply(a, b, rel), rel)
    rhs = multiply(adjoint(b, rel), adjoint(a, rel), rel)
    assert (lhs - rhs).eval_norm(rel.theta) < 1e-9


@pytest.mark.parametrize("name", list(MODELS))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_differential_squares_to_zero(name, data):
    rel = _system(name)
    p = data.draw(polynomials(rel))
    dd = differential(differential(p, rel), rel)
    assert dd.eval_norm(rel.theta) < 1e-9
