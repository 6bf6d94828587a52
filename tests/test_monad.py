import math

import numpy as np
import pytest

from ncadhm import monad
from ncadhm.hopf_twist import (
    S1, T1, T1S, T2, T2S, TORUS_UNIT, TRANS_UNIT, ClassicalModel, MoyalModel,
    ToricModel, derive_relations, smash_image, smash_relations, z,
)
from ncadhm.monad import (
    ADHMData, MonadMatrices, PolyMatrix, ShapeError, adhm_residual,
    bosonise_monad, build_monad, monad_residual, tilde_coinvariance_residual,
    tilde_subalgebra_check,
)
from ncadhm.adhm_solver import SolveConfig, solve
from ncadhm.instanton import symbolic_projector_checks
from ncadhm.star_algebra import (
    Coefficient, NCPolynomial, adjoint, multiply, normal_form,
)


def canonical_moyal(hbar=0.25, alpha=1.0, beta=1.0):
    model = MoyalModel(hbar, alpha, beta)
    d = ADHMData.zero(1, model)
    d.I[0, 0] = np.sqrt(model.zeta_level)
    return d


def canonical_toric(theta=0.25):
    return ADHMData(1, ToricModel(theta), np.zeros((1, 1)), np.zeros((1, 1)),
                    np.array([[1.0, 0.0]]), np.array([[0.0], [1.0]]))


def test_build_monad_shapes_and_reality():
    for d in (canonical_moyal(), canonical_toric(),
              ADHMData.zero(2, ClassicalModel())):
        m = build_monad(d)
        k = d.k
        for Mj in m.M:
            assert Mj.shape == (2 * k + 2, k)
        for Nj in m.N:
            assert Nj.shape == (k, 2 * k + 2)
        assert m.reality_residual() == 0.0


def test_build_monad_classical_limit():
    rng = np.random.default_rng(0)
    B1, B2 = rng.standard_normal((1, 1)), rng.standard_normal((1, 1))
    I, J = rng.standard_normal((1, 2)), rng.standard_normal((2, 1))
    m0 = build_monad(ADHMData(1, MoyalModel(0.0, 1.0, 1.0), B1, B2, I, J))
    mt = build_monad(ADHMData(1, ToricModel(0.0), B1, B2, I, J))
    mc = build_monad(ADHMData(1, ClassicalModel(), B1, B2, I, J))
    for a, b, c in zip(m0.M, mt.M, mc.M):
        assert np.allclose(a, c) and np.allclose(b, c)


def test_build_monad_canonical_blocks():
    d = canonical_moyal()
    m = build_monad(d)
    sz = np.sqrt(d.model.zeta_level)
    # M1 stacks (B1; B2; J) and is the zero column here
    assert np.allclose(m.M[0], 0.0)
    # M2 stacks (-B2+; B1+; I+): only the I-dagger block survives
    assert np.allclose(m.M[1][:2], 0.0)
    assert np.allclose(m.M[1][2:], np.array([[sz], [0.0]]))
    # the constant blocks
    assert np.allclose(m.M[2], np.array([[1.0], [0.0], [0.0], [0.0]]))
    assert np.allclose(m.M[3], np.array([[0.0], [1.0], [0.0], [0.0]]))
    assert np.allclose(m.N[2], np.array([[0.0, 1.0, 0.0, 0.0]]))
    assert np.allclose(m.N[3], np.array([[-1.0, 0.0, 0.0, 0.0]]))


def test_build_monad_toric_mu_factor():
    theta = 0.25
    d = canonical_toric(theta)
    d.B2 = np.array([[0.7 + 0.2j]])
    m = build_monad(d)
    mu = np.exp(1j * np.pi * theta)
    # N1 = (-mu B2 | mu-bar B1 | I)
    assert np.allclose(m.N[0][:, :1], -mu * d.B2)
    assert np.allclose(m.N[0][:, 2:], d.I)


def test_adhm_residual_examples():
    d = canonical_moyal()
    assert max(adhm_residual(d)) < 1e-14

    dt = canonical_toric()
    assert max(adhm_residual(dt)) < 1e-14

    # all-zero data with nonzero deformation level: real residual zeta sqrt(k)
    for k in (1, 2, 3):
        model = MoyalModel(0.25, 1.0, 1.0)
        d0 = ADHMData.zero(k, model)
        c, h = adhm_residual(d0)
        assert c == 0.0
        assert abs(h - model.zeta_level * np.sqrt(k)) < 1e-14


def test_monad_residual_solved_and_probe():
    # classical solved data: all-zero residual
    d = solve(1, ClassicalModel(), cfg=SolveConfig(rng_seed=2))
    res = monad_residual(build_monad(d), d.model)
    assert res.eval_max_norm() < 1e-10

    # the identity-free probe keeps only the constant shift i hbar (alpha+beta)
    model = MoyalModel(0.25, 1.0, 1.0)
    m0 = build_monad(ADHMData.zero(1, model))
    probe = monad_residual(m0, model)
    coeff = probe.entries[0][0].coefficient((z(1), z(2)), hbar=1)
    assert coeff.approx_eq(Coefficient(1j * model.hbar *
                                       (model.alpha + model.beta), 1))
    # only that single word survives
    assert len(probe.entries[0][0].terms) == 1


@pytest.mark.parametrize("model,k", [
    (ClassicalModel(), 1), (ClassicalModel(), 2),
    (MoyalModel(0.25, 1.0, 1.0), 1), (MoyalModel(0.2, 1.0, 0.5), 2),
    (ToricModel(0.25), 1), (ToricModel(0.3), 2),
])
def test_monad_residual_matches_adhm_residual(model, k):
    d = solve(k, model, cfg=SolveConfig(rng_seed=11,
                                        tolerance=1e-12 if k == 1 else 1e-10))
    theta = model.theta
    m = build_monad(d)
    assert monad_residual(m, model).eval_max_norm(theta) < 1e-9
    # generic perturbation of I: both residuals move by O(eps)
    eps = 1e-3
    dp = d.copy()
    dp.I = dp.I + eps
    mp = build_monad(dp)
    r_m = monad_residual(mp, model).eval_max_norm(theta)
    r_a = sum(adhm_residual(dp))
    assert r_a > eps / 10
    assert eps / 20 < r_m < 50 * eps


def test_monad_residual_keeps_the_bits_of_the_reduced_entries():
    # tau sigma comes out of sum_of_products in normal form.  normal_form
    # only rescans it and reverses each entry's term order, but that moves
    # the last bit of eval_norm on this unsolved torus datum, so
    # monad_residual and check 1 of symbolic_projector_checks keep the pass
    # and the CLI reports the bits it always has.
    model = ToricModel(0.25)
    rng = np.random.default_rng(2701)

    def block(rows, cols):
        return rng.standard_normal((rows, cols)) \
            + 1j * rng.standard_normal((rows, cols))

    d = ADHMData(1, model, block(1, 1), block(1, 1), block(1, 2),
                 block(2, 1))
    m = build_monad(d)
    rel = smash_relations(model, 0)
    sigma, tau = bosonise_monad(m, model, rel)
    comp = tau.matmul(sigma, rel)
    again = comp.map(lambda p: normal_form(p, rel))
    assert comp.entries[0][0].terms == again.entries[0][0].terms
    assert list(comp.entries[0][0].terms) == \
        list(reversed(again.entries[0][0].terms))
    assert repr(comp.eval_max_norm(model.theta)) == "14.898123055770114"
    assert repr(monad_residual(m, model).eval_max_norm(model.theta)) == \
        "14.898123055770116"
    check = symbolic_projector_checks(d).checks[0]
    assert (check.name, repr(check.residual)) == \
        ("monad_orthogonality", "14.898123055770116")


def test_monad_residual_perturbation_z1z2_coefficient():
    # perturbing B1 for k = 2 shows up in the z1 z2 sector at order eps
    model = ClassicalModel()
    d = solve(2, model, cfg=SolveConfig(rng_seed=5, tolerance=1e-10))
    eps = 1e-4
    dp = d.copy()
    dp.B1 = dp.B1 + eps * np.array([[0.0, 1.0], [0.0, 0.0]])
    res = monad_residual(build_monad(dp), model)
    coeffs = [abs(v) for b in range(2) for bp in range(2)
              for w, v in res.entries[b][bp].evaluated_coefficients().items()
              if w == (z(1), z(2))]
    assert max(coeffs) > eps / 10


def test_bosonise_monad_raw_legs():
    # the raw coaction legs that bosonise_monad files by tilde index
    model = MoyalModel(0.25, 1.0, 1.0)
    # z3 maps to t1* (x) z1 + t2* (x) z2 + 1 (x) z3
    t1s = model.hopf_letters()[1]
    t2s = model.hopf_letters()[3]
    assert smash_image(model, (), z(3)).terms == {
        ((t1s, z(1)), 0, 0): 1.0, ((t2s, z(2)), 0, 0): 1.0,
        ((z(3),), 0, 0): 1.0}

    # toric: z_r maps to varsigma_r (x) z_r
    toric = canonical_toric().model
    s2 = toric.hopf_letters()[2]
    assert smash_image(toric, (), z(3)).terms == {((s2, z(3)), 0, 0): 1.0}

    # trivial coaction: unit Hopf parts
    for j in range(1, 5):
        for conj in (False, True):
            g = z(j, conj)
            assert smash_image(ClassicalModel(), (), g).terms == {
                ((g,), 0, 0): 1.0}


def test_bosonisation_multiplicative():
    """mu(x .twisted y) = mu(x) mu(y) on sampled twisted-tensor elements."""
    from ncadhm.hopf_twist import monad_m, smash_relations
    from ncadhm.star_algebra import C4, MONAD_M, NCPolynomial, normal_form

    model = MoyalModel(0.2, 1.0, 2.0)
    tensor_rel = derive_relations(model, (MONAD_M, C4), k=1, calculus=False)
    smash_rel = smash_relations(model, k=1)

    def bosonise_word(word):
        out = NCPolynomial.one()
        for g in word:
            leg = NCPolynomial.zero()
            if g.space == MONAD_M:
                leg = NCPolynomial.from_generator(g)
            else:
                for c, hm, x in model.coaction(g):
                    leg = leg + NCPolynomial.from_word(hm.letters() + (x,), c)
            out = multiply(out, leg, smash_rel)
        return out

    rng = np.random.default_rng(8)
    gens = list(tensor_rel.generators)
    for _ in range(25):
        wa = tuple(gens[int(rng.integers(0, len(gens)))] for _ in range(2))
        wb = tuple(gens[int(rng.integers(0, len(gens)))] for _ in range(2))
        a = NCPolynomial.from_word(wa)
        b = NCPolynomial.from_word(wb)
        prod = multiply(a, b, tensor_rel)
        lhs = NCPolynomial.zero()
        for (w, h, m), v in prod.terms.items():
            lhs = lhs + bosonise_word(w).scale_coeff(Coefficient(v, h, m))
        lhs = normal_form(lhs, smash_rel)
        rhs = multiply(bosonise_word(wa), bosonise_word(wb), smash_rel)
        assert (lhs - rhs).eval_norm(model.theta) < 1e-10


@pytest.mark.parametrize("model", [
    MoyalModel(0.3, 1.0, 2.0), ToricModel(0.25), ClassicalModel(),
])
def test_tilde_subalgebra(model):
    rep = tilde_subalgebra_check(model)
    assert rep.passed
    assert rep["tilde_commutativity"].residual < 1e-12
    assert rep["smash_isomorphism"].residual < 1e-12


def test_tilde_coinvariance():
    for model in (MoyalModel(0.3, 1.0, 2.0), ToricModel(0.25),
                  ClassicalModel()):
        assert tilde_coinvariance_residual(model) < 1e-14


# The tilde expansions M~^j = sum c M^s (x) h as they were written by hand
# before tilde_words was derived from tilde_decompose: a literal oracle.
TILDE_WORDS_ORACLE = {
    "classical": {j: [(1.0, j, TRANS_UNIT)] for j in range(1, 5)},
    "moyal": {1: [(1.0, 1, TRANS_UNIT), (0.5, 3, T1S), (-0.5, 4, T2)],
              2: [(1.0, 2, TRANS_UNIT), (0.5, 3, T2S), (0.5, 4, T1)],
              3: [(1.0, 3, TRANS_UNIT)],
              4: [(1.0, 4, TRANS_UNIT)]},
    "toric": {1: [(1.0, 1, S1)],
              2: [(1.0, 2, S1.star())],
              3: [(1.0, 3, TORUS_UNIT)],
              4: [(1.0, 4, TORUS_UNIT)]},
}


@pytest.mark.parametrize("model", [
    ClassicalModel(), MoyalModel(0.3, 1.0, 2.0), ToricModel(0.25),
], ids=["classical", "moyal", "toric"])
def test_derived_tilde_words_match_the_literal_table(model):
    for j in range(1, 5):
        assert model.tilde_words(j) == TILDE_WORDS_ORACLE[model.kind][j]


@pytest.mark.parametrize("model", [MoyalModel(0.3, 1.0, 2.0),
                                   ToricModel(0.25)], ids=["moyal", "toric"])
def test_smash_isomorphism_visits_every_pair(model, monkeypatch):
    pairs = []
    primed_product = monad._primed_product

    def counted(model, hg, key, tilde, rel):
        pairs.append((hg, key))
        return primed_product(model, hg, key, tilde, rel)

    monkeypatch.setattr(monad, "_primed_product", counted)
    tilde_subalgebra_check(model)
    # four Hopf letters times 32 tilde generators (j, row, col, conj)
    assert len(set(pairs)) == len(pairs) == 128


# One-entry mutants of MoyalModel._primed at hbar = 0.3, alpha = 1,
# beta = 2: each entry times 1.5 moves a coefficient i hbar alpha by 0.15
# or i hbar beta by 0.3.
PRIMED_MUTANTS = ([((T1, 1, False), 0.15), ((T1S, 1, True), 0.15),
                   ((T1S, 2, False), 0.15), ((T1, 2, True), 0.15)]
                  + [((T2S, 1, False), 0.3), ((T2, 1, True), 0.3),
                     ((T2, 2, False), 0.3), ((T2S, 2, True), 0.3)])


@pytest.mark.parametrize("entry, want", PRIMED_MUTANTS,
                         ids=[f"{h.letters()[0].label()}-M{j}{'*' * c}"
                              for (h, j, c), _ in PRIMED_MUTANTS])
def test_smash_isomorphism_catches_each_primed_mutant(entry, want):
    model = MoyalModel(0.3, 1.0, 2.0)
    c, s = model._primed[entry]
    model._primed[entry] = (c.scale(1.5), s)
    rep = tilde_subalgebra_check(model)
    assert rep["tilde_commutativity"].residual == 0.0
    assert rep["smash_isomorphism"].residual == pytest.approx(want, rel=1e-12)
    assert not rep.passed


def _moyal_decompose_mutant(model):
    # -0.5 -> -0.4 on the M~^3 leg of M^1
    def mutant(j, h):
        if j == 1:
            return [(1.0, 1, h), (-0.4, 3, T1S * h), (0.5, 4, T2 * h)]
        return MoyalModel.tilde_decompose(model, j, h)
    return mutant


def _toric_decompose_mutant(model):
    # the dressing of M^1 not inverted
    def mutant(j, h):
        if j == 1:
            return [(1.0, 1, S1 * h)]
        return ToricModel.tilde_decompose(model, j, h)
    return mutant


@pytest.mark.parametrize("model, mutant, want", [
    (MoyalModel(0.3, 1.0, 2.0), _moyal_decompose_mutant, 0.06),
    (ToricModel(0.25), _toric_decompose_mutant, math.sqrt(2)),
], ids=["moyal", "toric"])
def test_tilde_commutativity_catches_a_decompose_mutant(model, mutant, want,
                                                        monkeypatch):
    monkeypatch.setattr(model, "tilde_decompose", mutant(model))
    rep = tilde_subalgebra_check(model)
    assert rep["tilde_commutativity"].residual == pytest.approx(want,
                                                                rel=1e-12)
    assert rep["smash_isomorphism"].residual == 0.0
    # a blind spot: tilde_words is derived from the mutant, so the
    # round trip through tilde_decompose still closes
    assert tilde_coinvariance_residual(model) == 0.0


@pytest.mark.parametrize("model", [MoyalModel(0.2, 1.0, 0.5),
                                   ToricModel(0.3)], ids=["moyal", "toric"])
def test_polymatrix_non_square_products(model):
    rel = smash_relations(model, k=1)
    gens = list(rel.generators)
    rng = np.random.default_rng(5)

    def entry():
        p = NCPolynomial.zero()
        for _ in range(2):
            word = [gens[int(i)] for i in rng.integers(0, len(gens), 2)]
            p = p + NCPolynomial.from_word(word,
                                           complex(*rng.standard_normal(2)))
        return normal_form(p, rel)

    A = PolyMatrix([[entry() for _ in range(3)] for _ in range(2)])
    B = PolyMatrix([[entry() for _ in range(4)] for _ in range(3)])
    AB, Ad = A.matmul(B, rel), A.adjoint(rel)
    assert AB.shape == (2, 4) and Ad.shape == (3, 2)
    # entrywise loop references
    for a in range(2):
        for c in range(4):
            ref = NCPolynomial.zero()
            for b in range(3):
                ref = ref + multiply(A.entries[a][b], B.entries[b][c], rel)
            assert AB.entries[a][c].terms == ref.terms
        for b in range(3):
            assert Ad.entries[b][a].terms == adjoint(A.entries[a][b],
                                                     rel).terms
    # oracle: (AB)+ = B+ A+ in the smash algebra
    diff = AB.adjoint(rel) - B.adjoint(rel).matmul(Ad, rel)
    assert diff.shape == (4, 2)
    assert diff.eval_max_norm(model.theta) < 1e-12
    with pytest.raises(ShapeError):
        A.matmul(A, rel)


def test_adhm_data_json_roundtrip():
    d = canonical_toric()
    d2 = ADHMData.from_json_dict(d.to_json_dict())
    assert d2.k == d.k and d2.model.kind == "toric"
    for a, b in ((d.B1, d2.B1), (d.B2, d2.B2), (d.I, d2.I), (d.J, d2.J)):
        assert np.allclose(a, b)


def test_gauge_and_translate():
    d = solve(1, ClassicalModel(), cfg=SolveConfig(rng_seed=4))
    g = np.array([[np.exp(0.3j)]])
    dg = d.gauge_apply(g)
    assert abs(sum(adhm_residual(dg)) - sum(adhm_residual(d))) < 1e-12
    dt = d.translate(0.5, -0.25j)
    assert max(adhm_residual(dt)) < 1e-10  # translations preserve solutions


def test_shape_errors():
    with pytest.raises(ShapeError):
        ADHMData(1, ClassicalModel(), np.zeros((2, 2)), np.zeros((1, 1)),
                 np.zeros((1, 2)), np.zeros((2, 1)))
    with pytest.raises(ShapeError):
        ADHMData(0, ClassicalModel(), np.zeros((0, 0)), np.zeros((0, 0)),
                 np.zeros((0, 2)), np.zeros((2, 0)))
    with pytest.raises(ShapeError):
        d = ADHMData.zero(1, ClassicalModel())
        d.I[0, 0] = np.inf
        ADHMData(1, ClassicalModel(), d.B1, d.B2, d.I, d.J)
    for bad in (complex(0.0, np.nan), complex(0.0, np.inf)):
        # a non-finite imaginary part alone makes the entry non-finite
        with pytest.raises(ShapeError):
            ADHMData(1, ClassicalModel(), np.zeros((1, 1)),
                     np.full((1, 1), bad), np.zeros((1, 2)),
                     np.zeros((2, 1)))
        with pytest.raises(ShapeError):
            MonadMatrices(1, [np.zeros((4, 1))] * 3 + [np.full((4, 1), bad)],
                          [np.zeros((1, 4))] * 4)
    with pytest.raises(ShapeError):
        MonadMatrices(1, [np.zeros((3, 1))] * 4, [np.zeros((1, 4))] * 4)
