import struct

import numpy as np
import pytest

from ncadhm import hopf_twist
from ncadhm.hopf_twist import (
    S1, S2, T1, T1S, T2, T2S, TORUS_UNIT, TRANS_UNIT, VARSIGMA,
    ClassicalModel, MissingCoaction, ModelMismatch, MoyalModel, ToricModel,
    TorusMonomial, TransMonomial, bicharacter_residual,
    cotriangularity_residual, crossed_module_residual, derive_relations,
    express_in_deformed_basis, model_from_json, monad_m, r_matrix,
    smash_relations, twist_product, two_cocycle_residual, z, zeta,
    _derived_rule, _is_default_rule, _twist_eval_word, _validate,
)
from ncadhm.star_algebra import (
    C4, HOPF_TORUS, HOPF_TRANS, MONAD_M, R4, Coefficient, GeneratorId,
    NCPolynomial, UnknownGenerator, multiply, normal_form,
    star_closure_residual,
)

from monad_symmetry import (
    WORKLOAD_MODELS, broken_rules, column_transpositions, moved, reversals,
)

HBAR, ALPHA, BETA = 0.1, 1.0, 2.0


@pytest.fixture(scope="module")
def moyal():
    return MoyalModel(HBAR, ALPHA, BETA)


@pytest.fixture(scope="module")
def toric():
    return ToricModel(0.25)


def test_cocycle_generator_values(moyal, toric):
    assert moyal.cocycle(T1S, T1).approx_eq(
        Coefficient(0.5j * HBAR * ALPHA, 1))
    assert moyal.cocycle(T2S, T2).approx_eq(
        Coefficient(-0.5j * HBAR * BETA, 1))
    # unital cocycle
    assert moyal.cocycle(T1, TRANS_UNIT).approx_eq(Coefficient(0.0))
    assert moyal.cocycle(TRANS_UNIT, TRANS_UNIT).approx_eq(
        Coefficient(1.0))
    # torus: F(s1,s2) F(s2,s1) = 1 and eta_13 = F^-2(s1, s2) = mu
    f12 = toric.cocycle(S1, S2)
    f21 = toric.cocycle(S2, S1)
    assert (f12 * f21).approx_eq(Coefficient(1.0))
    assert toric.eta(1, 3).approx_eq(Coefficient(1.0, mu2=2))


def test_r_matrix_values(moyal, toric):
    assert r_matrix(moyal, T1S, T1).approx_eq(
        Coefficient(-1j * HBAR * ALPHA, 1))
    assert r_matrix(moyal, T2S, T2).approx_eq(Coefficient(1j * HBAR * BETA, 1))
    assert r_matrix(toric, VARSIGMA[0], VARSIGMA[2]).approx_eq(
        Coefficient(1.0, mu2=2))


def _random_trans(rng, max_deg=3):
    while True:
        e = tuple(int(rng.integers(0, 2)) for _ in range(4))
        if sum(e) <= max_deg:
            return TransMonomial(e)


def _random_torus(rng, max_deg=3):
    return TorusMonomial((int(rng.integers(-max_deg, max_deg + 1)),
                          int(rng.integers(-max_deg, max_deg + 1))))


def test_two_cocycle_condition(moyal, toric):
    rng = np.random.default_rng(0)
    for _ in range(100):
        f, g, h = (_random_trans(rng) for _ in range(3))
        assert two_cocycle_residual(moyal, f, g, h) < 1e-10
        f, g, h = (_random_torus(rng) for _ in range(3))
        assert two_cocycle_residual(toric, f, g, h) < 1e-10


def test_bicharacter_laws(moyal, toric):
    rng = np.random.default_rng(1)
    for _ in range(100):
        f, g, h = (_random_trans(rng, 2) for _ in range(3))
        assert bicharacter_residual(moyal, f, g, h) < 1e-12
        f, g, h = (_random_torus(rng) for _ in range(3))
        assert bicharacter_residual(toric, f, g, h) < 1e-14


def test_cotriangularity(moyal, toric):
    rng = np.random.default_rng(2)
    for _ in range(100):
        h, g = _random_trans(rng), _random_trans(rng)
        assert cotriangularity_residual(moyal, h, g) < 1e-10
        h, g = _random_torus(rng), _random_torus(rng)
        assert cotriangularity_residual(toric, h, g) < 1e-10


def test_crossed_module_condition(moyal, toric):
    rng = np.random.default_rng(3)
    gens_m = list(moyal.generators(C4, calculus=False)) + \
        list(moyal.generators("MonadM", k=1))
    gens_t = list(toric.generators(C4, calculus=False))
    for _ in range(50):
        h = _random_trans(rng, 2)
        g = gens_m[int(rng.integers(0, len(gens_m)))]
        assert crossed_module_residual(moyal, h, g) < 1e-10
        ht = _random_torus(rng, 2)
        gt = gens_t[int(rng.integers(0, len(gens_t)))]
        assert crossed_module_residual(toric, ht, gt) < 1e-10


def test_twist_product_spec_examples(moyal):
    a = NCPolynomial.from_generator(z(3))
    b = NCPolynomial.from_generator(z(4))
    p = twist_product(moyal, a, b)
    assert p.coefficient((z(3), z(4))).approx_eq(Coefficient(1.0))
    assert p.coefficient((z(1), z(2)), hbar=1).approx_eq(
        Coefficient(0.5j * HBAR * (ALPHA + BETA), 1))
    comm = p - twist_product(moyal, b, a)
    assert comm.coefficient((z(1), z(2)), hbar=1).approx_eq(
        Coefficient(1j * HBAR * (ALPHA + BETA), 1))
    assert len(comm.terms) == 1


def test_twist_product_classical_limit():
    m0 = MoyalModel(0.0, 1.0, 1.0)
    rng = np.random.default_rng(4)
    gens = list(m0.generators(C4, calculus=False))
    for _ in range(20):
        wa = tuple(gens[int(rng.integers(0, len(gens)))] for _ in range(2))
        wb = tuple(gens[int(rng.integers(0, len(gens)))] for _ in range(2))
        a, b = NCPolynomial.from_word(wa), NCPolynomial.from_word(wb)
        p = twist_product(m0, a, b)
        from ncadhm.star_algebra import classical_product
        assert (p - classical_product(a, b)).eval_norm() < 1e-14


def test_derive_relations_r4(moyal):
    rel = derive_relations(moyal, "R4")
    # [zeta1*, zeta1] = i hbar alpha, [zeta2*, zeta2] = -i hbar beta
    p = normal_form(NCPolynomial.from_word((zeta(1, True), zeta(1))), rel) \
        - normal_form(NCPolynomial.from_word((zeta(1), zeta(1, True))), rel)
    assert p.coefficient((), hbar=1).approx_eq(Coefficient(1j * HBAR * ALPHA, 1))
    p = normal_form(NCPolynomial.from_word((zeta(2, True), zeta(2))), rel) \
        - normal_form(NCPolynomial.from_word((zeta(2), zeta(2, True))), rel)
    assert p.coefficient((), hbar=1).approx_eq(Coefficient(-1j * HBAR * BETA, 1))


ETA_MU2 = [[0, 0, 2, -2], [0, 0, -2, 2], [-2, 2, 0, 0], [2, -2, 0, 0]]


def test_derive_relations_toric_c4(toric):
    rel = derive_relations(toric, C4)
    for j in range(1, 5):
        for l in range(1, 5):
            # z_j z_l = eta_{lj} z_l z_j
            p = normal_form(NCPolynomial.from_word((z(j), z(l))), rel)
            q = normal_form(NCPolynomial.from_word((z(l), z(j))), rel)
            mu2 = ETA_MU2[l - 1][j - 1]
            assert (p - q.scale_coeff(Coefficient(1.0, mu2=mu2))).eval_norm(
                0.25) < 1e-13
            # z_j z_l* = eta_{jl} z_l* z_j
            p = normal_form(NCPolynomial.from_word((z(j), z(l, True))), rel)
            q = normal_form(NCPolynomial.from_word((z(l, True), z(j))), rel)
            mu2 = ETA_MU2[j - 1][l - 1]
            assert (p - q.scale_coeff(Coefficient(1.0, mu2=mu2))).eval_norm(
                0.25) < 1e-13


def test_zero_parameter_rules_are_transpositions():
    assert not derive_relations(MoyalModel(0.0, 1.0, 1.0), C4).rules
    assert not derive_relations(ToricModel(0.0), C4).rules


def test_star_closure_of_shipped_systems(moyal, toric):
    rng = np.random.default_rng(7)
    for rel in (derive_relations(moyal, C4), derive_relations(toric, C4),
                derive_relations(moyal, "R4"), derive_relations(toric, "R4")):
        assert star_closure_residual(rel, rng, trials=10) < 1e-10


def test_smash_moyal_action_rule(moyal):
    rel = smash_relations(moyal, k=1)
    _validate(rel)
    t1 = moyal.hopf_letters()[0]
    m1 = monad_m(1, 1, 1)
    p = normal_form(NCPolynomial.from_word((t1, m1)), rel)
    # (1 x t1)(M1 x 1) = M1 x t1 + i hbar alpha M3 x 1
    assert p.coefficient((m1, t1)).approx_eq(Coefficient(1.0))
    assert p.coefficient((monad_m(3, 1, 1),), hbar=1).approx_eq(
        Coefficient(1j * HBAR * ALPHA, 1))


def test_smash_toric_reordering_phase(toric):
    rel = smash_relations(toric, k=1)
    _validate(rel)
    s = toric.hopf_letters()
    # (M^j x u_l)(M^r x u_s) = eta_{lr} eta_{rj} eta_{js} (M^r x u_s)(M^j x u_l)
    for (j, l, r, srt) in [(1, 3, 3, 1), (2, 1, 4, 3), (1, 2, 3, 4)]:
        a = multiply(NCPolynomial.from_word((monad_m(j, 1, 1), s[l - 1])),
                     NCPolynomial.from_word((monad_m(r, 2, 1), s[srt - 1])),
                     rel)
        b = multiply(NCPolynomial.from_word((monad_m(r, 2, 1), s[srt - 1])),
                     NCPolynomial.from_word((monad_m(j, 1, 1), s[l - 1])),
                     rel)
        mu2 = ETA_MU2[l - 1][r - 1] + ETA_MU2[r - 1][j - 1] \
            + ETA_MU2[j - 1][srt - 1]
        assert (a - b.scale_coeff(Coefficient(1.0, mu2=mu2))).eval_norm(
            0.25) < 1e-13


def test_smash_trivial_action_commutes():
    m0 = MoyalModel(0.0, 1.0, 1.0)
    rel = smash_relations(m0, k=1)
    _validate(rel)
    t1 = m0.hopf_letters()[0]
    m1 = monad_m(1, 1, 1)
    p = normal_form(NCPolynomial.from_word((t1, m1)), rel)
    assert p.coefficient((m1, t1)).approx_eq(Coefficient(1.0))
    assert len(p.terms) == 1


def test_monad_relations_match_displayed(moyal):
    rel = derive_relations(moyal, "MonadM", k=1)
    a, b = monad_m(1, 1, 1), monad_m(2, 2, 1)
    # [M1_ab, M2_rs] = i hbar alpha M3_ab M4_rs - i hbar beta M3_rs M4_ab
    # (the displayed i hbar (alpha - beta) M3 M4 is its diagonal form)
    comm = multiply(NCPolynomial.from_generator(a),
                    NCPolynomial.from_generator(b), rel) \
        - multiply(NCPolynomial.from_generator(b),
                   NCPolynomial.from_generator(a), rel)
    assert comm.coefficient((monad_m(3, 1, 1), monad_m(4, 2, 1)),
                            hbar=1).approx_eq(Coefficient(1j * HBAR * ALPHA, 1))
    assert comm.coefficient((monad_m(3, 2, 1), monad_m(4, 1, 1)),
                            hbar=1).approx_eq(Coefficient(-1j * HBAR * BETA, 1))
    # diagonal indices reproduce the displayed combination
    aa, bb = monad_m(1, 1, 1), monad_m(2, 1, 1)
    comm = multiply(NCPolynomial.from_generator(aa),
                    NCPolynomial.from_generator(bb), rel) \
        - multiply(NCPolynomial.from_generator(bb),
                   NCPolynomial.from_generator(aa), rel)
    assert comm.coefficient((monad_m(3, 1, 1), monad_m(4, 1, 1)),
                            hbar=1).approx_eq(
        Coefficient(1j * HBAR * (ALPHA - BETA), 1))
    # [M1_ab, M1_rs*] = i hbar alpha M3 M3* + i hbar beta M4 M4*
    c = monad_m(1, 2, 1, True)
    comm = multiply(NCPolynomial.from_generator(a),
                    NCPolynomial.from_generator(c), rel) \
        - multiply(NCPolynomial.from_generator(c),
                   NCPolynomial.from_generator(a), rel)
    assert comm.coefficient((monad_m(3, 1, 1), monad_m(3, 2, 1, True)),
                            hbar=1).approx_eq(Coefficient(1j * HBAR * ALPHA, 1))
    assert comm.coefficient((monad_m(4, 1, 1), monad_m(4, 2, 1, True)),
                            hbar=1).approx_eq(Coefficient(1j * HBAR * BETA, 1))


def test_toric_monad_relations(toric):
    rel = derive_relations(toric, "MonadM", k=1)
    a, b = monad_m(1, 1, 1), monad_m(3, 2, 1)
    # M^j_ab M^l_cd = eta_{lj} M^l_cd M^j_ab
    p = multiply(NCPolynomial.from_generator(a),
                 NCPolynomial.from_generator(b), rel)
    q = multiply(NCPolynomial.from_generator(b),
                 NCPolynomial.from_generator(a), rel)
    assert (p - q.scale_coeff(Coefficient(1.0, mu2=ETA_MU2[2][0]))).eval_norm(
        0.25) < 1e-13


def test_model_json_roundtrip(moyal, toric):
    for m in (moyal, toric, ClassicalModel()):
        m2 = model_from_json(m.to_json_dict())
        assert m2.kind == m.kind
        assert abs(m2.mu - m.mu) < 1e-15
        assert abs(m2.zeta_level - m.zeta_level) < 1e-15


def test_model_validation():
    with pytest.raises(ModelMismatch):
        MoyalModel(-1.0)
    with pytest.raises(ModelMismatch):
        MoyalModel(0.1, 1.0, -1.0)
    with pytest.raises(ModelMismatch):
        ToricModel(1.5)
    with pytest.raises(ModelMismatch):
        model_from_json({"model": "nope"})


@pytest.mark.parametrize("params", [
    (float("nan"), 1.0, 1.0), (float("inf"), 1.0, 1.0),
    (0.1, float("nan"), 1.0), (0.1, 1.0, float("-inf")),
    (0.0, float("nan"), 1.0),
])
def test_moyal_model_rejects_non_finite_parameters(params):
    with pytest.raises(ModelMismatch, match="must be finite"):
        MoyalModel(*params)


def test_missing_coaction_and_mismatch(moyal, toric):
    with pytest.raises(MissingCoaction):
        toric.coaction(GeneratorId(R4, -1))  # localisation inverse
    with pytest.raises(ModelMismatch):
        moyal.cocycle(S1, S2)  # torus monomials fed to translations


@pytest.mark.parametrize("space, index", [
    (C4, 0), (C4, 5), (MONAD_M, 0), (MONAD_M, 5), (R4, 0), (R4, 5),
])
@pytest.mark.parametrize("kind", ["moyal", "toric"])
def test_coaction_of_unknown_family_index_raises(kind, space, index,
                                                 request):
    # index 0 must not wrap round to the last member of the family; R4 is
    # probed at grade 1, where a known dR4 letter has the trivial coaction
    model = request.getfixturevalue(kind)
    grade = 1 if space == R4 else 0
    with pytest.raises(MissingCoaction):
        model.coaction(GeneratorId(space, index, grade=grade, row=1, col=1))


def _tally(terms):
    """Sum ``(key, coeff)`` pairs by key and drop what cancels."""
    out = {}
    for key, c in terms:
        out[key] = out.get(key, 0.0) + c
    return {key: c for key, c in out.items() if abs(c) > 1e-14}


def _same(a, b):
    return a.keys() == b.keys() and all(abs(a[k] - b[k]) <= 1e-14 for k in a)


def _delta(model, x):
    """Coaction of a leg; a pure Hopf leg (x is None) has 1 (x) 1."""
    if x is None:
        return ((1.0, model.hopf_unit(), None),)
    return model.coaction(x)


@pytest.mark.parametrize("kind", ["moyal", "toric"])
def test_coaction_tables_are_counital_and_coassociative(kind, request):
    model = request.getfixturevalue(kind)
    gens = (model.generators(C4) + model.generators(R4)
            + model.generators(MONAD_M, k=2))
    for g in gens:
        legs = model.coaction(g)
        # (eps (x) id) delta = id
        assert _same(_tally((x, c * model.counit(h)) for c, h, x in legs),
                     {g: 1.0}), g
        # (Delta (x) id) delta = (id (x) delta) delta
        lhs = _tally(((h1, h2, x), c * m) for c, h, x in legs
                     for h1, h2, m in h.coproduct())
        rhs = _tally(((h, h2, x2), c * c2) for c, h, x in legs
                     for c2, h2, x2 in _delta(model, x))
        assert _same(lhs, rhs), g


@pytest.mark.parametrize("kind", ["moyal", "toric"])
def test_monad_pairing_is_coinvariant(kind, request):
    # sum_j delta(M^j_ab) delta(z_j) keeps only a unit Hopf part
    model = request.getfixturevalue(kind)
    k = 2
    for a in range(1, 2 * k + 3):
        for b in range(1, k + 1):
            for conj in (False, True):
                total = _tally(
                    ((h1 * h2, x1, x2), c1 * c2) for j in range(1, 5)
                    for c1, h1, x1 in model.coaction(monad_m(j, a, b, conj))
                    for c2, h2, x2 in model.coaction(z(j, conj)))
                assert len(total) == 4
                assert all(h.is_unit() for h, _, _ in total)


MODELS = {"classical": ClassicalModel,
          "moyal": lambda: MoyalModel(HBAR, ALPHA, BETA),
          "toric": lambda: ToricModel(0.25)}


@pytest.mark.parametrize("kind", list(MODELS))
def test_coaction_legs_are_memoised_immutable_tuples(kind):
    model = MODELS[kind]()
    gens = (model.generators(C4) + model.generators(R4)
            + model.generators(MONAD_M, k=2))
    for g in gens:
        legs = model.coaction(g)
        assert model.coaction(g) is legs, g
        # the memo holds what a fresh model expands
        assert legs == MODELS[kind]()._expand_coaction(g), g
        assert isinstance(legs, tuple), g
        assert all(isinstance(leg, tuple) for leg in legs), g
        hash(legs)  # immutable all the way down


@pytest.mark.parametrize("kind", ["moyal", "toric"])
def test_deformed_basis_never_changes_a_memoised_word(kind, request):
    model = request.getfixturevalue(kind)
    gens = model.generators(C4)
    twisted, held = {}, {}
    for g in gens:
        for h in gens:
            x = twist_product(model, NCPolynomial.from_generator(g),
                              NCPolynomial.from_generator(h))
            before = dict(x.terms)
            rhs = express_in_deformed_basis(model, x, twisted)
            assert x.terms == before
            assert rhs == express_in_deformed_basis(model, x, {})
            for w, q in twisted.items():
                held.setdefault(w, (q, dict(q.terms)))
    assert held.keys() == twisted.keys()
    for w, (q, terms) in held.items():
        assert twisted[w] is q and q.terms == terms, w
        assert terms == _twist_eval_word(model, w, {}).terms, w


def test_solve_config_validation():
    from ncadhm.adhm_solver import SolveConfig
    with pytest.raises(ValueError):
        SolveConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        SolveConfig(multistarts=0)


def _reference_pair_rules(model, gens):
    """The per-pair derivation before each class's rule was relabelled onto
    its pairs, kept verbatim as a reference."""
    gens = sorted(gens, key=lambda g: g.sort_key)
    rules = {}
    twisted = {}  # each deformed word evaluated once for all pairs
    for i, g in enumerate(gens):
        for h in gens[:i + 1]:
            if g == h and g.grade == 0:
                continue
            rhs = _derived_rule(model, g, h, twisted)
            if not _is_default_rule(g, h, rhs):
                rules[(g, h)] = rhs
    return rules


def _rhs_bits(rhs):
    """A rule's words, with each coefficient's type and bits."""
    return [(w, type(c.value), struct.pack("<dd", c.value.real, c.value.imag),
             c.hbar, c.mu2) for w, c in rhs]


def _assert_same_rules(got, want):
    """The same keys in the same order, the same words and the same
    coefficients bit for bit (zero signs included)."""
    assert list(got) == list(want)
    assert [_rhs_bits(rhs) for rhs in got.values()] == \
        [_rhs_bits(rhs) for rhs in want.values()]


RELABEL_MODELS = {"moyal": lambda: MoyalModel(0.1, 1.0, 2.1),
                  "toric": lambda: ToricModel(0.27)}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("kind", list(RELABEL_MODELS))
def test_pair_rules_match_the_reference_loop(kind, k, monkeypatch):
    model = RELABEL_MODELS[kind]()
    got = (derive_relations(model, MONAD_M, k=k).rules,
           smash_relations(model, k=k).rules)
    reference = {}  # the MonadM letters are derived once for both systems

    def pair_rules(model, gens):
        key = frozenset(gens)
        if key not in reference:
            reference[key] = _reference_pair_rules(model, gens)
        return reference[key]

    monkeypatch.setattr(hopf_twist, "_pair_rules", pair_rules)
    want = (derive_relations(model, MONAD_M, k=k).rules,
            smash_relations(model, k=k).rules)
    for g, w in zip(got, want):
        _assert_same_rules(g, w)


@pytest.mark.parametrize("kind", list(RELABEL_MODELS))
def test_pair_rules_across_spaces_match_the_reference_loop(kind,
                                                           monkeypatch):
    # C4 letters sit in cell (0, 0), before every monad cell, so the monad
    # classes of the twisted tensor product are derived on (0, 0) and (1, 1)
    model = RELABEL_MODELS[kind]()

    def rules():
        return derive_relations(model, (MONAD_M, C4), k=1,
                                calculus=False).rules

    got = rules()
    monkeypatch.setattr(hopf_twist, "_pair_rules", _reference_pair_rules)
    _assert_same_rules(got, rules())


def _reference_smash_rules(model, k, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(hopf_twist, "_pair_rules", _reference_pair_rules)
        return smash_relations(model, k).rules


# (k, with the monad letters); k = 1 without them is the system of index 0
SMASH_CASES = [(1, True), (2, True), (1, False)]


@pytest.mark.parametrize("k, include_monad", SMASH_CASES)
@pytest.mark.parametrize("kind", list(RELABEL_MODELS))
def test_lazy_smash_rules_match_the_eager_reference(kind, k, include_monad,
                                                    monkeypatch):
    # Iterated from fresh, and iterated after the pairs were looked up in
    # reverse order (so each class is derived on another pair first), the
    # lazy rules hold the reference's keys in its order, with its bits.
    k = k if include_monad else 0
    want = _reference_smash_rules(RELABEL_MODELS[kind](), k, monkeypatch)
    _assert_same_rules(smash_relations(RELABEL_MODELS[kind](), k).rules,
                       want)
    rel = smash_relations(RELABEL_MODELS[kind](), k)
    lazy = rel.rules
    for g in reversed(rel.generators):
        for h in reversed(rel.generators):
            assert ((g, h) in lazy) == ((g, h) in want), (g, h)
    _assert_same_rules(lazy, want)
    assert len(lazy) == len(want)
    # the monad rules come first, then the coordinate rules, then the Hopf
    # rules
    parts = [2 if {g.space for g in pair} & {HOPF_TRANS, HOPF_TORUS}
             else 1 if pair[0].space == C4 else 0 for pair in lazy]
    assert parts == sorted(parts)
    assert 1 in parts and (0 in parts) == include_monad


def test_a_lazy_rule_that_writes_an_outside_letter_raises(monkeypatch):
    # the smash system is built without deriving the rule; the engine
    # derives it when it first meets the pair, and refuses the letter
    derived = hopf_twist._derived_rule

    def outside(model, g, h, twisted):
        return derived(model, g, h, twisted) + (((zeta(1),),
                                                  Coefficient(1.0)),)

    monkeypatch.setattr(hopf_twist, "_derived_rule", outside)
    rel = smash_relations(MoyalModel(0.1, 1.0, 2.1), 0)
    with pytest.raises(UnknownGenerator, match=r"z2\*z1 writes a letter"):
        normal_form(NCPolynomial.from_word((z(2), z(1))), rel)


def test_a_key_error_inside_a_lazy_derivation_is_not_a_missing_rule(
        monkeypatch):
    # a lookup that fails inside the derivation raises; the pair is not
    # taken for one that commutes
    def failing(model, g, h, twisted):
        raise KeyError("a table entry")

    monkeypatch.setattr(hopf_twist, "_derived_rule", failing)
    rel = smash_relations(MoyalModel(0.1, 1.0, 2.1), 0)
    with pytest.raises(KeyError, match="a table entry"):
        normal_form(NCPolynomial.from_word((z(2), z(1))), rel)


@pytest.mark.parametrize("kind", list(RELABEL_MODELS))
def test_forced_rules_give_the_normal_forms_of_lazy_rules(kind):
    forced = smash_relations(RELABEL_MODELS[kind](), k=1)
    assert len(forced.rules)
    lazy = smash_relations(RELABEL_MODELS[kind](), k=1)
    gens = lazy.generators
    rng = np.random.default_rng(3)
    for _ in range(40):
        w = tuple(gens[i] for i in rng.integers(0, len(gens),
                                                int(rng.integers(2, 6))))
        p = NCPolynomial.from_word(w, complex(*rng.standard_normal(2)))
        got, want = normal_form(p, lazy), normal_form(p, forced)
        assert list(got.terms) == list(want.terms), w
        assert [struct.pack("<dd", v.real, v.imag)
                for v in got.terms.values()] == \
            [struct.pack("<dd", v.real, v.imag)
             for v in want.terms.values()], w


@pytest.mark.parametrize("make, params, differ", [
    (lambda x: MoyalModel(x, 1.0, 1.0), (0.1, 0.2), True),
    # the torus rules are formal in mu, so theta = 0 alone changes them
    (ToricModel, (0.25, 0.3), False),
    (ToricModel, (0.0, 0.3), True),
])
def test_model_memos_are_per_model(make, params, differ):
    # Two parameters in one process, each derived twice on one model and
    # once more on a fresh one: a memo shared between models would hand the
    # second parameter the first one's cocycle values.
    first = {x: derive_relations(make(x), C4).rules for x in params}
    a, b = ([_rhs_bits(rhs) for rhs in first[x].values()] for x in params)
    assert (a != b) == differ
    for x in params:
        model = make(x)
        _assert_same_rules(derive_relations(model, C4).rules, first[x])
        _assert_same_rules(derive_relations(model, C4).rules, first[x])
        _assert_same_rules(derive_relations(make(x), C4).rules, first[x])


@pytest.mark.parametrize("kind", ["moyal", "toric"])
def test_word_coactions_and_cocycle_values_are_memoised(kind, request):
    model = request.getfixturevalue(kind)
    word = (z(1), z(3, True), z(4))
    branches = hopf_twist._word_coaction(model, word)
    assert isinstance(branches, tuple)
    assert hopf_twist._word_coaction(model, word) is branches
    fresh = MODELS[kind]()
    assert hopf_twist._word_coaction(fresh, word) == branches
    h, g = (T1S, T1) if kind == "moyal" else (S1, S2)
    assert model.cocycle(h, g) is model.cocycle(h, g)
    assert model.cocycle(h, g) == fresh._cocycle(h, g)


@pytest.mark.parametrize("kind", list(RELABEL_MODELS))
def test_hopf_action_rules_are_row_and_column_blind(kind):
    # They are: each Hopf letter's rule on M^j_ab is its rule on M^j_11
    # with every monad letter moved to (a, b).  smash_relations still
    # builds them per letter, by act_formal; they cost about 0.01 s at k=2,
    # and relabelling them would add code, not delete it.
    model = RELABEL_MODELS[kind]()
    rel = smash_relations(model, k=2)
    found = 0
    for hg in model.hopf_letters():
        for a in model.generators(MONAD_M, k=2):
            rhs = rel.rules.get((hg, a))
            base = rel.rules.get((hg, moved(a, (1, 1))))
            assert (rhs is None) == (base is None), (hg, a)
            if rhs is not None:
                found += 1
                assert _rhs_bits(rhs) == _rhs_bits(
                    [(tuple(moved(x, (a.row, a.col)) for x in w), c)
                     for w, c in base]), (hg, a)
    assert found


# The centrality check of tests/test_instanton.py rests on this test for
# the model parameters of the workloads, so they are cases here too.
PERMUTATION_MODELS = {**RELABEL_MODELS, **WORKLOAD_MODELS}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("kind", list(PERMUTATION_MODELS))
def test_row_and_column_permutations_map_rules_to_identities(kind, k):
    # Reversing the rows (or the columns) of the monad letters, or swapping
    # two adjacent columns, maps every rule to an identity of the same
    # system: the permuted pattern and the permuted right-hand side have
    # equal normal forms.  A row reversal swaps the order of any two cells
    # in different rows, so many permuted patterns are not rule keys.  The
    # adjacent transpositions generate every column permutation, on which
    # the centrality check's column orbits rest.  At k=1 there is one
    # column and the column reversal is the identity.
    model = PERMUTATION_MODELS[kind]()
    perms = {**reversals(k), **column_transpositions(k)}
    assert len(perms) == k + 1
    for rel in (derive_relations(model, MONAD_M, k=k),
                smash_relations(model, k=k)):
        for name, perm in perms.items():
            assert broken_rules(rel, perm, model.theta) == [], name
