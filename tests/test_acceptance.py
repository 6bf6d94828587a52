"""Acceptance suite: one test per criterion, run with ``pytest -v -s``.

Each test prints a single PASS line on success (failures surface as the
usual pytest assertions).  Tolerances and runtime budgets are pinned here.
"""

import time

import numpy as np
import pytest

from ncadhm.adhm_solver import SolveConfig, gauge_distance, moduli_dimension, solve
from ncadhm.hopf_twist import (
    ClassicalModel, MoyalModel, ToricModel, S1, S2, TorusMonomial,
    TransMonomial, bicharacter_residual, cotriangularity_residual,
    crossed_module_residual, derive_relations, two_cocycle_residual, z, zeta,
)
from ncadhm.instanton import (
    PointR4, charge, curvature_asd, evaluate_projector,
    finite_difference_curvature, symbolic_projector_checks,
)
from ncadhm.instanton import _curvature_batch
from ncadhm.monad import ADHMData, adhm_residual, build_monad, monad_residual
from ncadhm.star_algebra import (
    C4, R4, Coefficient, NCPolynomial, classical_product, multiply,
    normal_form,
)
from ncadhm.twistor import j_squared_residual, verify_embeddings
from ncadhm.hopf_twist import twist_product

HBAR, ALPHA, BETA = 0.1, 1.0, 2.0
THETA = 0.25


def _report(n, name, started, budget):
    elapsed = time.monotonic() - started
    print(f"\nACCEPTANCE {n:02d} {name}: PASS ({elapsed:.1f}s)")
    assert elapsed < budget, f"criterion {n} exceeded {budget}s budget"


def _rule_eq(rel, pattern, expected, theta=None):
    """The stored rule for `pattern` matches the expected term list exactly."""
    rhs = rel.rules.get(tuple(pattern), None)
    assert rhs is not None, f"no rule for {pattern}"
    got = {(w, c.hbar, c.mu2): c.value for w, c in rhs}
    exp = {(tuple(w), c.hbar, c.mu2): c.value for w, c in expected}
    assert set(got) == set(exp), (pattern, got, exp)
    for k in exp:
        assert abs(got[k] - exp[k]) <= 1e-12, (pattern, k, got[k], exp[k])


def test_criterion_01_relation_derivation():
    t0 = time.monotonic()
    one = Coefficient(1.0)

    # Heisenberg-type deformation of the ambient coordinates
    mo = MoyalModel(HBAR, ALPHA, BETA)
    rel = derive_relations(mo, C4)
    ih = lambda v: Coefficient(1j * HBAR * v, 1)
    _rule_eq(rel, (z(4), z(3)),
             [((z(3), z(4)), one), ((z(1), z(2)), ih(-(ALPHA + BETA)))])
    # conjugate relation: the star-closed sign (opposite to the first)
    _rule_eq(rel, (z(4, True), z(3, True)),
             [((z(3, True), z(4, True)), one),
              ((z(1, True), z(2, True)), ih(ALPHA + BETA))])
    _rule_eq(rel, (z(3, True), z(3)),
             [((z(3), z(3, True)), one),
              ((z(1), z(1, True)), ih(-ALPHA)),
              ((z(2), z(2, True)), ih(BETA))])
    _rule_eq(rel, (z(4, True), z(4)),
             [((z(4), z(4, True)), one),
              ((z(1), z(1, True)), ih(-BETA)),
              ((z(2), z(2, True)), ih(ALPHA))])
    # z1, z2 central: no deformed rule touches them as the left letter
    for g in (z(1), z(1, True), z(2), z(2, True)):
        for pat in rel.rules:
            assert pat[1].grade or pat[0] not in (g,), pat

    # plane relations
    relr = derive_relations(mo, R4)
    _rule_eq(relr, (zeta(1, True), zeta(1)),
             [((zeta(1), zeta(1, True)), one), ((), ih(ALPHA))])
    _rule_eq(relr, (zeta(2, True), zeta(2)),
             [((zeta(2), zeta(2, True)), one), ((), ih(-BETA))])
    # the plane calculus is undeformed: no other rules at all
    assert set(relr.rules) == {(zeta(1, True), zeta(1)),
                               (zeta(2, True), zeta(2))}

    # torus deformation: all sixteen eta-phases, for functions and forms
    to = ToricModel(THETA)
    relt = derive_relations(to, C4)
    ETA_MU2 = [[0, 0, 2, -2], [0, 0, -2, 2], [-2, 2, 0, 0], [2, -2, 0, 0]]
    for j in range(1, 5):
        for l in range(1, 5):
            for grade_l, grade_r, sign in ((0, 0, 1.0), (0, 1, 1.0),
                                           (1, 0, 1.0), (1, 1, -1.0)):
                a = z(j, False, grade_l)
                b = z(l, False, grade_r)
                if a.sort_key <= b.sort_key:
                    continue
                mu2 = ETA_MU2[l - 1][j - 1]
                if mu2 == 0:
                    # default graded transposition, not stored
                    assert (a, b) not in relt.rules
                else:
                    _rule_eq(relt, (a, b),
                             [((b, a), Coefficient(sign, mu2=mu2))])
    # z_j z_l* family: eta_{jl}
    for j in range(2, 5):
        for l in range(1, j):
            mu2 = ETA_MU2[j - 1][l - 1]
            if mu2:
                _rule_eq(relt, (z(j), z(l, True)),
                         [((z(l, True), z(j)), Coefficient(1.0, mu2=mu2))])

    # localised torus plane, lambda = mu^2
    relrt = derive_relations(to, R4)
    _rule_eq(relrt, (zeta(2), zeta(1)),
             [((zeta(1), zeta(2)), Coefficient(1.0, mu2=-4))])
    _rule_eq(relrt, (zeta(2, True), zeta(1)),
             [((zeta(1), zeta(2, True)), Coefficient(1.0, mu2=4))])
    # its calculus: zeta1 dzeta2 = lambda dzeta2 zeta1 and the wedge version
    _rule_eq(relrt, (zeta(2).d(), zeta(1)),
             [((zeta(1), zeta(2).d()), Coefficient(1.0, mu2=-4))])
    _rule_eq(relrt, (zeta(2).d(), zeta(1).d()),
             [((zeta(1).d(), zeta(2).d()), Coefficient(-1.0, mu2=-4))])
    _rule_eq(relrt, (zeta(2, True).d(), zeta(1).d()),
             [((zeta(1).d(), zeta(2, True).d()), Coefficient(-1.0, mu2=4))])

    _report(1, "relation derivation", t0, 5.0)


def test_criterion_02_cocycle_axioms():
    t0 = time.monotonic()
    mo = MoyalModel(HBAR, ALPHA, BETA)
    to = ToricModel(THETA)
    rng = np.random.default_rng(100)

    def rand_trans():
        while True:
            e = tuple(int(rng.integers(0, 2)) for _ in range(4))
            if sum(e) <= 3:
                return TransMonomial(e)

    def rand_torus():
        return TorusMonomial((int(rng.integers(-3, 4)),
                              int(rng.integers(-3, 4))))

    mo_gens = list(mo.generators(C4, calculus=False))
    to_gens = list(to.generators(C4, calculus=False))
    for i in range(100):
        f, g, h = (rand_trans() for _ in range(3))
        assert two_cocycle_residual(mo, f, g, h) < 1e-10
        assert bicharacter_residual(mo, f, g, h) < 1e-10
        assert cotriangularity_residual(mo, f, g) < 1e-10
        ft, gt, ht = (rand_torus() for _ in range(3))
        assert two_cocycle_residual(to, ft, gt, ht) < 1e-10
        assert bicharacter_residual(to, ft, gt, ht) < 1e-10
        assert cotriangularity_residual(to, ft, gt) < 1e-10
        if i < 50:
            gen = mo_gens[int(rng.integers(0, len(mo_gens)))]
            assert crossed_module_residual(mo, rand_trans(), gen) < 1e-10
            gent = to_gens[int(rng.integers(0, len(to_gens)))]
            assert crossed_module_residual(to, rand_torus(), gent) < 1e-10
    _report(2, "cocycle axioms", t0, 5.0)


def test_criterion_03_twistor_checks():
    t0 = time.monotonic()
    report = verify_embeddings()
    assert report.passed
    for c in report.checks:
        assert c.residual == 0.0, c
    assert j_squared_residual() == 0.0
    _report(3, "twistor checks", t0, 5.0)


SOLVES = {}


def _solved(key):
    if key not in SOLVES:
        k, model, seed, tol = {
            "moyal1": (1, MoyalModel(0.25, 1.0, 1.0), 7, 1e-12),
            "toric1": (1, ToricModel(0.25), 3, 1e-12),
            "classical1": (1, ClassicalModel(), 1, 1e-12),
            "classical2": (2, ClassicalModel(), 5, 1e-10),
            "moyal2": (2, MoyalModel(0.2, 1.0, 0.5), 11, 1e-10),
            "toric2": (2, ToricModel(0.3), 13, 1e-10),
        }[key]
        SOLVES[key] = solve(k, model, cfg=SolveConfig(rng_seed=seed,
                                                      tolerance=tol))
    return SOLVES[key]


def test_criterion_04_adhm_solving():
    t0 = time.monotonic()
    d = _solved("moyal1")
    assert abs(d.model.zeta_level - 0.5) < 1e-15
    assert sum(adhm_residual(d)) <= 1e-12
    assert sum(adhm_residual(_solved("toric1"))) <= 1e-12
    assert sum(adhm_residual(_solved("classical2"))) <= 1e-10
    # reproducible per seed
    again = solve(1, MoyalModel(0.25, 1.0, 1.0),
                  cfg=SolveConfig(rng_seed=7))
    assert np.array_equal(again.parameter_vector(), d.parameter_vector())
    _report(4, "ADHM solving", t0, 180.0)


def test_criterion_05_monad_equivalence():
    t0 = time.monotonic()
    eps = 1e-3
    for key in ("classical1", "classical2", "moyal1", "moyal2",
                "toric1", "toric2"):
        d = _solved(key)
        model = d.model
        res = monad_residual(build_monad(d), model)
        assert res.eval_max_norm(model.theta) <= 1e-10, key
        dp = d.copy()
        dp.I = dp.I + eps
        rp = monad_residual(build_monad(dp), model).eval_max_norm(model.theta)
        assert eps / 20 <= rp <= 50 * eps, (key, rp)
    _report(5, "monad equivalence", t0, 60.0)


def test_criterion_06_projector_identities():
    t0 = time.monotonic()
    rng = np.random.default_rng(200)
    for key in ("classical1", "classical2"):
        d = _solved(key)
        for _ in range(20):
            p = PointR4(complex(*rng.standard_normal(2)),
                        complex(*rng.standard_normal(2)))
            s = evaluate_projector(d, p)
            assert abs(np.trace(s.Q).real - 2 * d.k) <= 1e-10
            assert abs(np.trace(s.P).real - 2) <= 1e-10
            k = d.k
            rinv = np.linalg.inv(s.rho2)
            Qz = s.V[:, :k] @ rinv @ s.V[:, :k].conj().T
            Qj = s.V[:, k:] @ rinv @ s.V[:, k:].conj().T
            assert np.max(np.abs(Qz @ Qj)) <= 1e-12
    _report(6, "projector identities", t0, 30.0)


def test_criterion_07_anti_self_duality():
    t0 = time.monotonic()
    rng = np.random.default_rng(300)
    for key in ("classical1", "classical2"):
        d = _solved(key)
        pts = [PointR4(complex(*rng.standard_normal(2)),
                       complex(*rng.standard_normal(2))) for _ in range(50)]
        rep = curvature_asd(d, pts)
        assert rep["asd_max_residual"].residual <= 1e-6
        # finite-difference cross-check at one sample point
        p = pts[0]
        F, _ = _curvature_batch(build_monad(d), np.array([p.zeta1]),
                                np.array([p.zeta2]))
        Ffd = finite_difference_curvature(d, p, step=1e-5)
        assert np.linalg.norm(F - Ffd) / np.linalg.norm(F) <= 1e-3
    _report(7, "anti-self-duality", t0, 30.0)


def test_criterion_08_topological_charge():
    t0 = time.monotonic()
    d = _solved("classical1")
    q = charge(d, 8)
    assert 0.99 <= q <= 1.01, q
    q2 = charge(d, 16)
    assert abs(q2 - q) / abs(q) <= 1e-3, (q, q2)
    qt = charge(d.translate(0.3 + 0.1j, -0.2 + 0.25j), 16)
    assert abs(qt - q2) / abs(q2) <= 1e-3, (q2, qt)
    _report(8, "topological charge", t0, 60.0)


def test_criterion_09_moduli_dimensions():
    t0 = time.monotonic()
    for key, k in (("moyal1", 1), ("classical2", 2), ("toric1", 1)):
        ja = moduli_dimension(_solved(key))
        assert ja.raw_nullity == k * k + 8 * k, (key, ja.raw_nullity)
        assert ja.framed_dimension == 8 * k
        assert ja.frame_rotation_rank == 3
        assert ja.framed_dimension - ja.frame_rotation_rank == 8 * k - 3
        assert not ja.degenerate
    _report(9, "moduli dimensions", t0, 30.0)


def test_criterion_10_gauge_properties():
    t0 = time.monotonic()
    rng = np.random.default_rng(400)
    d = _solved("classical1")
    m = build_monad(d)
    pts = [PointR4(complex(*rng.standard_normal(2)),
                   complex(*rng.standard_normal(2))) for _ in range(5)]
    base = [evaluate_projector(d, p).P for p in pts]

    def projector(mm, p):
        from ncadhm.instanton import _v_batch
        V = _v_batch(mm.M, np.array([p.zeta1]), np.array([p.zeta2]))[0]
        G = V.conj().T @ V
        return np.eye(V.shape[0]) - V @ np.linalg.inv(G) @ V.conj().T

    for _ in range(10):
        W = rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1))
        while abs(W[0, 0]) < 0.2:
            W = rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1))
        mw = m.transform_W(W)
        for p, P0 in zip(pts, base):
            assert np.max(np.abs(projector(mw, p) - P0)) <= 1e-10

    for _ in range(10):
        H = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        H = (H + H.conj().T) / 2
        w, Vh = np.linalg.eigh(H)
        U = Vh @ np.diag(np.exp(1j * w)) @ Vh.conj().T
        mu_ = m.transform_U(U)
        for p, P0 in zip(pts, base):
            assert np.max(np.abs(projector(mu_, p) - U @ P0 @ U.conj().T)) \
                <= 1e-10

    d2 = _solved("classical2")
    c0, h0 = adhm_residual(d2)
    for _ in range(10):
        H = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        H = (H + H.conj().T) / 2
        w, Vh = np.linalg.eigh(H)
        g = Vh @ np.diag(np.exp(1j * w)) @ Vh.conj().T
        c1, h1 = adhm_residual(d2.gauge_apply(g))
        assert abs(c1 - c0) <= 1e-12 and abs(h1 - h0) <= 1e-12
    _report(10, "gauge properties", t0, 60.0)


def test_criterion_11_deformed_symbolic_pipeline():
    t0 = time.monotonic()
    for key in ("moyal1", "toric1"):
        d = _solved(key)
        rep = symbolic_projector_checks(d)
        assert rep.passed, (key, rep.summary())
        for c in rep.checks:
            assert c.residual <= 1e-10
    # the identity-free probe: the constant shift is exactly i hbar (a + b)
    model = MoyalModel(0.25, 1.0, 1.0)
    probe = monad_residual(build_monad(ADHMData.zero(1, model)), model)
    coeff = probe.entries[0][0].coefficient((z(1), z(2)), hbar=1)
    assert coeff.approx_eq(
        Coefficient(1j * model.hbar * (model.alpha + model.beta), 1), 1e-15)
    assert len(probe.entries[0][0].terms) == 1
    _report(11, "deformed symbolic pipeline", t0, 60.0)


def test_criterion_12_classical_limit_continuity():
    t0 = time.monotonic()
    small = 1e-6
    for model in (MoyalModel(small, 1.0, 1.0), ToricModel(small)):
        gens = list(model.generators(C4, calculus=False))
        rng = np.random.default_rng(7)
        words = [(g,) for g in gens]
        words += [tuple(gens[int(rng.integers(0, len(gens)))]
                        for _ in range(2)) for _ in range(24)]
        for wa in words:
            for wb in words[:16]:
                a = NCPolynomial.from_word(wa)
                b = NCPolynomial.from_word(wb)
                diff = twist_product(model, a, b) - classical_product(a, b)
                assert diff.eval_norm(model.theta) <= 1e-5
    _report(12, "classical-limit continuity", t0, 60.0)
