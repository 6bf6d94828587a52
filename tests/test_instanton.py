import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest

from ncadhm.adhm_solver import SolveConfig, solve
from ncadhm.hopf_twist import (
    ClassicalModel, MoyalModel, ToricModel, monad_m, smash_image,
    smash_relations, z,
)
from ncadhm.instanton import (
    CURVATURE_CHUNK, ModelMismatch, PointR4, QuadratureBudgetExceeded,
    SingularRho, charge, curvature_asd, curvature_samples,
    evaluate_projector, finite_difference_curvature,
    symbolic_projector_checks,
)
from ncadhm import instanton
from ncadhm.instanton import (
    _asd_residuals, _curvature_batch, _density_of, _dv_tables, _per_point,
    _v_batch,
)
from ncadhm.monad import (
    SYMBOLIC_TOL, ADHMData, MonadMatrices, PolyMatrix, ShapeError,
    adhm_residual, bosonise_j_map, bosonise_monad, build_monad,
)
from ncadhm.star_algebra import (
    C4, MONAD_M, NCPolynomial, RelationSystem, multiply, normal_form,
)

from monad_symmetry import (
    WORKLOAD_MODELS, broken_rules, column_transpositions, reversals,
)


@pytest.fixture(scope="module")
def solved_k1():
    return solve(1, ClassicalModel(), cfg=SolveConfig(rng_seed=1))


@pytest.fixture(scope="module")
def solved_k2():
    return solve(2, ClassicalModel(), cfg=SolveConfig(rng_seed=5,
                                                      tolerance=1e-10))


def random_points(n, seed=0, scale=1.2):
    rng = np.random.default_rng(seed)
    return [PointR4(scale * complex(*rng.standard_normal(2)),
                    scale * complex(*rng.standard_normal(2)))
            for _ in range(n)]


def test_projector_invariants(solved_k1, solved_k2):
    for d in (solved_k1, solved_k2):
        for p in random_points(20, seed=d.k):
            s = evaluate_projector(d, p)
            n = 2 * d.k + 2
            assert np.linalg.norm(s.Q - s.Q.conj().T) < 1e-12
            assert np.linalg.norm(s.Q @ s.Q - s.Q) < 1e-12
            assert abs(np.trace(s.Q).real - 2 * d.k) < 1e-10
            assert abs(np.trace(s.P).real - 2) < 1e-10
            VV = s.V.conj().T @ s.V
            assert np.linalg.norm(
                VV - np.kron(np.eye(2), s.rho2)) < 1e-10
            # the two half projections are orthogonal
            k = d.k
            s1, s2 = s.V[:, :k], s.V[:, k:]
            rinv = np.linalg.inv(s.rho2)
            Qz = s1 @ rinv @ s1.conj().T
            Qj = s2 @ rinv @ s2.conj().T
            assert np.linalg.norm(Qz @ Qj) < 1e-12


def test_projector_matches_batch_and_closed_form(solved_k1, solved_k2):
    # the per-point projector against the batched curvature path, and Q
    # against sigma1 rho^-2 sigma1+ + sigma2 rho^-2 sigma2+ with the two
    # blocks written out from (B1, B2, I, J) rather than the monad matrices
    for d in (solved_k1, solved_k2):
        pts = random_points(20, seed=10 + d.k)
        z1 = np.array([p.zeta1 for p in pts])
        z2 = np.array([p.zeta2 for p in pts])
        _, P = _curvature_batch(build_monad(d), z1, z2)
        eye = np.eye(d.k)
        for p, Pb in zip(pts, P):
            s = evaluate_projector(d, p)
            assert np.max(np.abs(s.P - Pb)) < 1e-13
            a, b = p.zeta1, p.zeta2
            s1 = np.vstack([d.B1 + np.conj(a) * eye, d.B2 - b * eye, d.J])
            s2 = np.vstack([-d.B2.conj().T + np.conj(b) * eye,
                            d.B1.conj().T + a * eye, d.I.conj().T])
            rinv = np.linalg.inv(s1.conj().T @ s1)
            Q = s1 @ rinv @ s1.conj().T + s2 @ rinv @ s2.conj().T
            assert np.max(np.abs(s.Q - Q)) < 1e-13


def test_p_is_one_minus_q_after_replace(solved_k1):
    # P is 1 - Q of the sample's own Q, so it follows a replaced Q
    s = evaluate_projector(solved_k1, PointR4(0.4 + 0.1j, -0.3 + 0.6j))
    assert np.array_equal(s.P, np.eye(4) - s.Q)
    Q2 = s.Q + 1e-8 * np.eye(4)
    assert np.array_equal(dataclasses.replace(s, Q=Q2).P, np.eye(4) - Q2)


def test_rho2_matches_dense_oracle(solved_k1):
    # rho2 at the origin equals the brute evaluation of sigma+ sigma
    m = build_monad(solved_k1)
    s = evaluate_projector(solved_k1, PointR4(0.0, 0.0))
    sigma1 = m.M[0]  # + 0 * M3 - 0 * M4
    assert np.allclose(s.rho2, sigma1.conj().T @ sigma1)


def test_projector_needs_classical_model():
    d = ADHMData.zero(1, MoyalModel(0.25, 1.0, 1.0))
    d.I[0, 0] = np.sqrt(0.5)
    with pytest.raises(ModelMismatch):
        evaluate_projector(d, PointR4(0.0, 0.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_point_with_a_non_finite_part_is_a_shape_error(bad):
    for part in range(4):
        x = [0.3, 0.1, -0.2, 0.4]
        x[part] = bad
        with pytest.raises(ShapeError, match="finite"):
            PointR4(complex(x[0], x[1]), complex(x[2], x[3]))


def test_singular_rho_guard():
    d = ADHMData.zero(1, ClassicalModel())  # zero-size cone point
    with pytest.raises(SingularRho):
        evaluate_projector(d, PointR4(0.0, 0.0))


@pytest.mark.parametrize("evaluate", [curvature_asd, curvature_samples])
def test_singular_rho_guard_on_point_batches(evaluate):
    # the origin among regular points, in the first chunk or the second:
    # the guard rejects the batch at the call
    d = ADHMData.zero(1, ClassicalModel())
    for at in (2, CURVATURE_CHUNK + 3):
        points = random_points(CURVATURE_CHUNK + 5, seed=4)
        points.insert(at, PointR4(0.0, 0.0))
        with pytest.raises(SingularRho):
            evaluate(d, points)


def test_asd_residual_small_on_solutions(solved_k1, solved_k2):
    for d in (solved_k1, solved_k2):
        rep = curvature_asd(d, random_points(50, seed=2))
        assert rep.passed
        assert rep["asd_max_residual"].residual <= 1e-6


def test_asd_residual_large_off_shell():
    rng = np.random.default_rng(7)
    d = ADHMData(1, ClassicalModel(), rng.standard_normal((1, 1)),
                 rng.standard_normal((1, 1)),
                 rng.standard_normal((1, 2)) + np.array([[2.0, 0.0]]),
                 rng.standard_normal((2, 1)))
    assert sum(adhm_residual(d)) > 0.1
    rep = curvature_asd(d, random_points(10, seed=3))
    assert rep["asd_max_residual"].residual > 1e-2


def test_chunked_residuals_match_one_batch(solved_k2):
    # points spanning three chunks: each residual equals the one from a
    # single batch over all of them, bit for bit
    pts = random_points(2 * CURVATURE_CHUNK + 37, seed=8)
    z1 = np.array([p.zeta1 for p in pts])
    z2 = np.array([p.zeta2 for p in pts])
    ref = _asd_residuals(_curvature_batch(build_monad(solved_k2), z1, z2)[0])
    res = [s.asd_residual for s in curvature_samples(solved_k2, pts)]
    assert np.array_equal(res, ref)
    worst = curvature_asd(solved_k2, pts)["asd_max_residual"].residual
    assert worst == ref.max()


def test_streamed_samples_memory_is_bounded(solved_k2):
    # the samples are built as they are read and each chunk's F is reduced
    # in place: the peak does not grow with the points.  Built as a list,
    # with F, *F and F + *F held per 256-point chunk, the samples peaked at
    # 5.7 MiB over 2,000 points and 11.9 MiB over 8,000
    pts = random_points(8000, seed=9)
    peaks = []
    for n in (2000, 8000):
        batch = pts[:n]
        tracemalloc.start()
        try:
            for _ in curvature_samples(solved_k2, batch):
                pass
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2 ** 20
    assert peaks[1] < 4 * 2 ** 20


def test_curvature_asd_memory_is_bounded(solved_k2):
    # one batch over all 2,000 points held about 45 MiB of F and its dual
    pts = random_points(2000, seed=9)
    tracemalloc.start()
    try:
        curvature_asd(solved_k2, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_finite_difference_cross_check(solved_k1):
    p = PointR4(0.4 + 0.1j, -0.3 + 0.6j)
    m = build_monad(solved_k1)
    F, _ = _curvature_batch(m, np.array([p.zeta1]), np.array([p.zeta2]))
    Ffd = finite_difference_curvature(solved_k1, p, step=1e-5)
    rel = np.linalg.norm(F - Ffd) / np.linalg.norm(F)
    assert rel < 1e-3


def _literal_dv_tables(m):
    """The derivatives of V in (Re z1, Im z1, Re z2, Im z2) as written out
    by hand before they were derived from _v_batch, kept verbatim as an
    oracle."""
    M3, M4 = m.M[2], m.M[3]
    # sigma_(1) depends on zeta1* and zeta2, sigma_(2) on zeta2* and zeta1.
    return [
        np.hstack([M3, M4]),                # d/d Re zeta1
        np.hstack([-1j * M3, 1j * M4]),     # d/d Im zeta1
        np.hstack([-M4, M3]),               # d/d Re zeta2
        np.hstack([-1j * M4, -1j * M3]),    # d/d Im zeta2
    ]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_dv_tables_match_literal_table_and_central_differences(k):
    # the golden `solve --seed 3` monad of tests/test_cli.py and a random
    # complex one; values, not bits: on the solved monads some zeros of the
    # derived table differ in sign from the literal one
    n = 2 * k + 2
    rng = np.random.default_rng(30 + k)
    golden = build_monad(solve(k, ClassicalModel(), cfg=SolveConfig(
        rng_seed=3, tolerance=1e-12 if k == 1 else 1e-10)))
    rand = MonadMatrices(k, [rng.standard_normal((n, k))
                             + 1j * rng.standard_normal((n, k))
                             for _ in range(4)], [np.zeros((k, n))] * 4)
    z1, z2, h = 0.3 - 0.7j, -1.1 + 0.4j, 1e-3
    steps = [(h, 0), (1j * h, 0), (0, h), (0, 1j * h)]
    for m in (golden, rand):
        dv = _dv_tables(m)
        assert len(dv) == 4
        for d, ref, (e1, e2) in zip(dv, _literal_dv_tables(m), steps):
            assert np.array_equal(d, ref)
            fd = (_v_batch(m.M, z1 + e1, z2 + e2)
                  - _v_batch(m.M, z1 - e1, z2 - e2)) / (2 * h)
            assert np.max(np.abs(d - fd)) < 1e-9


def _sigma2_sign_mutant(M, z1, z2):
    """_v_batch with the sign of z1 M4 in sigma_(2) flipped."""
    z1 = np.asarray(z1, dtype=complex)[..., None, None]
    z2 = np.asarray(z2, dtype=complex)[..., None, None]
    M1, M2, M3, M4 = M
    s1 = M1 + np.conj(z1) * M3 - z2 * M4
    s2 = M2 + np.conj(z2) * M3 - z1 * M4
    return np.concatenate([s1, s2], axis=-1)


def _evaluate_c4(pm, point):
    """A matrix of classical polynomials in the C4 letters at ``point`` =
    (z1, z2, z3, z4)."""
    def value(poly):
        total = 0.0
        for (word, _, _), v in poly.terms.items():
            for g in word:
                assert g.space == C4, g
                x = point[g.index - 1]
                v = v * (np.conj(x) if g.conjugated else x)
            total += v
        return total
    return np.array([[value(p) for p in row] for row in pm.entries])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_symbolic_monad_maps_on_the_twistor_line_are_v_batch(k):
    # The classical sigma and sigma_J of the smash picture, evaluated at the
    # twistor point (z1, z2, z3, z4) = (1, 0, conj(zeta1), -zeta2), are the
    # two halves of the numeric monad map, bit for bit; a sign slip in
    # sigma_(2) of the numeric map is seen.
    data = solve(k, ClassicalModel(), cfg=SolveConfig(
        rng_seed=3, tolerance=1e-12 if k == 1 else 1e-10))
    m, model = build_monad(data), data.model
    rel = smash_relations(model, 0)
    sigma, _ = bosonise_monad(m, model, rel)
    sigma_j = bosonise_j_map(m, model, rel)
    rng = np.random.default_rng(40 + k)
    for _ in range(5):
        zeta1, zeta2 = (complex(*rng.standard_normal(2)) for _ in range(2))
        point = (1.0, 0.0, np.conj(zeta1), -zeta2)
        symbolic = np.hstack([_evaluate_c4(sigma, point),
                              _evaluate_c4(sigma_j, point)])
        assert np.array_equal(symbolic, _v_batch(m.M, zeta1, zeta2))
        assert np.max(np.abs(symbolic - _sigma2_sign_mutant(
            m.M, zeta1, zeta2))) > 0.1


def test_gauge_w_invariance(solved_k1):
    rng = np.random.default_rng(11)
    pts = random_points(5, seed=4)
    base = [evaluate_projector(solved_k1, p).P for p in pts]
    for _ in range(10):
        W = rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1))
        while abs(np.linalg.det(W)) < 0.2:
            W = rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1))
        m = build_monad(solved_k1).transform_W(W)
        for p, P0 in zip(pts, base):
            V = _v(m, p)
            G = V.conj().T @ V
            P = np.eye(4) - V @ np.linalg.inv(G) @ V.conj().T
            assert np.max(np.abs(P - P0)) < 1e-10


def _v(m, p):
    return _v_batch(m.M, np.array([p.zeta1]), np.array([p.zeta2]))[0]


def test_gauge_u_conjugation(solved_k1):
    rng = np.random.default_rng(13)
    pts = random_points(5, seed=6)
    base = [evaluate_projector(solved_k1, p).P for p in pts]
    for _ in range(10):
        H = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        H = (H + H.conj().T) / 2
        w, Vh = np.linalg.eigh(H)
        U = Vh @ np.diag(np.exp(1j * w)) @ Vh.conj().T
        m = build_monad(solved_k1).transform_U(U)
        for p, P0 in zip(pts, base):
            V = _v(m, p)
            G = V.conj().T @ V
            P = np.eye(4) - V @ np.linalg.inv(G) @ V.conj().T
            assert np.max(np.abs(P - U @ P0 @ U.conj().T)) < 1e-10
        # ASD residual unchanged
        z1 = np.array([p.zeta1 for p in pts])
        z2 = np.array([p.zeta2 for p in pts])
        F, _ = _curvature_batch(m, z1, z2)
        F0, _ = _curvature_batch(build_monad(solved_k1), z1, z2)
        assert np.max(np.abs(_asd_residuals(F) - _asd_residuals(F0))) < 1e-10


def test_density_matches_bpst_closed_form(solved_k1):
    # k=1: (6/pi^2) rho^4 / (|x - c|^2 + rho^2)^4 with rho^2 = (|I|^2 +
    # |J|^2)/2 and centre c = (-conj(B1), B2), on points spanning three chunks
    for d in (solved_k1, solve(1, ClassicalModel(),
                               cfg=SolveConfig(rng_seed=11))):
        pts = random_points(2 * CURVATURE_CHUNK + 37, seed=12)
        z1 = np.array([p.zeta1 for p in pts])
        z2 = np.array([p.zeta2 for p in pts])
        rho2 = (np.linalg.norm(d.I) ** 2 + np.linalg.norm(d.J) ** 2) / 2
        r2 = (np.abs(z1 + np.conj(d.B1[0, 0])) ** 2
              + np.abs(z2 - d.B2[0, 0]) ** 2)
        bpst = 6 / np.pi ** 2 * rho2 ** 2 / (r2 + rho2) ** 4
        q = _per_point(build_monad(d), z1, z2, _density_of)
        assert np.max(np.abs(q - bpst) / bpst) < 1e-12


def test_charge_unit(solved_k1):
    q = charge(solved_k1, 10)
    assert 0.99 <= q <= 1.01


def test_charge_translation_stability(solved_k1):
    q0 = charge(solved_k1, 10)
    q1 = charge(solved_k1.translate(0.3 + 0.1j, -0.2 + 0.2j), 10)
    assert abs(q1 - q0) / abs(q0) <= 1e-3


def test_charge_budget():
    d = ADHMData.zero(1, ClassicalModel())
    d.I[0, 0] = 1.0
    d.J[1, 0] = 1.0
    with pytest.raises(QuadratureBudgetExceeded):
        charge(d, 80)


@pytest.mark.parametrize("model,seed", [
    (MoyalModel(0.25, 1.0, 1.0), 7),
    (ToricModel(0.25), 3),
    (ClassicalModel(), 1),
])
def test_symbolic_projector_checks(model, seed):
    d = solve(1, model, cfg=SolveConfig(rng_seed=seed))
    rep = symbolic_projector_checks(d)
    assert rep.passed, rep.summary()
    for c in rep.checks:
        assert c.residual < 1e-10


# Residuals of the symbolic checks on the golden `solve --seed 3` data of
# tests/test_cli.py with I[0, 0] shifted by 1e-3, recorded with the
# hand-written matrix loops of the projector and centrality checks.  The
# centrality check uses symbolic monad entries, so the shift leaves it at 0.
PERTURBED_RESIDUALS = {
    (MoyalModel(0.2, 1.0, 0.5), 1): {
        "monad_orthogonality": 0.0024792362556323643,
        "polarised_rho2": 0.004958472511264507,
        "rho2_centrality": 0.0,
        "projector_idempotent": 0.09048553142857292},
    (ToricModel(0.3), 1): {
        "monad_orthogonality": 0.0037908335054549734,
        "polarised_rho2": 0.007581667010910835,
        "rho2_centrality": 0.0,
        "projector_idempotent": 0.09722720164106245},
    (ToricModel(0.3), 2): {
        "monad_orthogonality": 0.0019542899343929702,
        "polarised_rho2": 0.003908579868786326,
        "rho2_centrality": 0.0},
}


@pytest.mark.parametrize("model,k", list(PERTURBED_RESIDUALS),
                         ids=["moyal-1", "toric-1", "toric-2"])
def test_symbolic_checks_fail_off_shell(model, k):
    d = solve(k, model, cfg=SolveConfig(rng_seed=3,
                                        tolerance=1e-12 if k == 1 else 1e-10))
    d.I[0, 0] += 1e-3
    rep = symbolic_projector_checks(d)
    expected = PERTURBED_RESIDUALS[model, k]
    assert not rep.passed
    assert [c.name for c in rep.checks] == list(expected)
    for c in rep.checks:
        assert c.residual == pytest.approx(expected[c.name], rel=1e-12,
                                           abs=0.0)
        assert c.passed == (c.name == "rho2_centrality")
        if not c.passed:
            assert c.residual > c.tolerance


def _reference_centrality_residual(model, rel, k):
    """The centrality loop over every entry of rho2 and every monad letter,
    before it checked one representative of each orbit, kept verbatim as a
    reference."""
    def sym(a, b):
        """sum_j M^j_ab (x) (coaction of z_j), the (a, b) entry of sigma."""
        out = NCPolynomial.zero()
        for j in range(1, 5):
            out = out + smash_image(model, (monad_m(j, a, b),), z(j))
        return normal_form(out, rel)

    test_elements = [NCPolynomial.from_generator(g) for g in rel.generators
                     if g.space == MONAD_M]
    test_elements += [normal_form(smash_image(model, (), z(j, conj)), rel)
                      for j in range(1, 5) for conj in (False, True)]

    S = PolyMatrix([[sym(a, b) for b in range(1, k + 1)]
                    for a in range(1, 2 * k + 3)])
    worst = 0.0
    for row in S.adjoint(rel).matmul(S, rel).entries:
        for rho in row:
            for gp in test_elements:
                comm = multiply(rho, gp, rel) - multiply(gp, rho, rel)
                worst = max(worst, comm.eval_norm(model.theta))
    return worst


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("kind", list(WORKLOAD_MODELS))
def test_centrality_orbits_match_the_full_loop(kind, k):
    model = WORKLOAD_MODELS[kind]()
    rel = smash_relations(model, k=k)
    got = instanton._centrality_residual(model, rel, k)
    want = _reference_centrality_residual(model, rel, k)
    assert struct.pack("<d", got) == struct.pack("<d", want)


def _scaled_rule(rel, pattern):
    """``rel`` with the first coefficient of the rule at ``pattern`` times
    1.5, a one-coefficient mutant."""
    rules = dict(rel.rules)
    (w, c), *rest = rules[pattern]
    rules[pattern] = ((w, c.scale(1.5)), *rest)
    return RelationSystem(rel.generators, rules, theta=rel.theta,
                          meta=rel.meta)


def test_reduced_centrality_check_is_not_vacuous():
    # A mutant rule among row-1 letters fails both checks.  One among
    # row-2 letters fails the full loop only: the reduced check sees no
    # row-2 letter.  The row permutation test catches that mutant, so the
    # two together still cover it.
    model, k = ToricModel(0.25), 1
    rel = smash_relations(model, k=k)
    rows = reversals(k)["rows"]
    assert broken_rules(rel, rows, model.theta) == []

    row1 = _scaled_rule(rel, (monad_m(3, 1, 1), monad_m(1, 1, 1)))
    assert _reference_centrality_residual(model, row1, k) > SYMBOLIC_TOL
    assert instanton._centrality_residual(model, row1, k) > SYMBOLIC_TOL

    row2 = _scaled_rule(rel, (monad_m(3, 2, 1), monad_m(1, 2, 1)))
    assert _reference_centrality_residual(model, row2, k) > SYMBOLIC_TOL
    assert instanton._centrality_residual(model, row2, k) <= SYMBOLIC_TOL
    assert broken_rules(row2, rows, model.theta)


def test_reduced_centrality_check_sees_column_2():
    # A mutant rule among the row-1 letters of column 2 fails the reduced
    # check at k=2, and so does one between columns 1 and 2.  The adjacent
    # column transposition keeps the unmutated system and breaks on the
    # column-2 mutant.
    model, k = ToricModel(0.25), 2
    rel = smash_relations(model, k=k)
    (swap,) = column_transpositions(k).values()
    assert broken_rules(rel, swap, model.theta) == []
    assert instanton._centrality_residual(model, rel, k) <= SYMBOLIC_TOL
    for pattern in ((monad_m(3, 1, 2), monad_m(1, 1, 2)),
                    (monad_m(3, 1, 2), monad_m(1, 1, 1))):
        mutant = _scaled_rule(rel, pattern)
        assert instanton._centrality_residual(model, mutant, k) > \
            SYMBOLIC_TOL, pattern
    assert broken_rules(_scaled_rule(rel, (monad_m(3, 1, 2),
                                           monad_m(1, 1, 2))),
                        swap, model.theta)


def _hodge_star(F):
    """*F over the Hodge pairs, as a separate array: the dual that
    _asd_residuals formed before it summed F + *F in place, kept verbatim
    as an oracle."""
    out = np.zeros_like(F)
    for (a, b), (c, d), s in instanton._HODGE:
        out[:, a, b] = s * F[:, c, d]
        out[:, b, a] = -out[:, a, b]
        out[:, c, d] = s * F[:, a, b]
        out[:, d, c] = -out[:, c, d]
    return out


def _literal_asd_residuals(F):
    num = np.sqrt(np.sum(np.abs(F + _hodge_star(F)) ** 2, axis=(1, 2, 3, 4)))
    den = np.sqrt(np.sum(np.abs(F) ** 2, axis=(1, 2, 3, 4)))
    den[den == 0] = 1.0
    return num / den


@pytest.mark.parametrize("k", [1, 2, 3])
def test_in_place_asd_residuals_match_the_hodge_star_formula(k):
    # bit for bit, on points spanning three chunks of a solved monad and a
    # random one, with one all-zero F row for the den == 0 branch
    n = 2 * k + 2
    rng = np.random.default_rng(40 + k)
    rand = MonadMatrices(k, [rng.standard_normal((n, k))
                             + 1j * rng.standard_normal((n, k))
                             for _ in range(4)], [np.zeros((k, n))] * 4)
    solved = build_monad(solve(k, ClassicalModel(), cfg=SolveConfig(
        rng_seed=3, tolerance=1e-12 if k == 1 else 1e-10)))
    pts = random_points(2 * CURVATURE_CHUNK + 37, seed=13)
    z1 = np.array([p.zeta1 for p in pts])
    z2 = np.array([p.zeta2 for p in pts])
    for m in (solved, rand):
        F = _curvature_batch(m, z1, z2)[0]
        assert np.array_equal(_per_point(m, z1, z2, _asd_residuals),
                              _literal_asd_residuals(F))
        F[5] = 0.0
        ref = _literal_asd_residuals(F)
        assert ref[5] == 0.0
        assert np.array_equal(_asd_residuals(F.copy()), ref)


def test_hodge_star_involution(solved_k1):
    m = build_monad(solved_k1)
    F, _ = _curvature_batch(m, np.array([0.2 + 0.1j]), np.array([0.5 - 0.3j]))
    assert np.allclose(_hodge_star(_hodge_star(F)), F)
    # antisymmetry of the curvature components
    for mu in range(4):
        for nu in range(4):
            assert np.allclose(F[:, mu, nu], -F[:, nu, mu])


def test_empty_point_list_is_a_shape_error(solved_k1):
    for fn in (curvature_asd, curvature_samples):
        with pytest.raises(ShapeError, match="no sample points given"):
            fn(solved_k1, [])


# The monad is reused while the data's content is unchanged; the next three
# tests edit data in place or pass an equal copy, so a monad reused by object
# identity fails them.
def test_sample_follows_in_place_edit(solved_k1):
    d = solved_k1.copy()
    p = PointR4(0.3 + 0.1j, -0.2 + 0.4j)
    list(curvature_samples(d, [p]))
    d.I[0, 0] += 1e-3
    s = next(curvature_samples(d, [p]))
    ref = evaluate_projector(d.copy(), p)
    for name in ("V", "Q", "P"):
        assert np.array_equal(getattr(s, name), getattr(ref, name))


def test_samples_describe_the_data_as_passed(solved_k2):
    # an in-place edit between the call and the first read does not reach
    # the samples, which are built lazily
    d = solved_k2.copy()
    original = d.copy()
    pts = random_points(3, seed=14)
    samples = curvature_samples(d, pts)
    d.I[0, 0] += 1e-3
    d.B1[1, 0] = np.inf
    for p, s in zip(pts, samples, strict=True):
        ref = evaluate_projector(original.copy(), p)
        for name in ("V", "rho2", "Q", "P"):
            assert np.array_equal(getattr(s, name), getattr(ref, name))


def test_in_place_non_finite_edit_is_rejected(solved_k1):
    d = solved_k1.copy()
    p = PointR4(0.3 + 0.1j, -0.2 + 0.4j)
    evaluate_projector(d, p)
    d.I[0, 0] = np.inf
    with pytest.raises(ShapeError):
        evaluate_projector(d, p)


def test_one_monad_per_data_content(solved_k2, monkeypatch):
    builds = []

    def counting(data):
        builds.append(data)
        return build_monad(data)

    monkeypatch.setattr(instanton, "build_monad", counting)
    pts = random_points(300, seed=11)
    list(curvature_samples(solved_k2, pts))
    assert len(builds) <= 1
    list(curvature_samples(solved_k2.copy(), pts[:5]))
    assert len(builds) <= 1
