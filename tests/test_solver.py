import numpy as np
import pytest

from ncadhm import adhm_solver
from ncadhm.adhm_solver import (
    LM_DAMPING, JacobianAnalysis, NoConvergence, NotASolution, SolveConfig,
    _evaluate, _lm_minimize, _random_start, constraint_jacobian,
    gauge_distance, moduli_dimension, residual_vector, solve,
)
from ncadhm.hopf_twist import ClassicalModel, MoyalModel, ToricModel
from ncadhm.monad import ADHMData, ADHMStack, ShapeError, adhm_residual


def rand_unitary(k, rng):
    H = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    H = (H + H.conj().T) / 2
    w, V = np.linalg.eigh(H)
    return V @ np.diag(np.exp(1j * w)) @ V.conj().T


def test_solve_targets():
    d = solve(1, MoyalModel(0.25, 1.0, 1.0), zeta=0.5,
              cfg=SolveConfig(rng_seed=7))
    assert sum(adhm_residual(d)) <= 1e-12
    d = solve(1, ToricModel(0.25), cfg=SolveConfig(rng_seed=3))
    assert sum(adhm_residual(d)) <= 1e-12
    d = solve(2, ClassicalModel(), cfg=SolveConfig(rng_seed=5,
                                                   tolerance=1e-10))
    assert sum(adhm_residual(d)) <= 1e-10


def test_solve_reproducible():
    cfg = SolveConfig(rng_seed=9)
    a = solve(1, MoyalModel(0.25, 1.0, 1.0), cfg=cfg)
    b = solve(1, MoyalModel(0.25, 1.0, 1.0), cfg=cfg)
    assert np.array_equal(a.parameter_vector(), b.parameter_vector())


def test_zeta_must_match_model():
    with pytest.raises(ShapeError):
        solve(1, MoyalModel(0.25, 1.0, 1.0), zeta=0.3)
    with pytest.raises(ShapeError):
        solve(0, ClassicalModel())


def test_nan_zeta_does_not_match_any_model():
    # a NaN difference fails every comparison, so it must not slip through
    with pytest.raises(ShapeError):
        solve(1, MoyalModel(0.2, 1.0, 1.0), zeta=float("nan"))


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
def test_solve_config_rejects_non_finite_tolerance(tolerance):
    with pytest.raises(ValueError):
        SolveConfig(tolerance=tolerance)


@pytest.mark.parametrize("field", ["max_iterations", "multistarts"])
@pytest.mark.parametrize("value", [0, -1])
def test_solve_config_rejects_counts_below_one(field, value):
    # a zero iteration cap would hand back the random start unsolved
    with pytest.raises(ValueError, match=f"{field} must be >= 1"):
        SolveConfig(**{field: value})


def _lm_one(k, model, start, cfg):
    """``_lm_minimize`` on a batch of one start: (final data, history)."""
    v, _, (history,) = _lm_minimize(
        k, model, start[None], _evaluate(k, model, start[None]), cfg)
    return ADHMData.from_parameter_vector(k, model, v[0]), history


def test_residual_monotone_history():
    cfg = SolveConfig(rng_seed=1, multistarts=1)
    model = MoyalModel(0.25, 1.0, 1.0)
    start = _random_start(1, model, np.random.default_rng(cfg.rng_seed))
    _, history = _lm_one(1, model, start, cfg)
    assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))


def test_no_convergence_reports_best():
    with pytest.raises(NoConvergence) as exc:
        solve(2, ClassicalModel(),
              cfg=SolveConfig(rng_seed=0, multistarts=1, max_iterations=2))
    assert exc.value.best_residual is not None
    assert exc.value.best_residual > 1e-12


def test_gauge_distance_orbit():
    rng = np.random.default_rng(3)
    for k, model in ((1, MoyalModel(0.25, 1.0, 1.0)), (2, ClassicalModel())):
        d = solve(k, model, cfg=SolveConfig(rng_seed=4, tolerance=1e-10))
        g = rand_unitary(k, rng)
        assert gauge_distance(d, d.gauge_apply(g)) <= 1e-10


def test_gauge_equivariance_of_residuals():
    rng = np.random.default_rng(6)
    d = ADHMData(2, ToricModel(0.25), *(rng.standard_normal((2, 2)) for _ in
                                        range(2)),
                 rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
    c0, h0 = adhm_residual(d)
    for _ in range(5):
        g = rand_unitary(2, rng)
        c1, h1 = adhm_residual(d.gauge_apply(g))
        assert abs(c0 - c1) < 1e-12 and abs(h0 - h1) < 1e-12


def test_gauge_distance_detects_transverse_perturbation():
    d = solve(1, ClassicalModel(), cfg=SolveConfig(rng_seed=8))
    eps = 1e-2
    p = d.copy()
    p.I = p.I + np.array([[eps, 0.0]])
    p.B1 = p.B1 + eps
    assert gauge_distance(d, p) >= eps / 2


def test_moduli_dimension_counts():
    d = solve(1, MoyalModel(0.25, 1.0, 1.0), cfg=SolveConfig(rng_seed=7))
    ja = moduli_dimension(d)
    assert (ja.raw_nullity, ja.framed_dimension) == (9, 8)
    assert ja.gauge_dimension == 1
    assert ja.frame_rotation_rank == 3
    assert ja.framed_dimension - ja.frame_rotation_rank == 8 * 1 - 3
    assert not ja.degenerate

    d = solve(2, ClassicalModel(), cfg=SolveConfig(rng_seed=5,
                                                   tolerance=1e-10))
    ja = moduli_dimension(d)
    assert (ja.raw_nullity, ja.framed_dimension) == (20, 16)
    assert ja.frame_rotation_rank == 3
    assert not ja.degenerate


def test_moduli_requires_solution():
    rng = np.random.default_rng(0)
    d = ADHMData(1, ClassicalModel(), rng.standard_normal((1, 1)),
                 rng.standard_normal((1, 1)), rng.standard_normal((1, 2)),
                 rng.standard_normal((2, 1)))
    with pytest.raises(NotASolution):
        moduli_dimension(d)


def test_degenerate_cone_point_flagged():
    d = ADHMData.zero(1, ClassicalModel())
    ja = moduli_dimension(d)
    assert ja.degenerate
    assert ja.raw_nullity == 12  # rank zero at the cone point


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(12)
    model = ToricModel(0.3)
    d = ADHMData(1, model, rng.standard_normal((1, 1)),
                 rng.standard_normal((1, 1)), rng.standard_normal((1, 2)),
                 rng.standard_normal((2, 1)))
    J = constraint_jacobian(d)
    v0 = d.parameter_vector()
    r0 = residual_vector(d)
    eps = 1e-7
    for i in range(0, v0.size, 3):
        vp = v0.copy()
        vp[i] += eps
        rp = residual_vector(ADHMData.from_parameter_vector(1, model, vp))
        fd = (rp - r0) / eps
        assert np.linalg.norm(fd - J[:, i]) < 1e-5


MODELS = (ClassicalModel(), MoyalModel(0.2, 1.0, 0.5), ToricModel(0.3))


def rand_complex_data(k, model, rng):
    def gauss(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return ADHMData(k, model, gauss((k, k)), gauss((k, k)), gauss((k, 2)),
                    gauss((2, k)))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
def test_jacobian_matches_central_differences(k, model):
    # the constraints are quadratic, so a central difference is exact up to
    # rounding for any step
    d = rand_complex_data(k, model, np.random.default_rng(40 + k))
    J = constraint_jacobian(d)
    v0 = d.parameter_vector()
    assert J.shape == (3 * k * k, v0.size)
    h = 0.5
    for i in range(v0.size):
        step = np.zeros(v0.size)
        step[i] = h
        rp, rm = (residual_vector(ADHMData.from_parameter_vector(k, model, v))
                  for v in (v0 + step, v0 - step))
        assert np.max(np.abs((rp - rm) / (2 * h) - J[:, i])) < 1e-12


def _dag(a):
    return a.conj().T


def _jacobian_column_loop(d):
    """The per-column reference: one directional derivative per unit vector."""
    mu = d.model.mu
    B1, B2, I, J = d.B1, d.B2, d.I, d.J
    n = d.parameter_vector().size
    cols = []
    for v in np.eye(n):
        e = ADHMData.from_parameter_vector(d.k, d.model, v)
        dceq = (np.conj(mu) * (e.B1 @ B2 + B1 @ e.B2)
                - mu * (e.B2 @ B1 + B2 @ e.B1) + e.I @ J + I @ e.J)
        dherm = (e.B1 @ _dag(B1) + B1 @ _dag(e.B1) - _dag(e.B1) @ B1
                 - _dag(B1) @ e.B1 + e.B2 @ _dag(B2) + B2 @ _dag(e.B2)
                 - _dag(e.B2) @ B2 - _dag(B2) @ e.B2 + e.I @ _dag(I)
                 + I @ _dag(e.I) - _dag(e.J) @ J - _dag(J) @ e.J)
        upper = [x for i in range(d.k) for j in range(i + 1, d.k)
                 for x in (dherm[i, j].real, dherm[i, j].imag)]
        cols.append(np.concatenate([dceq.real.ravel(), dceq.imag.ravel(),
                                    np.diag(dherm).real, upper]))
    return np.array(cols).T


def test_batched_jacobian_equals_column_loop_exactly():
    rng = np.random.default_rng(21)
    for k in (1, 2, 3, 4):
        for model in MODELS:
            d = rand_complex_data(k, model, rng)
            assert np.array_equal(constraint_jacobian(d),
                                  _jacobian_column_loop(d))


def _data_with_zero_entries():
    rng = np.random.default_rng(22)
    for model in MODELS:
        for k in (1, 2, 3):
            yield ADHMData.zero(k, model)
        # the BPST instanton of size 1.5 at the origin, B1 = B2 = 0
        yield ADHMData(1, model, np.zeros((1, 1)), np.zeros((1, 1)),
                       np.array([[1.5, 0.0]]), np.array([[0.0], [1.5]]))
        for k in (1, 2, 3):
            d = rand_complex_data(k, model, rng)
            yield ADHMData(k, model, np.zeros((k, k)), d.B2, d.I, d.J)


def test_batched_jacobian_equals_column_loop_on_zero_entries_and_k5():
    rng = np.random.default_rng(24)
    cases = list(_data_with_zero_entries())
    cases += [rand_complex_data(5, model, rng) for model in MODELS]
    for d in cases:
        assert np.array_equal(constraint_jacobian(d), _jacobian_column_loop(d))
    # the same data stacked by k and model, zero entries and all: each slice
    # is the single-datum Jacobian
    for model in MODELS:
        for k in (1, 2, 3, 5):
            group = [d for d in cases if d.k == k and d.model is model]
            stack = ADHMStack.from_parameter_vectors(
                k, model, np.array([d.parameter_vector() for d in group]))
            jac = constraint_jacobian(stack)
            assert jac.shape == (len(group), 3 * k * k, 4 * k * k + 8 * k)
            for d, slice_ in zip(group, jac):
                assert np.array_equal(slice_, constraint_jacobian(d))


def _lm_reference(data, cfg):
    """The Levenberg-Marquardt loop with nothing carried between
    iterations: every point's parameters and equations formed afresh."""
    lam = LM_DAMPING
    r = residual_vector(data)
    cost = float(r @ r)
    history = [np.sqrt(cost)]
    for _ in range(cfg.max_iterations):
        if sum(adhm_residual(data)) <= cfg.tolerance:
            break
        Jm = constraint_jacobian(data)
        g = Jm.T @ r
        A = Jm.T @ Jm
        diag = np.diag(A).copy()
        diag[diag < 1e-12] = 1e-12
        accepted = False
        for _ in range(60):
            step = np.linalg.solve(A + lam * np.diag(diag), -g)
            cand = ADHMData.from_parameter_vector(
                data.k, data.model, data.parameter_vector() + step)
            rc = residual_vector(cand)
            cc = float(rc @ rc)
            if cc < cost:
                data, r, cost = cand, rc, cc
                lam = max(lam / 3.0, 1e-14)
                accepted = True
                break
            lam *= 10.0
            if lam > 1e12:
                break
        history.append(np.sqrt(cost))
        if not accepted:
            break
    return data, history


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
def test_lm_carried_state_matches_returned_point(k, model):
    # a stale carried parameter vector, residual vector or equation pair
    # leaves the history out of step with the point returned
    cfg = SolveConfig(tolerance=1e-12 if k == 1 else 1e-10)
    start = _random_start(k, model, np.random.default_rng(50 + k))
    d, history = _lm_one(k, model, start, cfg)
    assert all(b <= a for a, b in zip(history, history[1:]))
    r = residual_vector(d)
    assert history[-1] == np.sqrt(float(r @ r))
    ref, ref_history = _lm_reference(
        ADHMData.from_parameter_vector(k, model, start), cfg)
    assert history == ref_history
    assert np.array_equal(d.parameter_vector(), ref.parameter_vector())


def _solve_reference(k, model, cfg):
    """``solve`` one start at a time through ``_lm_reference``: the same
    child seeds and best-of key.  (starts, each start's final vector and
    history, best data, best key)."""
    rng = np.random.default_rng(cfg.rng_seed)
    starts, finals, histories = [], [], []
    best = best_key = None
    for _ in range(cfg.multistarts):
        child = np.random.default_rng(rng.integers(0, 2 ** 63 - 1))
        starts.append(_random_start(k, model, child))
        cand, history = _lm_reference(
            ADHMData.from_parameter_vector(k, model, starts[-1]), cfg)
        finals.append(cand.parameter_vector())
        histories.append(history)
        key = (sum(adhm_residual(cand)),
               float(np.linalg.norm(cand.parameter_vector())))
        if best_key is None or key < best_key:
            best, best_key = cand, key
    return starts, finals, histories, best, best_key


def _solve_bits(k, model, cfg):
    """solve's outcome as comparable bits: its vector, or NoConvergence's
    best residual and vector."""
    try:
        return ("solved", solve(k, model, cfg=cfg).parameter_vector().tobytes())
    except NoConvergence as exc:
        return ("no convergence", exc.best_residual,
                exc.best.parameter_vector().tobytes())


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
@pytest.mark.parametrize("max_iterations", [200, 2])
def test_lock_step_solve_matches_one_start_at_a_time(k, model,
                                                     max_iterations):
    # every start of the lock-step batch follows the trajectory it follows
    # alone, so the best-of result is the one-at-a-time result, bit for bit
    for multistarts in (1, 3, 8, 20):
        cfg = SolveConfig(rng_seed=60 + multistarts, multistarts=multistarts,
                          tolerance=1e-12 if k == 1 else 1e-10,
                          max_iterations=max_iterations)
        starts, finals, histories, best, best_key = _solve_reference(
            k, model, cfg)
        batch_finals, _, batch_histories = _lm_minimize(
            k, model, np.array(starts), _evaluate(k, model, np.array(starts)),
            cfg)
        assert batch_histories == histories
        assert batch_finals.tobytes() == np.array(finals).tobytes()
        bits = best.parameter_vector().tobytes()
        if best_key[0] <= cfg.tolerance:
            assert _solve_bits(k, model, cfg) == ("solved", bits)
        else:
            assert max_iterations == 2
            assert _solve_bits(k, model, cfg) == ("no convergence",
                                                  best_key[0], bits)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("max_iterations", [200, 2])
def test_batch_budget_does_not_change_the_solve(k, max_iterations,
                                                monkeypatch):
    # a budget of one start's normal matrix, or of two, splits the starts
    # into batches of one or two (a budget below one start still runs one);
    # the bits are those of one full batch
    model = MoyalModel(0.2, 1.0, 0.5)
    cfg = SolveConfig(rng_seed=70, multistarts=5, max_iterations=max_iterations,
                      tolerance=1e-12 if k == 1 else 1e-10)
    sizes = []

    def spy(k, model, v, at_v, cfg):
        sizes.append(len(v))
        return _lm_minimize(k, model, v, at_v, cfg)

    monkeypatch.setattr(adhm_solver, "_lm_minimize", spy)
    full = _solve_bits(k, model, cfg)
    assert sizes == [5]
    one_start = 8 * (4 * k * k + 8 * k) ** 2
    for budget, batches in ((one_start, [1] * 5), (one_start - 1, [1] * 5),
                            (2 * one_start, [2, 2, 1])):
        monkeypatch.setattr(adhm_solver, "LM_BATCH_BYTES", budget)
        sizes.clear()
        assert _solve_bits(k, model, cfg) == full
        assert sizes == batches


def test_non_finite_trial_point_is_a_shape_error():
    # a start scaled by 1e160 overflows its normal matrix, so the first
    # trial point is not finite; its data's own check names the block
    model = ClassicalModel()
    v = _random_start(1, model, np.random.default_rng(0))[None] * 1e160
    with np.errstate(all="ignore"):
        with pytest.raises(ShapeError, match="^B1 has non-finite entries$"):
            _lm_minimize(1, model, v, _evaluate(1, model, v), SolveConfig())


def test_solve_evaluates_the_starts_of_a_batch_once(monkeypatch):
    # the overflow check's evaluation of a batch's starts is the one its
    # descent begins from; a budget of two starts makes three batches
    evaluate, descend = adhm_solver._evaluate, adhm_solver._lm_minimize
    evaluated, batches = [], []

    def spy_evaluate(k, model, v):
        evaluated.append(v.tobytes())
        return evaluate(k, model, v)

    def spy_descend(k, model, v, at_v, cfg):
        batches.append(v.tobytes())
        return descend(k, model, v, at_v, cfg)

    k, model = 1, MoyalModel(0.2, 1.0, 0.5)
    cfg = SolveConfig(rng_seed=70, multistarts=5)
    full = _solve_bits(k, model, cfg)
    monkeypatch.setattr(adhm_solver, "_evaluate", spy_evaluate)
    monkeypatch.setattr(adhm_solver, "_lm_minimize", spy_descend)
    monkeypatch.setattr(adhm_solver, "LM_BATCH_BYTES",
                        2 * 8 * (4 * k * k + 8 * k) ** 2)
    assert _solve_bits(k, model, cfg) == full
    assert len(batches) == 3
    assert [evaluated.count(b) for b in batches] == [1, 1, 1]


@pytest.mark.parametrize("hbar", [1e160, 1e300])
def test_overflowing_level_is_rejected_before_any_descent(hbar, monkeypatch):
    def fail(*args):
        raise AssertionError("the descent ran")

    monkeypatch.setattr(adhm_solver, "_lm_minimize", fail)
    with np.errstate(all="raise"):
        with pytest.raises(ShapeError, match="overflows the equations at the "
                                             "random starts"):
            solve(1, MoyalModel(hbar, 1.0, 1.0))
