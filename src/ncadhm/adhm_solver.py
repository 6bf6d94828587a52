"""Numerical solution of the deformed ADHM equations.

The equations are solved over the real and imaginary parts of (B1, B2, I, J)
with a Levenberg-Marquardt iteration on the stacked residual vector: the 2k^2
real components of the complex equation plus the k^2 real components of the
Hermitian one.  The Jacobian is exact, not a finite difference.  In a unit
direction every term of the equations' derivative only copies entries of
the data, so it is gathered through a constant index table per k and is
bit-identical to the matrix products it replaces.  The same Jacobian feeds
the moduli-dimension analysis, which counts null directions of the
constraint map at a solution and splits off the gauge orbit and the global
frame rotations.

The starts of one ``solve`` descend in lock step, in batches: each start
keeps its own parameters, equations, damping and counts, and each round
every live start makes one damped trial through one batched linear solve
and one stacked equation evaluation.  A batch holds at most
``LM_BATCH_BYTES`` of normal matrices JᵀJ, and at least one start, so many
starts never multiply the memory of one.  Every batched numpy call here
gives each start the bits that the same call gives it alone (a matmul or a
LAPACK solve per slice, a dot product per row with the strides that
``np.linalg.norm`` uses), so each start follows the trajectory it would
follow alone, bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .hopf_twist import TwistModel
from .monad import (
    ADHMData, ADHMStack, ShapeError, _dag, adhm_equations, adhm_residual,
    parameter_blocks,
)


class NoConvergence(Exception):
    def __init__(self, message, best_residual, best):
        super().__init__(message)
        self.best_residual = best_residual
        self.best = best


class NotASolution(Exception):
    pass


LM_DAMPING = 1e-3            # initial Levenberg-Marquardt damping
LM_BATCH_BYTES = 1 << 20     # normal-matrix bytes of one lock-step batch
MODULI_RESIDUAL_TOL = 1e-10  # largest residual moduli_dimension accepts
MODULI_RANK_FACTOR = 1e-7    # rank cut, relative to the largest singular value
GAUGE_STARTS = 6             # gauge_distance starts, the first two fixed
GAUGE_SEED = 0               # seed of the random gauge_distance starts
GAUGE_ITERATIONS = 300       # descent steps per gauge_distance start


@dataclass
class SolveConfig:
    max_iterations: int = 200
    tolerance: float = 1e-12
    multistarts: int = 8
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 < self.tolerance < float("inf"):
            raise ValueError("tolerance must be positive and finite")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.multistarts < 1:
            raise ValueError("multistarts must be >= 1")


@dataclass
class JacobianAnalysis:
    singular_values: np.ndarray
    rank_threshold: float
    raw_nullity: int
    framed_dimension: int
    gauge_dimension: int
    frame_rotation_rank: int
    degenerate: bool

    def to_json_dict(self):
        return {"singular_values": [float(s) for s in self.singular_values],
                "rank_threshold": float(self.rank_threshold),
                "raw_nullity": int(self.raw_nullity),
                "framed_dimension": int(self.framed_dimension),
                "gauge_dimension": int(self.gauge_dimension),
                "frame_rotation_rank": int(self.frame_rotation_rank),
                "degenerate": bool(self.degenerate)}


# -- residual and Jacobian ------------------------------------------------------

@functools.cache
def _upper_indices(k):
    """Rows and columns of the strictly upper entries of a k x k matrix, in
    row order."""
    return np.triu_indices(k, 1)


def _constraint_components(ceq, herm):
    """The 3k^2 real constraint values along the last axis.

    The real and imaginary parts of the complex equation, then the k^2
    independent real components of the Hermitian one: its diagonal, and the
    real and imaginary part of each strictly upper entry in row order.
    """
    flat = ceq.shape[:-2] + (-1,)
    rows, cols = _upper_indices(herm.shape[-1])
    upper = herm[..., rows, cols]
    pairs = np.stack([upper.real, upper.imag], axis=-1).reshape(flat)
    return np.concatenate([ceq.real.reshape(flat), ceq.imag.reshape(flat),
                           np.diagonal(herm, axis1=-2, axis2=-1).real, pairs],
                          axis=-1)


def residual_vector(data: ADHMData) -> np.ndarray:
    return _constraint_components(*adhm_equations(data))


def _entries(B1, B2, I, J):
    """The 2k^2+4k complex entries of (B1, B2, I, J), flat along the last
    axis, in block order."""
    flat = B1.shape[:-2] + (-1,)
    return np.concatenate([b.reshape(flat) for b in (B1, B2, I, J)], axis=-1)


def _unit_images(e):
    """[e, conj(e)] times 1, i and -i, then 0, along the last axis: every
    value that an entry of a Jacobian term can take."""
    both = np.concatenate([e, e.conj()], axis=-1)
    return np.concatenate([both, 1j * both, -1j * both,
                           np.zeros(e.shape[:-1] + (1,))], axis=-1)


def _bilinear_terms(x, d):
    """Yield the seven terms of the equations' derivative at
    x = (B1, B2, I, J) along d = (dB1, dB2, dI, dJ), stacked over the
    leading axes of d.

    R, C and P build the complex equation, conj(mu) R - mu C + P, and
    S1..S4 the Hermitian one, S1 + S2 - S3 - S4.
    """
    B1, B2, I, J = x
    dB1, dB2, dI, dJ = d
    yield dB1 @ B2 + B1 @ dB2
    yield dB2 @ B1 + B2 @ dB1
    yield dI @ J + I @ dJ
    yield dB1 @ _dag(B1) + dB2 @ _dag(B2) + dI @ _dag(I)
    yield B1 @ _dag(dB1) + B2 @ _dag(dB2) + I @ _dag(dI)
    yield _dag(dB1) @ B1 + _dag(dB2) @ B2 + _dag(dJ) @ J
    yield _dag(B1) @ dB1 + _dag(B2) @ dB2 + _dag(J) @ dJ


@functools.cache
def _gather_table(k):
    """Per term, the index into ``_unit_images`` of each entry of that term
    in each of the 4k^2+8k unit directions.

    Read off ``_bilinear_terms`` evaluated once on tag data: the parameter
    vector 1, 2, ..., 4k^2+8k, so each entry is a + ib with a and b distinct
    positive integers.  Its 6(2k^2+4k)+1 unit images are then pairwise
    distinct, and each term entry, exactly one of them, names its slot.
    """
    n = 4 * k * k + 8 * k
    tags = parameter_blocks(k, np.arange(1.0, n + 1))
    images = _unit_images(_entries(*tags))
    order = np.argsort(images)
    units = parameter_blocks(k, np.eye(n))
    return tuple(order[np.searchsorted(images, term, sorter=order)]
                 for term in _bilinear_terms(tags, units))


def constraint_jacobian(data: ADHMData | ADHMStack) -> np.ndarray:
    """Exact real Jacobian of the 3k^2 constraints in the 4k^2+8k variables,
    stacked along the leading axes of an ``ADHMStack``.

    The equations are quadratic, so column i is their bilinear derivative
    along the i-th unit direction.  There each entry of each of the seven
    terms of ``_bilinear_terms`` is zero or one entry of the data or of its
    conjugate times 1, i or -i: a product with a unit factor copies one
    entry, and in any one direction at most one product of a term is
    nonzero.  So one gather per term from ``_unit_images`` gives the term
    in every direction, and the terms are combined in the order of the
    equations.  Adding a structural zero leaves a value unchanged, so every
    entry equals the one that the full matrix products give (an exact zero
    may differ in sign).
    """
    R, C, P, S1, S2, S3, S4 = _gather_table(data.k)
    z = _unit_images(_entries(data.B1, data.B2, data.I, data.J))
    mu = data.model.mu
    dceq = np.conj(mu) * z[..., R] - mu * z[..., C] + z[..., P]
    dherm = z[..., S1] + z[..., S2] - z[..., S3] - z[..., S4]
    return _constraint_components(dceq, dherm).swapaxes(-1, -2)


# -- Levenberg-Marquardt ---------------------------------------------------------

def _dots(x):
    """x . x for each row of the stacked real x, formed as one dot product
    of that row alone forms it: the same BLAS call, with the row's stride."""
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


def _frobenius(m):
    """The Frobenius norm of each C-contiguous matrix of the stacked complex
    m, formed as ``np.linalg.norm`` forms it for one: sqrt(re . re + im . im)
    over the ravelled entries."""
    flat = m.reshape(m.shape[:-2] + (-1,))
    return np.sqrt(_dots(flat.real) + _dots(flat.imag))


def _evaluate(k, model, v):
    """At the stacked parameter vectors v: the constraint vectors, their
    squared norms and the summed Frobenius norms of the two equations."""
    ceq, herm = adhm_equations(ADHMStack.from_parameter_vectors(k, model, v))
    r = _constraint_components(ceq, herm)
    return r, _dots(r), _frobenius(ceq) + _frobenius(herm)


def _normal_equations(k, model, v, r):
    """At the stacked parameter vectors v with constraint vectors r: JᵀJ,
    Jᵀr and the diagonal of JᵀJ raised to at least 1e-12."""
    Jt = constraint_jacobian(
        ADHMStack.from_parameter_vectors(k, model, v)).swapaxes(-1, -2)
    A = Jt @ Jt.swapaxes(-1, -2)
    diag = np.diagonal(A, axis1=-2, axis2=-1).copy()
    diag[diag < 1e-12] = 1e-12
    return A, (Jt @ r[..., None])[..., 0], diag


def _damped_step(A, g, lam, diag):
    """solve(A + lam diag(d), -g) per start, with A + lam diag(d) formed as
    for one start: lam * 0 added off the diagonal."""
    damped = np.zeros_like(A)
    on_diag = np.arange(A.shape[-1])
    damped[:, on_diag, on_diag] = lam[:, None] * diag
    damped += A
    return np.linalg.solve(damped, -g[..., None])[..., 0]


def _lm_minimize(k, model, v, at_v, cfg: SolveConfig):
    """Levenberg-Marquardt descent from each row of the stacked parameter
    vectors ``v``, in lock step: (final vectors, summed equation residuals
    at them, each start's residual norm after each iteration).

    Each round, a live start that begins an iteration stops if it has
    converged or used its iterations, and the others form their normal
    equations from one stacked Jacobian.  Then every live start makes one
    damped trial.  A trial that lowers the start's cost is accepted and
    ends its iteration; one that does not raises its damping tenfold, and
    the start stops once the damping passes 1e12 or 60 trials have failed.
    The live starts' state is one row of each array; a stopped start's row
    is written out and dropped.  A non-finite trial point raises the
    ShapeError of its data.  ``at_v`` is ``_evaluate(k, model, v)``,
    which the caller has already made to check it.
    """
    v = np.array(v, dtype=float)
    n_starts, n = v.shape
    r, cost, rsum = at_v
    history = [[h] for h in np.sqrt(cost)]
    final_v, final_rsum = v.copy(), rsum.copy()
    start = np.arange(n_starts)
    lam = np.full(n_starts, LM_DAMPING)
    iters = np.zeros(n_starts, dtype=int)
    fails = np.zeros(n_starts, dtype=int)   # failed trials this iteration
    fresh = np.ones(n_starts, dtype=bool)   # begins an iteration this round
    stop = np.zeros(n_starts, dtype=bool)
    A = np.empty((n_starts, n, n))
    g = np.empty((n_starts, n))
    diag = np.empty((n_starts, n))
    while True:
        stop |= fresh & ((rsum <= cfg.tolerance)
                         | (iters == cfg.max_iterations))
        if stop.any():
            final_v[start[stop]] = v[stop]
            final_rsum[start[stop]] = rsum[stop]
            keep = ~stop
            (start, v, r, cost, rsum, lam, iters, fails, fresh, A, g,
             diag) = (x[keep] for x in (start, v, r, cost, rsum, lam, iters,
                                        fails, fresh, A, g, diag))
            if not len(start):
                return final_v, final_rsum, history
        if fresh.any():
            A[fresh], g[fresh], diag[fresh] = _normal_equations(
                k, model, v[fresh], r[fresh])
            fails[fresh] = 0
        vc = v + _damped_step(A, g, lam, diag)
        finite = np.isfinite(vc).all(axis=-1)
        if not finite.all():  # the first such point's data raises
            ADHMData.from_parameter_vector(k, model, vc[np.argmin(finite)])
        rc, cc, rsc = _evaluate(k, model, vc)
        fresh = cc < cost
        v[fresh], r[fresh], cost[fresh], rsum[fresh] = (
            vc[fresh], rc[fresh], cc[fresh], rsc[fresh])
        lam = np.where(fresh, np.maximum(lam / 3.0, 1e-14), lam * 10.0)
        iters += fresh
        fails += ~fresh
        stop = ~fresh & ((lam > 1e12) | (fails == 60))
        ended = fresh | stop
        for i, h in zip(start[ended], np.sqrt(cost[ended])):
            history[i].append(h)


def _random_start(k, model, rng) -> np.ndarray:
    """The parameter vector of complex Gaussian data, scaled up to the
    model's deformation level."""
    scale = max(1.0, np.sqrt(abs(model.zeta_level)))
    return scale * rng.standard_normal(4 * k * k + 8 * k)


def solve(k: int, model: TwistModel, zeta: float | None = None,
          cfg: SolveConfig | None = None) -> ADHMData:
    """Best-of-multistarts solution of the model's ADHM equations.

    ``zeta`` defaults to the model's deformation level and is validated
    against it otherwise.  Each start is drawn from its own child generator,
    in order.  The starts descend in lock step, in batches that hold at
    most ``LM_BATCH_BYTES`` of normal matrices and at least one start; a
    level at which the equations at a batch's starts overflow is rejected
    before that batch descends.  The result does not depend on the batch
    size, and it is deterministic for a fixed config and seed; ties between
    starts break on residual, then on parameter norm, then on start order.
    """
    if k < 1:
        raise ShapeError("k must be >= 1")
    cfg = cfg or SolveConfig()
    if zeta is not None and not abs(zeta - model.zeta_level) <= 1e-12:
        raise ShapeError(
            f"zeta {zeta} does not match the model level {model.zeta_level}")
    n = 4 * k * k + 8 * k
    size = max(1, LM_BATCH_BYTES // (8 * n * n))
    best = None
    best_key = None
    rng = np.random.default_rng(cfg.rng_seed)
    for first in range(0, cfg.multistarts, size):
        starts = np.array([_random_start(k, model, np.random.default_rng(
            rng.integers(0, 2 ** 63 - 1)))
            for _ in range(min(size, cfg.multistarts - first))])
        with np.errstate(over="ignore", invalid="ignore"):
            at_starts = _evaluate(k, model, starts)
        if not np.isfinite(at_starts[1] + at_starts[2]).all():
            raise ShapeError(f"level {model.zeta_level} overflows the "
                             f"equations at the random starts")
        v, rsum, _ = _lm_minimize(k, model, starts, at_starts, cfg)
        norms = np.sqrt(_dots(v))
        for x, key in zip(v, zip(rsum.tolist(), norms.tolist())):
            if best_key is None or key < best_key:
                best, best_key = x, key
    best = ADHMData.from_parameter_vector(k, model, best)
    if best_key[0] > cfg.tolerance:
        raise NoConvergence(
            f"best residual {best_key[0]:.3e} above tolerance "
            f"{cfg.tolerance:.1e}", best_residual=best_key[0], best=best)
    return best


# -- gauge distance ----------------------------------------------------------------

def _hermitian_basis(k):
    """The k^2 Hermitian matrices h with u(k) = span of i h, in parameter
    order: E_ii, then E_ij + E_ji and i (E_ij - E_ji) for each i < j."""
    entries = [(i, i, 1.0) for i in range(k)] + [
        (i, j, c) for i in range(k) for j in range(i + 1, k)
        for c in (1.0, 1j)]
    basis = np.zeros((k * k, k, k), dtype=complex)
    for h, (i, j, c) in zip(basis, entries):
        h[i, j] = c
        h[j, i] = np.conj(c)
    return basis


def _unitary_from_params(x, k):
    """exp(i H) for the Hermitian H = sum x_a h_a of the k^2 parameters."""
    H = np.tensordot(x, _hermitian_basis(k), 1)
    w, V = np.linalg.eigh(H)
    return V @ np.diag(np.exp(1j * w)) @ _dag(V)


def _gauge_gaps(a: ADHMData, b: ADHMData, g):
    """Frobenius norms of the B1, B2, I and J differences of a and g . b."""
    gb = b.gauge_apply(g)
    return [np.linalg.norm(x - y) for x, y in
            ((a.B1, gb.B1), (a.B2, gb.B2), (a.I, gb.I), (a.J, gb.J))]


def _gauge_objective(a: ADHMData, b: ADHMData, g) -> float:
    return sum(n ** 2 for n in _gauge_gaps(a, b, g))


def _gauge_summed_norm(a: ADHMData, b: ADHMData, g) -> float:
    return sum(_gauge_gaps(a, b, g))


def _procrustes_init(a: ADHMData, b: ADHMData):
    """Unitary maximizing the linear part of the I/J alignment."""
    M = b.I @ _dag(a.I) + _dag(b.J) @ a.J
    U, _, Vh = np.linalg.svd(M)
    return _dag(U @ Vh)


def gauge_distance(a: ADHMData, b: ADHMData) -> float:
    """min over U(k) of the summed Frobenius distance between a and g . b.

    Gradient descent on the squared distance over the k^2 gauge parameters:
    forward-difference gradients, a step that grows by 1.3 on success and
    halves on failure, from GAUGE_STARTS starts (identity, the I/J
    Procrustes alignment, random).
    """
    if a.k != b.k or a.model.kind != b.model.kind:
        raise ShapeError("gauge distance needs matching k and model")
    k = a.k
    n = k * k
    rng = np.random.default_rng(GAUGE_SEED)
    starts = [np.zeros(n)]
    try:
        g0 = _procrustes_init(a, b)
        w, V = np.linalg.eig(g0)
        H = V @ np.diag(np.angle(w)) @ np.linalg.inv(V)
        # the coordinates of H read off its upper triangle
        starts.append(np.real(np.einsum(
            "aij,ij->a", np.triu(_hermitian_basis(k)).conj(), H)))
    except np.linalg.LinAlgError:
        pass
    for _ in range(GAUGE_STARTS - len(starts)):
        starts.append(rng.standard_normal(n) * np.pi / 2)

    best = np.inf
    for x in starts:
        f = _gauge_objective(a, b, _unitary_from_params(x, k))
        step = 0.5
        for _ in range(GAUGE_ITERATIONS):
            grad = np.zeros(n)
            eps = 1e-6
            for i in range(n):
                xp = x.copy()
                xp[i] += eps
                grad[i] = (_gauge_objective(a, b, _unitary_from_params(xp, k))
                           - f) / eps
            gn = np.linalg.norm(grad)
            if gn < 1e-14:
                break
            improved = False
            for _ in range(40):
                xc = x - step * grad / max(gn, 1e-30)
                fc = _gauge_objective(a, b, _unitary_from_params(xc, k))
                if fc < f:
                    x, f = xc, fc
                    step *= 1.3
                    improved = True
                    break
                step *= 0.5
                if step < 1e-15:
                    break
            if not improved:
                break
        best = min(best, _gauge_summed_norm(a, b, _unitary_from_params(x, k)))
    return float(best)


# -- moduli dimensions ----------------------------------------------------------

def _gauge_tangent_vectors(data: ADHMData) -> np.ndarray:
    """Tangent directions of the U(k) orbit, one row per u(k) basis element."""
    k = data.k
    rows = []
    for X in 1j * _hermitian_basis(k):
        d = ADHMData(k, data.model, X @ data.B1 - data.B1 @ X,
                     X @ data.B2 - data.B2 @ X, X @ data.I, -data.J @ X)
        rows.append(d.parameter_vector())
    return np.array(rows)


def _frame_tangent_vectors(data: ADHMData) -> np.ndarray:
    """Tangent directions of the global su(2) frame rotations on (I, J)."""
    k = data.k
    paulis = [np.array([[0, 1], [1, 0]], dtype=complex),
              np.array([[0, -1j], [1j, 0]], dtype=complex),
              np.array([[1, 0], [0, -1]], dtype=complex)]
    rows = []
    for s in paulis:
        X = 1j * s
        d = ADHMData(k, data.model, np.zeros((k, k)), np.zeros((k, k)),
                     data.I @ X, -X @ data.J)
        rows.append(d.parameter_vector())
    return np.array(rows)


def moduli_dimension(data: ADHMData) -> JacobianAnalysis:
    """Null-space dimensions of the constraint map at a solution."""
    residual = sum(adhm_residual(data))
    if residual > MODULI_RESIDUAL_TOL:
        raise NotASolution(f"residual {residual:.3e} above "
                           f"{MODULI_RESIDUAL_TOL:.1e}")
    k = data.k
    Jm = constraint_jacobian(data)
    sv = np.linalg.svd(Jm, compute_uv=False)
    smax = sv[0] if len(sv) else 0.0
    thr = MODULI_RANK_FACTOR * smax
    rank = int(np.sum(sv >= thr)) if smax > 0 else 0
    nvars = 4 * k * k + 8 * k
    raw_nullity = nvars - rank
    gauge_dim = k * k
    framed = raw_nullity - gauge_dim

    G = _gauge_tangent_vectors(data)
    F = _frame_tangent_vectors(data)
    # project the frame directions off the gauge tangent space
    if np.linalg.norm(G) > 0:
        Q, _ = np.linalg.qr(G.T)
        F_perp = F - (F @ Q) @ Q.T
    else:
        F_perp = F
    fsv = np.linalg.svd(F_perp, compute_uv=False)
    fscale = max(np.linalg.norm(F), 1e-30)
    frame_rank = int(np.sum(fsv >= 1e-7 * fscale))

    return JacobianAnalysis(
        singular_values=sv, rank_threshold=thr, raw_nullity=raw_nullity,
        framed_dimension=framed, gauge_dimension=gauge_dim,
        frame_rotation_rank=frame_rank,
        degenerate=rank < 3 * k * k)
