"""Instanton projector, curvature, charge, and the deformed symbolic checks.

Numerics run on the classical model: the monad maps are evaluated on the
twistor line over a point of the plane, which pins the two extra coordinates
to z3 = zeta1* z1 + zeta2* z2 and z4 = zeta1 z2 - zeta2 z1; the section
(z1, z2) = (1, 0) then yields the standard pair of ADHM matrices

    sigma_(1) = M1 + zeta1* M3 - zeta2 M4,
    sigma_(2) = M2 + zeta2* M3 + zeta1 M4,

with sigma_(2) the image of the quaternionic partner map on that section.
Real coordinates are (Re zeta1, Im zeta1, Re zeta2, Im zeta2); the Hodge
operator is taken in the orientation in which this construction is
anti-self-dual (the construction fixes no orientation by itself).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._report import Check, Report
from .hopf_twist import (
    ModelMismatch, TwistModel, monad_m, smash_image, smash_relations, z,
)
from .monad import (
    SYMBOLIC_TOL, ADHMData, MonadMatrices, PolyMatrix, ShapeError, _dag,
    bosonise_j_map, bosonise_monad, build_monad,
)
from .star_algebra import (
    AUX, MONAD_M, GeneratorId, NCPolynomial, RelationSystem, adjoint,
    commutator_norms, multiply, normal_form, reduce_modulo, sum_of_products,
)


class SingularRho(Exception):
    pass


class QuadratureBudgetExceeded(Exception):
    pass


SINGULAR_CUTOFF = 1e-10
QUADRATURE_MAX_POINTS = 5_000_000
# Points per curvature batch: bounds the n x n x 16 complex F held at once
# (4 MiB at k=3); every per-point number is independent of the chunking.
CURVATURE_CHUNK = 256


@dataclass(frozen=True)
class PointR4:
    zeta1: complex
    zeta2: complex

    def __post_init__(self):
        if not (np.isfinite(complex(self.zeta1))
                and np.isfinite(complex(self.zeta2))):
            raise ShapeError("point coordinates must be finite")


@dataclass
class ConnectionSample:
    point: PointR4
    V: np.ndarray
    rho2: np.ndarray
    Q: np.ndarray
    P: np.ndarray
    asd_residual: float | None = None


def _require_classical(data: ADHMData):
    if data.model.kind != "classical":
        raise ModelMismatch("numeric evaluation needs the classical model")


def monad_pair_at(m: MonadMatrices, z1, z2):
    """The two column blocks of the monad map, broadcast over z1 and z2."""
    z1 = np.asarray(z1, dtype=complex)[..., None, None]
    z2 = np.asarray(z2, dtype=complex)[..., None, None]
    M1, M2, M3, M4 = m.M
    s1 = M1 + np.conj(z1) * M3 - z2 * M4
    s2 = M2 + np.conj(z2) * M3 + z1 * M4
    return s1, s2


def _v_batch(m: MonadMatrices, z1, z2):
    s1, s2 = monad_pair_at(m, z1, z2)
    return np.concatenate([s1, s2], axis=-1)


def _projector(V):
    """V+, G^-1, V G^-1 and Q = V G^-1 V+ for G = V+V, over the last two axes."""
    Vd = _dag(V)
    Ginv = np.linalg.inv(Vd @ V)
    VG = V @ Ginv
    return Vd, Ginv, VG, VG @ Vd


# Constant coordinate derivatives of V in (Re z1, Im z1, Re z2, Im z2).
def _dv_tables(m: MonadMatrices):
    M3, M4 = m.M[2], m.M[3]
    # sigma_(1) depends on zeta1* and zeta2, sigma_(2) on zeta2* and zeta1.
    return [
        np.hstack([M3, M4]),                # d/d Re zeta1
        np.hstack([-1j * M3, 1j * M4]),     # d/d Im zeta1
        np.hstack([-M4, M3]),               # d/d Re zeta2
        np.hstack([-1j * M4, -1j * M3]),    # d/d Im zeta2
    ]


# The last monad built and its key, held as one (key, monad) tuple so a key
# is never paired with another key's monad.
_monad_memo = (None, None)


def _monad_of(data: ADHMData) -> MonadMatrices:
    """build_monad(data), reused while the data's content is unchanged.

    The key is the content build_monad reads, not the object: data edited in
    place gets a new monad, validated again.
    """
    global _monad_memo
    _require_classical(data)
    key = (data.k, np.complex128(data.model.mu).tobytes()) + tuple(
        (a.shape, a.dtype.str, a.tobytes())
        for a in (data.B1, data.B2, data.I, data.J))
    held, m = _monad_memo
    if held != key:
        m = build_monad(data)
        _monad_memo = (key, m)
    return m


def evaluate_projector(data: ADHMData, x: PointR4) -> ConnectionSample:
    """The rank-2k projector Q and its complement P at one plane point."""
    V = _v_batch(_monad_of(data), x.zeta1, x.zeta2)
    rho2 = _checked_rho2(V[:, :data.k], x)
    Q = _projector(V)[3]
    P = np.eye(2 * data.k + 2) - Q
    return ConnectionSample(x, V, rho2, Q, P)


def _curvature_batch(m: MonadMatrices, z1, z2):
    """F_{mu nu} = P (d_mu V G^-1 d_nu V+ - (mu <-> nu)) P, batched.

    Valid on solutions, where G = V+V is block diagonal; the general
    projector curvature P[dP, dP]P is used by the finite-difference check.
    """
    V = _v_batch(m, z1, z2)
    Vd, Ginv, VG, Q = _projector(V)
    n = V.shape[-2]
    P = np.eye(n) - Q
    F = np.zeros((V.shape[0], 4, 4, n, n), dtype=complex)
    # dP/dx_mu, analytic
    dP = []
    for Dv in _dv_tables(m):
        Dvd = _dag(Dv)
        dG = Dvd @ V + Vd @ Dv
        dGinv = -Ginv @ dG @ Ginv
        term = Dv @ Ginv @ Vd + V @ dGinv @ Vd + VG @ Dvd
        dP.append(-term)
    for mu in range(4):
        for nu in range(mu + 1, 4):
            Fmn = P @ (dP[mu] @ dP[nu] - dP[nu] @ dP[mu]) @ P
            F[:, mu, nu] = Fmn
            F[:, nu, mu] = -Fmn
    return F, P


# Hodge dual pairs in the orientation that makes the construction ASD:
# (*F)_{01} = -F_{23}, (*F)_{02} = +F_{13}, (*F)_{03} = -F_{12}.
_HODGE = [((0, 1), (2, 3), -1.0), ((0, 2), (1, 3), +1.0),
          ((0, 3), (1, 2), -1.0)]


def hodge_star(F):
    out = np.zeros_like(F)
    for (a, b), (c, d), s in _HODGE:
        out[:, a, b] = s * F[:, c, d]
        out[:, b, a] = -out[:, a, b]
        out[:, c, d] = s * F[:, a, b]
        out[:, d, c] = -out[:, c, d]
    return out


def _asd_residuals(F):
    S = F + hodge_star(F)
    num = np.sqrt(np.sum(np.abs(S) ** 2, axis=(1, 2, 3, 4)))
    den = np.sqrt(np.sum(np.abs(F) ** 2, axis=(1, 2, 3, 4)))
    den[den == 0] = 1.0
    return num / den


def _per_point(m: MonadMatrices, z1, z2, reduce):
    """reduce(F) over chunks of CURVATURE_CHUNK points, concatenated."""
    return np.concatenate([
        reduce(_curvature_batch(m, z1[i:i + CURVATURE_CHUNK],
                                z2[i:i + CURVATURE_CHUNK])[0])
        for i in range(0, len(z1), CURVATURE_CHUNK)])


def _plane_points(data: ADHMData, points):
    """The monad and the coordinate arrays of the points, guarded."""
    m = _monad_of(data)
    z1 = np.array([p.zeta1 for p in points], dtype=complex)
    z2 = np.array([p.zeta2 for p in points], dtype=complex)
    if z1.size == 0:
        raise ShapeError("no sample points given")
    s1, _ = monad_pair_at(m, z1, z2)
    _checked_rho2(s1, "a sample point")
    return m, z1, z2


def curvature_asd(data: ADHMData, points) -> Report:
    """Analytic curvature and the anti-self-duality residual at the points."""
    res = _per_point(*_plane_points(data, points), _asd_residuals)
    worst = float(res.max())
    return Report([Check("asd_max_residual", worst <= 1e-6, worst, 1e-6)])


def curvature_samples(data: ADHMData, points):
    """ConnectionSamples with per-point ASD residuals.

    A sample carries the residual of the curvature at its point, not the
    curvature itself. One monad, built once from the data, serves every
    point.
    """
    res = _per_point(*_plane_points(data, points), _asd_residuals)
    out = []
    for p, r in zip(points, res):
        sample = evaluate_projector(data, p)
        sample.asd_residual = float(r)
        out.append(sample)
    return out


def _checked_rho2(s1, where):
    """rho2 = sigma_(1)+ sigma_(1) over the last two axes, or SingularRho
    when an eigenvalue falls below SINGULAR_CUTOFF."""
    rho2 = _dag(s1) @ s1
    if np.linalg.eigvalsh(rho2).min() < SINGULAR_CUTOFF:
        raise SingularRho(f"zero-size locus hit by {where}")
    return rho2


def finite_difference_curvature(data: ADHMData, x: PointR4, step):
    """Central-difference curvature from projector samples, for cross-checks."""
    _require_classical(data)
    m = build_monad(data)

    def P_at(v):
        V = _v_batch(m, v[0] + 1j * v[1], v[2] + 1j * v[3])
        return np.eye(V.shape[0]) - _projector(V)[3]

    v0 = np.array([x.zeta1.real, x.zeta1.imag, x.zeta2.real, x.zeta2.imag])
    P0 = P_at(v0)
    dP = []
    for mu in range(4):
        vp, vm = v0.copy(), v0.copy()
        vp[mu] += step
        vm[mu] -= step
        dP.append((P_at(vp) - P_at(vm)) / (2 * step))
    n = P0.shape[0]
    F = np.zeros((1, 4, 4, n, n), dtype=complex)
    for mu in range(4):
        for nu in range(mu + 1, 4):
            Fmn = P0 @ (dP[mu] @ dP[nu] - dP[nu] @ dP[mu]) @ P0
            F[0, mu, nu] = Fmn
            F[0, nu, mu] = -Fmn
    return F


# -- topological charge ----------------------------------------------------------

@dataclass
class QuadratureSpec:
    resolution: int

    def node_counts(self):
        """Radial, two polar and periodic node counts, within the budget."""
        r = self.resolution
        counts = (4 * r, r, r, 2 * r)
        points = math.prod(counts)
        if points > QUADRATURE_MAX_POINTS:
            raise QuadratureBudgetExceeded(
                f"{points} quadrature points exceed {QUADRATURE_MAX_POINTS}")
        return counts


def _density(m: MonadMatrices, z1, z2):
    return _per_point(m, z1, z2, _density_of)


def _density_of(F):
    # orientation from the Hodge pairs above; sign pinned so the unit-charge
    # reference datum integrates to +1
    t = sum(s * np.einsum("pij,pji->p", F[:, a, b], F[:, c, d])
            for (a, b), (c, d), s in _HODGE)
    return np.real(t) / (4 * np.pi ** 2)


def charge(data: ADHMData, quad: QuadratureSpec) -> float:
    """Quadrature of the charge density over the plane.

    Product rule: mapped Gauss-Legendre radially, Gauss-Legendre in the two
    polar angles of the three-sphere, trapezoid in the periodic angle.
    """
    _require_classical(data)
    n_r, n_t1, n_t2, n_p = quad.node_counts()
    scale = _charge_scale(data)

    xs, ws = np.polynomial.legendre.leggauss(n_r)
    s = 0.5 * (xs + 1.0)
    ws = 0.5 * ws
    r = scale * s / (1.0 - s)
    dr = scale * ws / (1.0 - s) ** 2

    t1, w1 = np.polynomial.legendre.leggauss(n_t1)
    t1 = 0.5 * np.pi * (t1 + 1.0)
    w1 = 0.5 * np.pi * w1 * np.sin(t1) ** 2
    t2, w2 = np.polynomial.legendre.leggauss(n_t2)
    t2 = 0.5 * np.pi * (t2 + 1.0)
    w2 = 0.5 * np.pi * w2 * np.sin(t2)
    phi = 2.0 * np.pi * np.arange(n_p) / n_p
    wp = np.full(n_p, 2.0 * np.pi / n_p)

    m = build_monad(data)
    T1, T2, PH = np.meshgrid(t1, t2, phi, indexing="ij")
    W = (w1[:, None, None] * w2[None, :, None] * wp[None, None, :]).ravel()
    omega1 = (np.cos(T1) + 1j * np.sin(T1) * np.cos(T2)).ravel()
    omega2 = (np.sin(T1) * np.sin(T2)
              * (np.cos(PH) + 1j * np.sin(PH))).ravel()
    total = 0.0
    for ri, dri in zip(r, dr):
        q = _density(m, ri * omega1, ri * omega2)
        total += dri * ri ** 3 * float(np.sum(q * W))
    return float(total)


def _charge_scale(data: ADHMData) -> float:
    norm = np.sqrt(np.linalg.norm(data.I) ** 2 + np.linalg.norm(data.J) ** 2
                   + np.linalg.norm(data.B1) ** 2
                   + np.linalg.norm(data.B2) ** 2)
    return max(1.0, float(norm))


# -- deformed symbolic pipeline ----------------------------------------------------

RHO2_INV = GeneratorId(AUX, 1)


def symbolic_projector_checks(data: ADHMData) -> Report:
    """The four smash-algebra identities behind the deformed projector.

    (1) the monad pairing tau sigma vanishes (via the self-conjugate
    identification this is the orthogonality of the quaternionic pair),
    (2) both squared maps agree (the polarised identity), (3) the entries
    of rho2 built from symbolic monad generators commute with every
    generator of the bosonised algebra, (4) with a formal central inverse
    of rho2 adjoined, Q^2 - Q reduces to zero.  The last check uses a
    scalar inverse and is emitted for index-one data only.
    """
    model = data.model
    theta = model.theta
    tol = SYMBOLIC_TOL
    m = build_monad(data)
    # one smash system with the monad letters serves all four checks; at
    # index one it also holds the formal inverse of rho2, which has no rule:
    # it is central and sorts first, so other normal forms stay as they are
    rel = smash_relations(model, k=data.k)
    if data.k == 1:
        rel = RelationSystem(rel.generators + (RHO2_INV,), rel.rules,
                             theta=rel.theta, meta=rel.meta)
    sigma, tau = bosonise_monad(m, model, rel)
    sigma_j = bosonise_j_map(m, model, rel)

    checks = []
    comp = tau.matmul(sigma, rel).map(lambda p: normal_form(p, rel))
    r1 = comp.eval_max_norm(theta)
    checks.append(Check("monad_orthogonality", r1 <= tol, r1, tol))

    rho_a = sigma.adjoint(rel).matmul(sigma, rel)
    rho_b = sigma_j.adjoint(rel).matmul(sigma_j, rel)
    r2 = (rho_a - rho_b).map(lambda p: normal_form(p, rel)).eval_max_norm(theta)
    checks.append(Check("polarised_rho2", r2 <= tol, r2, tol))

    r3 = _centrality_residual(model, rel, data.k)
    checks.append(Check("rho2_centrality", r3 <= tol, r3, tol))

    if data.k == 1:
        # the formal inverse is a single central symbol; index one only
        r4 = _projector_idempotency_residual(sigma, sigma_j, rho_a, rel, theta)
        checks.append(Check("projector_idempotent", r4 <= tol, r4, tol))
    return Report(checks)


def _centrality_residual(model: TwistModel, rel: RelationSystem,
                         k: int) -> float:
    """Centrality of rho2 with symbolic monad generators (family level).

    The bosonised algebra is generated by the monad entries together with
    the Hopf-dressed coordinate functions; the entries of rho2 built from
    symbolic generators commute with all of them (for the torus model this
    is the zero-net-weight bookkeeping).  ``rel`` is the smash system with
    the index-``k`` monad letters.

    One representative of each orbit is checked, so the count of
    commutators does not grow with k.  A row permutation of the monad
    letters fixes every rho_cd (it sums over all rows), and a column
    permutation pi maps rho_cd to rho_pi(c)pi(d); both are automorphisms of
    ``rel`` (``test_row_and_column_permutations_map_rules_to_identities``
    in tests/test_hopf_twist.py checks the row reversal and the adjacent
    column transpositions, which generate every column permutation).  In a
    confluent system a commutator is zero exactly when its normal form is.
    So the diagonal entries are covered by rho_11 against the row-1 monad
    letters of columns 1 and 2, whose stabiliser permutes columns 2..k,
    and the others by rho_12 against those of columns 1 to 3, whose
    stabiliser permutes columns 3..k.  Both also meet the conjugate
    letters and the 8 dressed coordinates, which no permutation moves.
    Only columns 1 and 2 of sigma are built.  Each commutator is formed
    over coded words by ``commutator_norms``; the residual is the largest.
    """
    def sym(a, b):
        """sum_j M^j_ab (x) (coaction of z_j), the (a, b) entry of sigma."""
        out = NCPolynomial.zero()
        for j in range(1, 5):
            out = out + smash_image(model, (monad_m(j, a, b),), z(j))
        return normal_form(out, rel)

    dressed = [normal_form(smash_image(model, (), z(j, conj)), rel)
               for j in range(1, 5) for conj in (False, True)]
    rows = range(1, 2 * k + 3)
    sigma_1 = [sym(a, 1) for a in rows]
    sigma_1_dag = [adjoint(p, rel) for p in sigma_1]
    orbits = [(sigma_1, (1, 2))]  # rho_11
    if k > 1:
        orbits.append(([sym(a, 2) for a in rows], (1, 2, 3)))  # rho_12
    worst = 0.0
    for sigma_d, cols in orbits:
        rho = sum_of_products(zip(sigma_1_dag, sigma_d), rel)
        letters = [NCPolynomial.from_generator(g) for g in rel.generators
                   if g.space == MONAD_M and g.row == 1 and g.col in cols]
        for r in commutator_norms(rho, letters + dressed, rel, model.theta):
            worst = max(worst, r)
    return worst


def _projector_idempotency_residual(sigma, sigma_j, rho2_mat, rel, theta):
    """Q^2 - Q with the formal inverse adjoined (index-one data).

    The brute expansion decomposes exactly as

        Q^2 - Q = V r (V*V - rho2) r V* + V (r rho2 r - r) V*,

    an identity of word arithmetic that is asserted structurally; the first
    piece vanishes on evaluation by the orthogonality and polarisation
    identities, the second reduces to zero by the defining relation of the
    formal inverse.  ``rel`` is the smash system of the other checks, with
    the formal inverse ``RHO2_INV`` among its letters.
    """
    rho2 = rho2_mat.entries[0][0]
    rinv = NCPolynomial.from_word((RHO2_INV,))

    def left(c, M):
        return M.map(lambda p: multiply(c, p, rel))

    V = PolyMatrix([[sigma.entries[a][0], sigma_j.entries[a][0]]
                    for a in range(sigma.shape[0])])
    Vd = V.adjoint(rel)
    Q = V.matmul(left(rinv, Vd), rel)
    E1 = Q.matmul(Q, rel) - Q

    zero = NCPolynomial.zero()
    D = (Vd.matmul(V, rel) - PolyMatrix([[rho2, zero], [zero, rho2]])).map(
        lambda p: normal_form(p, rel))
    core = D.map(lambda p: multiply(rinv, multiply(p, rinv, rel), rel))
    # sum over the (b, c) pairs in this order of V_ab (core_bc V+_c), as one
    # n x 4 by 4 x n product: grouped as V (core V+) it rounds differently
    pairs = [(b, c) for b in range(2) for c in range(2)]
    v_pairs = PolyMatrix([[row[b] for b, _ in pairs] for row in V.entries])
    core_vd = PolyMatrix([[multiply(core.entries[b][c], p, rel)
                           for p in Vd.entries[c]] for b, c in pairs])
    sandwich = v_pairs.matmul(core_vd, rel)

    X = multiply(rinv, multiply(rho2, rinv, rel), rel) - rinv
    inner = V.matmul(left(X, Vd), rel)

    # structural identity: raw coefficients, no parameter evaluation; the
    # entries are sums of normal forms, so normal already
    struct = 0.0
    for row in (E1 - sandwich - inner).entries:
        for p in row:
            struct = max(struct, max(map(abs, p.terms.values()), default=0.0))

    x_red = reduce_modulo(X, rel, [multiply(rinv, rho2, rel)
                                    - NCPolynomial.one()])
    return max(struct, sandwich.eval_max_norm(theta), x_red.eval_norm(theta))
