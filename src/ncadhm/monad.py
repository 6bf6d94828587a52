"""ADHM data, monad matrices, and the symbolic monad identities.

The matrix conventions: B1, B2 are k x k, I is k x 2, J is 2 x k, so that
every term of the two quadratic equations is k x k.  The dagger is the
conjugate transpose.  The canonical self-conjugate block forms insert the
torus phase mu into the N1/M2 blocks; the classical and translation models
use mu = 1.  The translation model's Hermitian equation carries the real
deformation level zeta = hbar (alpha + beta) on the right-hand side.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._report import Check, Report
from .hopf_twist import (
    TwistModel, hopf_letter_monomial, model_from_json, monad_m,
    smash_relations, z,
)
from .star_algebra import (
    NCPolynomial, StarAlgebraError, adjoint, commutator_norms, multiply,
    normal_form, sum_of_products,
)
from .twistor import j_image


class ShapeError(StarAlgebraError):
    pass


SYMBOLIC_TOL = 1e-10
# Index of the monad letters that the tilde generators are built from.
_TILDE_K = 1


# -- numeric data -------------------------------------------------------------

def _as_complex(a, shape, name):
    a = np.asarray(a, dtype=complex)
    if a.shape != shape:
        raise ShapeError(f"{name} must have shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ShapeError(f"{name} has non-finite entries")
    return a


@dataclass
class ADHMData:
    """Matrices (B1, B2, I, J) with their deformation model."""

    k: int
    model: TwistModel
    B1: np.ndarray
    B2: np.ndarray
    I: np.ndarray
    J: np.ndarray

    def __post_init__(self):
        if self.k < 1:
            raise ShapeError("k must be a positive integer")
        k = self.k
        self.B1 = _as_complex(self.B1, (k, k), "B1")
        self.B2 = _as_complex(self.B2, (k, k), "B2")
        self.I = _as_complex(self.I, (k, 2), "I")
        self.J = _as_complex(self.J, (2, k), "J")

    @staticmethod
    def zero(k, model) -> "ADHMData":
        return ADHMData(k, model, np.zeros((k, k)), np.zeros((k, k)),
                        np.zeros((k, 2)), np.zeros((2, k)))

    def copy(self) -> "ADHMData":
        return ADHMData(self.k, self.model, self.B1.copy(), self.B2.copy(),
                        self.I.copy(), self.J.copy())

    def gauge_apply(self, g) -> "ADHMData":
        """U(k) action B -> g B g^-1, I -> g I, J -> J g^-1 (g unitary)."""
        g = _as_complex(g, (self.k, self.k), "g")
        gi = np.conj(g.T)
        return ADHMData(self.k, self.model, g @ self.B1 @ gi,
                        g @ self.B2 @ gi, g @ self.I, self.J @ gi)

    def translate(self, c1, c2) -> "ADHMData":
        """Shift the instanton center: zeta_j -> zeta_j + c_j."""
        eye = np.eye(self.k)
        return ADHMData(self.k, self.model,
                        self.B1 + np.conj(c1) * eye, self.B2 - c2 * eye,
                        self.I.copy(), self.J.copy())

    def parameter_vector(self) -> np.ndarray:
        blocks = [self.B1, self.B2, self.I, self.J]
        return np.concatenate([np.concatenate([b.real.ravel(), b.imag.ravel()])
                               for b in blocks])

    @staticmethod
    def from_parameter_vector(k, model, v) -> "ADHMData":
        return ADHMData(k, model, *parameter_blocks(k, v))

    # -- JSON wire format --------------------------------------------------
    def to_json_dict(self) -> dict:
        def mat(a):
            return [[[float(x.real), float(x.imag)] for x in row] for row in a]
        return {"k": self.k, "model": self.model.to_json_dict(),
                "B1": mat(self.B1), "B2": mat(self.B2),
                "I": mat(self.I), "J": mat(self.J)}

    @staticmethod
    def from_json_dict(obj) -> "ADHMData":
        if isinstance(obj, str):
            obj = json.loads(obj)

        def mat(rows):
            return np.array([[complex(p[0], p[1]) for p in row]
                             for row in rows])
        return ADHMData(int(obj["k"]), model_from_json(obj["model"]),
                        mat(obj["B1"]), mat(obj["B2"]),
                        mat(obj["I"]), mat(obj["J"]))


def parameter_blocks(k, v):
    """(B1, B2, I, J) from parameter vectors stacked along the last axis."""
    mats = []
    at = 0
    for shape in ((k, k), (k, k), (k, 2), (2, k)):
        n = shape[0] * shape[1]
        re = v[..., at:at + n].reshape(v.shape[:-1] + shape)
        im = v[..., at + n:at + 2 * n].reshape(v.shape[:-1] + shape)
        mats.append(re + 1j * im)
        at += 2 * n
    return mats


class ADHMStack(NamedTuple):
    """(B1, B2, I, J) of several data of one k and model, stacked along
    leading axes and unchecked: the solver's batch of starts.  It has the
    attributes of ``ADHMData`` that ``adhm_equations`` and the solver's
    ``constraint_jacobian`` read, so both take either."""

    k: int
    model: TwistModel
    B1: np.ndarray
    B2: np.ndarray
    I: np.ndarray
    J: np.ndarray

    @staticmethod
    def from_parameter_vectors(k, model, v) -> "ADHMStack":
        return ADHMStack(k, model, *parameter_blocks(k, v))


def adhm_equations(data: ADHMData | ADHMStack):
    """The complex and the Hermitian equation matrices; zero on solutions.
    For an ``ADHMStack`` they are stacked the same way."""
    mu = data.model.mu
    B1, B2, I, J = data.B1, data.B2, data.I, data.J
    complex_eq = np.conj(mu) * B1 @ B2 - mu * B2 @ B1 + I @ J
    herm = (B1 @ _dag(B1) - _dag(B1) @ B1 + B2 @ _dag(B2) - _dag(B2) @ B2
            + I @ _dag(I) - _dag(J) @ J
            - data.model.zeta_level * np.eye(data.k))
    return complex_eq, herm


def adhm_residual(data: ADHMData):
    """Frobenius norms of the complex and the Hermitian equation defects."""
    complex_eq, herm = adhm_equations(data)
    return float(np.linalg.norm(complex_eq)), float(np.linalg.norm(herm))


def _dag(a):
    """Conjugate transpose of the last two axes (single or batched)."""
    return a.swapaxes(-1, -2).conj()


# -- monad matrices ------------------------------------------------------------

@dataclass
class MonadMatrices:
    """Constant matrices of the two module maps, M^j and N^j."""

    k: int
    M: list  # four (2k+2) x k arrays
    N: list  # four k x (2k+2) arrays

    def __post_init__(self):
        k = self.k
        self.M = [_as_complex(m, (2 * k + 2, k), f"M{j + 1}")
                  for j, m in enumerate(self.M)]
        self.N = [_as_complex(n, (k, 2 * k + 2), f"N{j + 1}")
                  for j, n in enumerate(self.N)]

    def reality_residual(self) -> float:
        """Defect of N1 = M2+, N2 = -M1+, N3 = M4+, N4 = -M3+."""
        pairs = [(self.N[0], _dag(self.M[1])), (self.N[1], -_dag(self.M[0])),
                 (self.N[2], _dag(self.M[3])), (self.N[3], -_dag(self.M[2]))]
        return max(float(np.linalg.norm(a - b)) for a, b in pairs)

    def transform_W(self, W) -> "MonadMatrices":
        """Right module change of basis sigma -> sigma W (W invertible k x k)."""
        W = _as_complex(W, (self.k, self.k), "W")
        Winv = np.linalg.inv(W)
        return MonadMatrices(self.k, [m @ W for m in self.M],
                             [Winv @ n for n in self.N])

    def transform_U(self, U) -> "MonadMatrices":
        """Unitary change of basis sigma -> U sigma on the middle module."""
        n = 2 * self.k + 2
        U = _as_complex(U, (n, n), "U")
        M = [U @ m for m in self.M]
        N = [x @ _dag(U) for x in self.N]
        return MonadMatrices(self.k, M, N)


def build_monad(data: ADHMData) -> MonadMatrices:
    """Canonical self-conjugate monad matrices for the given ADHM data."""
    k = data.k
    mu = data.model.mu
    mub = np.conj(mu)
    M3 = np.eye(2 * k + 2, k)
    M4 = np.eye(2 * k + 2, k, -k)
    M1 = np.concatenate([data.B1, data.B2, data.J])
    M2 = np.concatenate([-mub * _dag(data.B2), mu * _dag(data.B1),
                         _dag(data.I)])
    N1, N2, N3, N4 = _dag(M2), -_dag(M1), _dag(M4), -_dag(M3)
    return MonadMatrices(k, [M1, M2, M3, M4], [N1, N2, N3, N4])


# -- polynomial-valued matrices --------------------------------------------------

class PolyMatrix:
    """Dense matrix with noncommutative-polynomial entries."""

    def __init__(self, entries):
        self.entries = [list(row) for row in entries]
        self.shape = (len(self.entries),
                      len(self.entries[0]) if self.entries else 0)

    @staticmethod
    def from_scalar_matrices(mats_and_polys, shape):
        """sum of (numeric matrix) * (polynomial) pairs."""
        rows, cols = shape
        entries = [[NCPolynomial.zero() for _ in range(cols)]
                   for _ in range(rows)]
        for mat, poly in mats_and_polys:
            for a in range(rows):
                for b in range(cols):
                    v = complex(mat[a, b])
                    if v != 0:
                        entries[a][b] = entries[a][b] + poly.scale(v)
        return PolyMatrix(entries)

    def matmul(self, other: "PolyMatrix", rel) -> "PolyMatrix":
        rows, inner = self.shape
        inner2, cols = other.shape
        if inner != inner2:
            raise ShapeError("polynomial matrix shape mismatch")
        return PolyMatrix([[sum_of_products(
            [(row[b], other.entries[b][c]) for b in range(inner)], rel)
            for c in range(cols)] for row in self.entries])

    def adjoint(self, rel) -> "PolyMatrix":
        rows, cols = self.shape
        return PolyMatrix([[adjoint(self.entries[a][b], rel)
                            for a in range(rows)] for b in range(cols)])

    def __sub__(self, other):
        return PolyMatrix([[x - y for x, y in zip(r1, r2)]
                           for r1, r2 in zip(self.entries, other.entries)])

    def map(self, f):
        return PolyMatrix([[f(x) for x in row] for row in self.entries])

    def eval_max_norm(self, theta=None) -> float:
        return max((x.eval_norm(theta) for row in self.entries for x in row),
                   default=0.0)


# -- bosonised monad maps ---------------------------------------------------------

# The signed coordinate letters of sigma.
_Z_LETTERS = tuple((1.0, z(j)) for j in range(1, 5))


def bosonise_monad(m: MonadMatrices, model: TwistModel, rel):
    """Smash-valued monad maps over (Hopf letters) x (deformed coordinates).

    The numeric blocks are read as values of the commuting tilde generators
    (the convention of the canonical forms).  ``rel`` is a
    :func:`smash_relations` system of the model, with or without monad
    letters: words without them normal-order the same in both.  Returns
    ``(sigma, tau)``.
    """
    sigma = _dressed_map(m.M, model, _Z_LETTERS, rel)
    tau = _dressed_map(m.N, model, _Z_LETTERS, rel)
    return sigma, tau


def _dressed_map(blocks, model, letters, rel):
    """sum_r sign_r M^r (x) (coaction of letter_r) in the tilde basis,
    normal-ordered in rel; ``letters`` holds (sign, letter) pairs.

    Each leg is filed under the tilde index s of its decomposition, so the
    map is not a sum of :func:`smash_image` calls, one per letter.
    """
    wpolys = {s: NCPolynomial.zero() for s in range(1, 5)}
    for r, (sign, g) in enumerate(letters):
        for c, hm, x in model.coaction(g):
            for c2, s, hm2 in model.tilde_decompose(r + 1, hm):
                wpolys[s] = wpolys[s] + NCPolynomial.from_word(
                    hm2.letters() + (x,), sign * c * c2)
    out = PolyMatrix.from_scalar_matrices(
        [(blocks[s - 1], wpolys[s]) for s in range(1, 5)], blocks[0].shape)
    return out.map(lambda p: normal_form(p, rel))


def bosonise_j_map(m: MonadMatrices, model: TwistModel, rel):
    """The quaternionic partner map sigma_{J(z)} in the smash picture.

    ``rel`` is the smash system given to :func:`bosonise_monad`.  For
    self-conjugate data this map coincides with the adjoint of the
    bosonised tau map.  Its signed letters J(z_1..z_4) are read from the
    quaternionic structure of :mod:`twistor`.
    """
    letters = tuple(j_image(z(j)) for j in range(1, 5))
    return _dressed_map(m.M, model, letters, rel)


def monad_residual(m: MonadMatrices, model: TwistModel) -> PolyMatrix:
    """Normal form of tau compose sigma in the twisted algebra.

    All-zero (after numeric evaluation of the formal parameters) exactly
    when the deformed ADHM equations hold.  For the translation model the
    composition picks up the constant shift i hbar (alpha + beta) on the
    z1 z2 word from reordering z4 z3.
    """
    rel = smash_relations(model, 0)
    sigma, tau = bosonise_monad(m, model, rel)
    comp = tau.matmul(sigma, rel)
    # reduced already; the pass reverses the order that eval_norm sums in
    return comp.map(lambda p: normal_form(p, rel))


# -- tilde subalgebra -----------------------------------------------------------

def tilde_generator_polys(model: TwistModel):
    """The commuting generators inside the smash product, as polynomials.

    Returns ``{(j, row, col, conj): NCPolynomial}`` over monad + Hopf letters.
    """
    out = {}
    k = _TILDE_K
    rel = smash_relations(model, k=k)
    for j in range(1, 5):
        for a in range(1, 2 * k + 3):
            for b in range(1, k + 1):
                p = NCPolynomial.zero()
                for c2, s, hm in model.tilde_words(j):
                    p = p + NCPolynomial.from_word(
                        (monad_m(s, a, b),) + hm.letters(), c2)
                out[(j, a, b, False)] = p
                out[(j, a, b, True)] = adjoint(p, rel)
    return out, rel


def tilde_subalgebra_check(model: TwistModel) -> Report:
    """Commutativity of the tilde generators and the smash isomorphism.

    Checks every pairwise commutator of the tilde generators (including
    conjugates) and, for every Hopf letter and every tilde generator, that
    mapping the abstract smash product through the generator images
    preserves the cross relation: the hand-written primed action of the
    model on one side, the normal ordering of the smash system on the
    other.
    """
    tilde, rel = tilde_generator_polys(model)
    theta = model.theta
    worst_comm = 0.0
    keys = sorted(tilde)
    for i, ka in enumerate(keys):
        for r in commutator_norms(tilde[ka], [tilde[kb] for kb in keys[:i]],
                                  rel, theta):
            worst_comm = max(worst_comm, r)
    checks = [Check("tilde_commutativity", worst_comm <= SYMBOLIC_TOL,
                    worst_comm, SYMBOLIC_TOL)]

    # phi respects the cross relations: phi((1 (x) h)(T (x) 1)) =
    # phi(1 (x) h) phi(T (x) 1) with the primed action on the left side.
    worst_phi = 0.0
    for hg in model.hopf_letters():
        h = NCPolynomial.from_generator(hg)
        for key in keys:
            rhs = multiply(h, tilde[key], rel)
            lhs = _primed_product(model, hg, key, tilde, rel)
            worst_phi = max(worst_phi, (lhs - rhs).eval_norm(theta))
    checks.append(Check("smash_isomorphism", worst_phi <= SYMBOLIC_TOL,
                        worst_phi, SYMBOLIC_TOL))
    return Report(checks)


def _primed_product(model, hg, key, tilde, rel):
    """(1 (x) h)(T~ (x) 1) = sum (h1 |>' T~) (x) h2, then phi-imaged.

    The coproduct of the Hopf letter makes the choice: a primitive letter
    gives T~ (x) h + (h |>' T~) (x) 1, a group-like one (h |>' T~) (x) h.
    A single letter splits with unit multiplicities.
    """
    j, a, b, conj = key
    out = NCPolynomial.zero()
    for h1, h2, _ in hopf_letter_monomial(hg).coproduct():
        tail = NCPolynomial.from_word(h2.letters())
        for c, j2 in model.primed_action(h1, j, conj):
            out = out + multiply(tilde[(j2, a, b, conj)], tail,
                                 rel).scale_coeff(c)
    return out
