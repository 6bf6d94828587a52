"""Symmetry models and the twisted-product machinery.

Two concrete models drive the deformations: translations of the plane (the
Heisenberg-type deformation, parameters ``hbar, alpha, beta``) and a
two-torus of rotations (phase deformation, parameter ``theta``).  Each model
knows the coactions of every supported generator family and evaluates its
twisting two-cocycle F and the induced R-matrix.  Complete rewrite systems
are derived from the R-matrix; twisted products of classical polynomials
are kept as the independent check of those rules.

Each comodule structure is written down once, as a module table: the
translation coaction in ``_MOYAL_COACTION`` and the torus weights in
``_TORUS_WEIGHTS``, keyed by (space, family index).  The Hopf letters of
the smash products are ``TRANS_LETTERS`` and ``TORUS_LETTERS``.

A model is immutable after construction: its parameters never change, and
it expands each letter's coaction, each word's coaction and each cocycle
value once, on first use, into values that every later call shares.  A
relation derivation likewise derives the rule of two monad letter families
once per cell relation and relabels it onto every pair of cells.  A smash
system derives the rule of a pair when its rewrite engine first meets the
pair.

The sign of the torus cocycle is the convention under which the phase
matrix of the deformed coordinates comes out with
``eta_13 = mu = exp(i*pi*theta)``; the opposite sign would produce the
conjugate phases throughout.
"""

from __future__ import annotations

import functools
import json
import math
from collections import ChainMap
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .star_algebra import (
    C4, HOPF_TORUS, HOPF_TRANS, MONAD_M, R4,
    Coefficient, GeneratorId, NCPolynomial, NonConfluent, RelationSystem,
    StarAlgebraError, associativity_residual, classical_normal_form_word,
    deglex_key, star_closure_residual,
)


class ModelMismatch(StarAlgebraError):
    pass


class MissingCoaction(StarAlgebraError):
    pass


# -- Hopf monomials ----------------------------------------------------------

# Letters of the two Hopf algebras in the order of the monomial exponents:
# (t1, t1*, t2, t2*) and (s1, s1*, s2, s2*).
TRANS_LETTERS, TORUS_LETTERS = (
    tuple(GeneratorId(space, i, c) for i in (1, 2) for c in (False, True))
    for space in (HOPF_TRANS, HOPF_TORUS))


@dataclass(frozen=True)
class TransMonomial:
    """Monomial t1^a t1*^b t2^c t2*^d in the translation Hopf algebra."""

    exps: tuple = (0, 0, 0, 0)

    def degree(self):
        return sum(self.exps)

    def is_unit(self):
        return self.degree() == 0

    def __mul__(self, other):
        return TransMonomial(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def star(self):
        a, b, c, d = self.exps
        return TransMonomial((b, a, d, c))

    def coproduct(self):
        """All splittings with multinomial weights: Delta(t) = 1 x t + t x 1."""
        return _trans_coproduct(self.exps)

    def letters(self):
        return tuple(g for g, e in zip(TRANS_LETTERS, self.exps)
                     for _ in range(e))


@dataclass(frozen=True)
class TorusMonomial:
    """Group-like monomial s1^m s2^n (integer powers) in the torus algebra."""

    exps: tuple = (0, 0)

    def is_unit(self):
        return self.exps == (0, 0)

    def __mul__(self, other):
        return TorusMonomial(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def star(self):
        return TorusMonomial(tuple(-e for e in self.exps))

    def coproduct(self):
        return [(self, self, 1)]

    def letters(self):
        # a negative power is a power of the conjugate letter
        return tuple(TORUS_LETTERS[2 * i + (e < 0)]
                     for i, e in enumerate(self.exps) for _ in range(abs(e)))


@functools.cache
def _trans_coproduct(exps):
    out = []

    def rec(i, left, right, mult):
        if i == 4:
            out.append((TransMonomial(tuple(left)),
                        TransMonomial(tuple(right)), mult))
            return
        e = exps[i]
        for j in range(e + 1):
            rec(i + 1, left + [j], right + [e - j], mult * math.comb(e, j))

    rec(0, [], [], 1)
    return tuple(out)


TRANS_UNIT = TransMonomial()
TORUS_UNIT = TorusMonomial()

# Shorthand generators of the two Hopf algebras.
T1 = TransMonomial((1, 0, 0, 0))
T1S = TransMonomial((0, 1, 0, 0))
T2 = TransMonomial((0, 0, 1, 0))
T2S = TransMonomial((0, 0, 0, 1))
S1 = TorusMonomial((1, 0))
S2 = TorusMonomial((0, 1))
# varsigma = (s1, s1*, s2, s2*)
VARSIGMA = (S1, S1.star(), S2, S2.star())
_LETTER_MONOMIAL = dict(zip(TRANS_LETTERS + TORUS_LETTERS,
                            (T1, T1S, T2, T2S) + VARSIGMA))

# Coaction of the translation Hopf algebra on each generator family:
# (space, index) -> ((coeff, Hopf monomial, target index | None), ...).
# A leg keeps the letter's grade and matrix slot; only its index changes.
# Conjugate letters take the conjugated legs.
_MOYAL_COACTION = {
    (C4, 1): ((1.0, TRANS_UNIT, 1),),
    (C4, 2): ((1.0, TRANS_UNIT, 2),),
    (C4, 3): ((1.0, T1S, 1), (1.0, T2S, 2), (1.0, TRANS_UNIT, 3)),
    (C4, 4): ((-1.0, T2, 1), (1.0, T1, 2), (1.0, TRANS_UNIT, 4)),
    (R4, 1): ((1.0, TRANS_UNIT, 1), (1.0, T1, None)),
    (R4, 2): ((1.0, TRANS_UNIT, 2), (1.0, T2, None)),
    (MONAD_M, 1): ((1.0, TRANS_UNIT, 1), (-1.0, T1S, 3), (1.0, T2, 4)),
    (MONAD_M, 2): ((1.0, TRANS_UNIT, 2), (-1.0, T2S, 3), (-1.0, T1, 4)),
    (MONAD_M, 3): ((1.0, TRANS_UNIT, 3),),
    (MONAD_M, 4): ((1.0, TRANS_UNIT, 4),),
}

# Torus weight of each generator family; a conjugate has the inverse weight.
_TORUS_WEIGHTS = {
    (C4, 1): S1, (C4, 2): S1.star(), (C4, 3): S2, (C4, 4): S2.star(),
    (R4, 1): TorusMonomial((1, -1)), (R4, 2): TorusMonomial((-1, -1)),
    (MONAD_M, 1): S1.star(), (MONAD_M, 2): S1,
    (MONAD_M, 3): S2.star(), (MONAD_M, 4): S2,
}


def z(j, conj=False, grade=0):
    return GeneratorId(C4, j, conj, grade)


def zeta(j, conj=False, grade=0):
    return GeneratorId(R4, j, conj, grade)


def monad_m(j, row, col, conj=False):
    return GeneratorId(MONAD_M, j, conj, 0, row, col)


# -- models -----------------------------------------------------------------

class TwistModel:
    """Shared interface of the three symmetry models."""

    kind = "classical"

    def __init__(self):
        # letter -> its coaction legs, word -> its coaction branches and
        # (h, g) -> F(h, g), each expanded on first use
        self._legs = {}
        self._words = {}
        self._cocycles = {}

    @property
    def theta(self):
        return None

    @property
    def mu(self) -> complex:
        return 1.0 + 0.0j

    @property
    def zeta_level(self) -> float:
        """Real deformation level of the Hermitian equation."""
        return 0.0

    def hopf_unit(self):
        return TRANS_UNIT

    def counit(self, h) -> complex:
        return 1.0 if h.is_unit() else 0.0

    # coactions -------------------------------------------------------------
    def coaction(self, g: GeneratorId):
        """Tuple of ``(coeff, HopfMonomial, GeneratorId | None)`` legs.

        The legs of each letter are expanded once per model and shared by
        every later call; they are immutable, like the model's parameters.
        """
        legs = self._legs.get(g)
        if legs is None:
            legs = self._legs[g] = self._expand_coaction(g)
        return legs

    def _expand_coaction(self, g: GeneratorId):
        raise NotImplementedError

    def _conj_coaction(self, branches):
        return tuple((np.conj(c), h.star(), None if x is None else x.star())
                     for c, h, x in branches)

    # cocycle ----------------------------------------------------------------
    def cocycle(self, h, g) -> Coefficient:
        """F(h, g), evaluated once per model and pair of monomials."""
        f = self._cocycles.get((h, g))
        if f is None:
            f = self._cocycles[h, g] = self._cocycle(h, g)
        return f

    def _cocycle(self, h, g) -> Coefficient:
        raise NotImplementedError

    def cocycle_inv(self, h, g) -> Coefficient:
        raise NotImplementedError

    def generators(self, space, k=1, calculus=True):
        if space == C4:
            gens = [z(j, c, gr) for j in range(1, 5) for c in (False, True)
                    for gr in ((0, 1) if calculus else (0,))]
        elif space == R4:
            gens = [zeta(j, c, gr) for j in (1, 2) for c in (False, True)
                    for gr in ((0, 1) if calculus else (0,))]
        elif space == MONAD_M:
            gens = [monad_m(j, a, b, c) for j in range(1, 5)
                    for a in range(1, 2 * k + 3) for b in range(1, k + 1)
                    for c in (False, True)]
        else:
            raise ModelMismatch(f"no generator family for space {space!r}")
        return tuple(gens)

    def hopf_letters(self):
        return ()

    def tilde_decompose(self, j, h):
        """Rewrite ``M^j (x) h`` in the commuting tilde generator basis.

        Returns ``[(coeff, s, h')]`` meaning ``sum coeff * Mtilde^s (x) h'``.
        """
        return [(1.0, j, h)]

    def tilde_words(self, j):
        """Expansion ``[(coeff, s, h)]`` of ``Mtilde^j`` over ``M^s (x) h``.

        The inverse of ``tilde_decompose``, whose first term is ``M~^j (x) d``
        with d group-like (d d* = 1) and whose other terms sit on tilde
        indices that ``tilde_decompose`` leaves alone: ``M^j (x) 1 =
        M~^j (x) d + sum c M~^s (x) h`` gives ``M~^j (x) 1 = M^j (x) d* -
        sum c M^s (x) h d*``.
        """
        (_, _, d), *rest = self.tilde_decompose(j, self.hopf_unit())
        return [(1.0, j, d.star())] + [(-c, s, h * d.star())
                                       for c, s, h in rest]

    def to_json_dict(self):
        return {"model": self.kind}


class ClassicalModel(TwistModel):
    kind = "classical"

    def _expand_coaction(self, g: GeneratorId):
        return ((1.0, TRANS_UNIT, g),)

    def _cocycle(self, h, g) -> Coefficient:
        return Coefficient(self.counit(h) * self.counit(g))

    cocycle_inv = _cocycle


class MoyalModel(TwistModel):
    """Translation twist: parameters hbar > 0 (0 allowed for the limit),
    alpha, beta nonzero with alpha + beta nonzero."""

    kind = "moyal"

    def __init__(self, hbar, alpha=1.0, beta=1.0):
        if not all(map(math.isfinite, (hbar, alpha, beta))):
            raise ModelMismatch("hbar, alpha and beta must be finite")
        # range errors open with the parameter's name, which the CLI
        # turns into the name of its flag
        if hbar < 0:
            raise ModelMismatch("hbar must be >= 0")
        if hbar > 0 and alpha == 0:
            raise ModelMismatch("alpha must be nonzero")
        if hbar > 0 and (beta == 0 or alpha + beta == 0):
            raise ModelMismatch("beta must be nonzero and differ from -alpha")
        if not all(map(math.isfinite, (hbar * alpha, hbar * beta,
                                       hbar * (alpha + beta)))):
            raise ModelMismatch("hbar times alpha, beta and alpha + beta "
                                "must be finite")
        super().__init__()
        self.hbar = float(hbar)
        self.alpha = float(alpha)
        self.beta = float(beta)
        # pairwise cocycle values on the four generators
        self._f = {
            (T1.exps, T1S.exps): -0.5j * self.hbar * self.alpha,
            (T1S.exps, T1.exps): 0.5j * self.hbar * self.alpha,
            (T2.exps, T2S.exps): 0.5j * self.hbar * self.beta,
            (T2S.exps, T2.exps): -0.5j * self.hbar * self.beta,
        }
        # primed action (Hopf letter, tilde index, conj) -> (coeff, index):
        # the t1-family maps the first tilde generator to the third and the
        # second to the fourth; the t2-family crosses them over.
        h, al, be = self.hbar, self.alpha, self.beta
        self._primed = {
            (T1, 1, False): (Coefficient(1j * h * al, 1), 3),
            (T1S, 1, True): (Coefficient(-1j * h * al, 1), 3),
            (T1S, 2, False): (Coefficient(-1j * h * al, 1), 4),
            (T1, 2, True): (Coefficient(1j * h * al, 1), 4),
            (T2S, 1, False): (Coefficient(-1j * h * be, 1), 4),
            (T2, 1, True): (Coefficient(1j * h * be, 1), 4),
            (T2, 2, False): (Coefficient(-1j * h * be, 1), 3),
            (T2S, 2, True): (Coefficient(1j * h * be, 1), 3),
        }

    @property
    def zeta_level(self):
        return self.hbar * (self.alpha + self.beta)

    def _expand_coaction(self, g: GeneratorId):
        legs = _MOYAL_COACTION.get((g.space, g.index))
        if legs is None:
            raise MissingCoaction(f"no coaction for {g}")
        if g.space == R4 and g.grade == 1:
            return ((1.0, TRANS_UNIT, g),)
        base = tuple(
            (c, h, None if j is None
             else GeneratorId(g.space, j, False, g.grade, g.row, g.col))
            for c, h, j in legs)
        return self._conj_coaction(base) if g.conjugated else base

    def _pairing(self, h, g, sign) -> Coefficient:
        if not isinstance(h, TransMonomial) or not isinstance(g, TransMonomial):
            raise ModelMismatch("Moyal cocycle needs translation monomials")
        a, b, c, d = h.exps
        if (b, a, d, c) != g.exps:
            return Coefficient(0.0)
        v = (math.factorial(a) * math.factorial(b)
             * math.factorial(c) * math.factorial(d))
        v *= (sign * self._f[(T1.exps, T1S.exps)]) ** a
        v *= (sign * self._f[(T1S.exps, T1.exps)]) ** b
        v *= (sign * self._f[(T2.exps, T2S.exps)]) ** c
        v *= (sign * self._f[(T2S.exps, T2.exps)]) ** d
        return Coefficient(v, hbar=h.degree())

    def _cocycle(self, h, g) -> Coefficient:
        return self._pairing(h, g, +1)

    def cocycle_inv(self, h, g) -> Coefficient:
        return self._pairing(h, g, -1)

    def hopf_letters(self):
        return TRANS_LETTERS

    def tilde_decompose(self, j, h):
        if j == 1:
            return [(1.0, 1, h), (-0.5, 3, T1S * h), (0.5, 4, T2 * h)]
        if j == 2:
            return [(1.0, 2, h), (-0.5, 3, T2S * h), (-0.5, 4, T1 * h)]
        return [(1.0, j, h)]

    def primed_action(self, hm, j, conj):
        """``hm |>' Mtilde^j`` (conjugated when ``conj``) as ``[(coeff, s)]``."""
        if hm.is_unit():
            return [(Coefficient(1.0), j)]
        hit = self._primed.get((hm, j, conj))
        return [hit] if hit else []

    def to_json_dict(self):
        return {"model": "moyal", "hbar": self.hbar,
                "alpha": self.alpha, "beta": self.beta}


class ToricModel(TwistModel):
    """Torus twist: parameter theta in (0, 1); mu = exp(i pi theta)."""

    kind = "toric"

    def __init__(self, theta):
        if not 0 <= theta < 1:
            raise ModelMismatch("theta must lie in [0, 1)")
        super().__init__()
        self._theta = float(theta)

    @property
    def theta(self):
        return self._theta

    @property
    def mu(self):
        return complex(np.exp(1j * np.pi * self._theta))

    def hopf_unit(self):
        return TORUS_UNIT

    def counit(self, h) -> complex:
        return 1.0  # group-like monomials

    def _expand_coaction(self, g: GeneratorId):
        w = _TORUS_WEIGHTS.get((g.space, g.index))
        if w is None:
            raise MissingCoaction(f"no coaction for {g}")
        return ((1.0, w.star() if g.conjugated else w, g),)

    @staticmethod
    def _cross(h, g):
        (m, n), (mp, np_) = h.exps, g.exps
        return m * np_ - n * mp

    def _cocycle(self, h, g) -> Coefficient:
        if not isinstance(h, TorusMonomial) or not isinstance(g, TorusMonomial):
            raise ModelMismatch("toric cocycle needs torus monomials")
        # at theta = 0 the phase mu degenerates to 1 and the formal power
        # is dropped, so the derived rules become plain transpositions
        mu2 = -self._cross(h, g) if self._theta else 0
        return Coefficient(1.0, mu2=mu2)

    def cocycle_inv(self, h, g) -> Coefficient:
        mu2 = self._cross(h, g) if self._theta else 0
        return Coefficient(1.0, mu2=mu2)

    def eta(self, j, l) -> Coefficient:
        """eta_{jl} = F^{-2}(varsigma_j, varsigma_l)."""
        return self.cocycle_inv(VARSIGMA[j - 1], VARSIGMA[l - 1]) ** 2

    def hopf_letters(self):
        return TORUS_LETTERS

    def tilde_decompose(self, j, h):
        if j in (1, 2):
            return [(1.0, j, VARSIGMA[j - 1].star() * h)]
        return [(1.0, j, h)]

    def primed_action(self, hm, j, conj):
        """varsigma_l |>' Mtilde^j = eta_{lj} Mtilde^j (conjugates flipped)."""
        w = VARSIGMA[j - 1]
        if conj:
            w = w.star()
        return [(r_matrix(self, w.star(), hm), j)]

    def to_json_dict(self):
        return {"model": "toric", "theta": self._theta}


def model_from_json(obj) -> TwistModel:
    if isinstance(obj, str):
        obj = json.loads(obj)
    kind = obj.get("model")
    if kind == "classical":
        return ClassicalModel()
    if kind == "moyal":
        return MoyalModel(obj["hbar"], obj.get("alpha", 1.0), obj.get("beta", 1.0))
    if kind == "toric":
        return ToricModel(obj["theta"])
    raise ModelMismatch(f"unknown model kind {kind!r}")


# -- cocycle / R-matrix operations -------------------------------------------

def r_matrix(model: TwistModel, h, g) -> Coefficient:
    """R(h, g) = F(g1, h1) F^{-1}(h2, g2), convolution over coproducts."""
    total_val = 0.0
    hbar_pow = None
    mu2 = None
    for h1, h2, mh in h.coproduct():
        for g1, g2, mg in g.coproduct():
            a = model.cocycle(g1, h1)
            b = model.cocycle_inv(h2, g2)
            c = a * b
            if abs(c.value) == 0.0:
                continue
            if hbar_pow is None:
                hbar_pow, mu2 = c.hbar, c.mu2
            elif (c.hbar, c.mu2) != (hbar_pow, mu2):
                raise ModelMismatch("mixed formal degrees in R-matrix value")
            total_val += mh * mg * c.value
    if hbar_pow is None:
        return Coefficient(0.0)
    return Coefficient(total_val, hbar_pow, mu2)


def two_cocycle_residual(model: TwistModel, f, g, h) -> float:
    """Defect of the two-cocycle identity on the triple (h, g, f)."""
    theta = model.theta
    memo_f, memo_fi = {}, {}

    def F(a, b):
        key = (a.exps, b.exps)
        if key not in memo_f:
            memo_f[key] = model.cocycle(a, b).evaluate(theta)
        return memo_f[key]

    def Fi(a, b):
        key = (a.exps, b.exps)
        if key not in memo_fi:
            memo_fi[key] = model.cocycle_inv(a, b).evaluate(theta)
        return memo_fi[key]

    def cop3(x):
        out = []
        for x1, x23, m1 in x.coproduct():
            for x2, x3, m2 in x23.coproduct():
                out.append((x1, x2, x3, m1 * m2))
        return out

    def cop4(x):
        out = []
        for x1, x2, x34, m in cop3(x):
            for x3, x4, m2 in x34.coproduct():
                out.append((x1, x2, x3, x4, m * m2))
        return out

    total = 0.0
    for h1, h2, h3, mh in cop3(h):
        for g1, g2, g3, g4, mg in cop4(g):
            for f1, f2, f3, mf in cop3(f):
                v = F(g1, f1)
                if v == 0.0:
                    continue
                v *= F(h1, g2 * f2)
                if v == 0.0:
                    continue
                v *= Fi(h2 * g3, f3) * Fi(h3, g4)
                total += mh * mg * mf * v
    expected = (model.counit(f) * model.counit(g) * model.counit(h))
    return abs(total - expected)


def bicharacter_residual(model: TwistModel, f, g, h) -> float:
    """Defect of F(fg, h) = F(f, h1) F(g, h2) and its mirror."""
    lhs = model.cocycle(f * g, h).evaluate(model.theta)
    rhs = 0.0
    for h1, h2, m in h.coproduct():
        rhs += m * (model.cocycle(f, h1).evaluate(model.theta)
                    * model.cocycle(g, h2).evaluate(model.theta))
    d1 = abs(lhs - rhs)
    lhs = model.cocycle(f, g * h).evaluate(model.theta)
    rhs = 0.0
    for f1, f2, m in f.coproduct():
        rhs += m * (model.cocycle(f1, h).evaluate(model.theta)
                    * model.cocycle(f2, g).evaluate(model.theta))
    return max(d1, abs(lhs - rhs))


def cotriangularity_residual(model: TwistModel, h, g) -> float:
    """Defect of the convolution identity R(h1,g1) R(g2,h2) = eps(h) eps(g)."""
    total = 0.0
    for h1, h2, mh in h.coproduct():
        for g1, g2, mg in g.coproduct():
            total += mh * mg * (r_matrix(model, h1, g1).evaluate(model.theta)
                                * r_matrix(model, g2, h2).evaluate(model.theta))
    return abs(total - model.counit(h) * model.counit(g))


def act_formal(model: TwistModel, h, g: GeneratorId):
    """Canonical left action h |> g = R(g^(-1), h) g^(0) on one generator.

    Returns branches ``[(Coefficient, GeneratorId | None)]`` with the exact
    formal parameter exponents.
    """
    out = []
    for c, hm, x in model.coaction(g):
        r = r_matrix(model, hm, h)
        if abs(r.value) > 1e-15:
            out.append((r.scale(c), x))
    return out


def act(model: TwistModel, h, g: GeneratorId):
    """Evaluated version of :func:`act_formal` (complex branch weights)."""
    return [(c.evaluate(model.theta), x) for c, x in act_formal(model, h, g)]


def crossed_module_residual(model: TwistModel, h, g: GeneratorId) -> float:
    """Defect of h1 v^(-1) (x) h2 |> v^(0) = (h1 |> v)^(-1) h2 (x) (h1 |> v)^(0)."""
    lhs = {}
    for h1, h2, m in h.coproduct():
        for c, vm, v0 in model.coaction(g):
            for cv, x in act(model, h2, v0):
                key = (h1 * vm, x)
                lhs[key] = lhs.get(key, 0.0) + m * c * cv
    rhs = {}
    for h1, h2, m in h.coproduct():
        for cv, x in act(model, h1, g):
            if x is None:
                key = (h2, None)
                rhs[key] = rhs.get(key, 0.0) + m * cv
                continue
            for c, vm, v0 in model.coaction(x):
                key = (vm * h2, v0)
                rhs[key] = rhs.get(key, 0.0) + m * cv * c
    keys = set(lhs) | set(rhs)
    return max((abs(lhs.get(k, 0.0) - rhs.get(k, 0.0)) for k in keys),
               default=0.0)


# -- twisted products ---------------------------------------------------------

def _word_coaction(model: TwistModel, word):
    """Expand the tensor coaction of a classical word.

    Returns a tuple of ``(coeff, HopfMonomial, residual_word)`` branches;
    unit legs of the coaction simply drop out of the residual word.  The
    branches of each word are expanded once per model, like the legs of a
    letter, and shared by every later call.
    """
    branches = model._words.get(word)
    if branches is not None:
        return branches
    branches = [(1.0, model.hopf_unit(), ())]
    for g in word:
        new = []
        legs = model.coaction(g)
        for c0, h0, w0 in branches:
            for c, h, x in legs:
                nw = w0 if x is None else w0 + (x,)
                new.append((c0 * c, h0 * h, nw))
        branches = new
    branches = model._words[word] = tuple(branches)
    return branches


def twist_product(model: TwistModel, a: NCPolynomial,
                  b: NCPolynomial) -> NCPolynomial:
    """a ._F b = F(a^(-1), b^(-1)) a^(0) b^(0) on classical polynomials.

    Inputs and output live in the classical (graded-commutative) algebra.
    """
    out = NCPolynomial()
    b_terms = [(key, vb, _word_coaction(model, key[0]))
               for key, vb in b.terms.items()]
    for (wa, ha, ma), va in a.terms.items():
        a_legs = _word_coaction(model, wa)
        for (_, hb, mb), vb, b_legs in b_terms:
            for ca, hma, ra in a_legs:
                for cb, hmb, rb in b_legs:
                    f = model.cocycle(hma, hmb)
                    if f.is_zero():
                        continue
                    nf = classical_normal_form_word(ra + rb)
                    if nf is None:
                        continue
                    sign, w = nf
                    out._accum((w, ha + hb + f.hbar, ma + mb + f.mu2),
                               sign * va * vb * ca * cb * f.value)
    return out


# -- relation-system construction ---------------------------------------------

def _validate(rel: RelationSystem):
    rng = np.random.default_rng(12345)
    res = associativity_residual(rel, rng, trials=6)
    if res > 1e-9:
        raise NonConfluent(f"associativity defect {res:.3e}")
    res = star_closure_residual(rel, rng, trials=6)
    if res > 1e-9:
        raise NonConfluent(f"star-closure defect {res:.3e}")


def _is_default_rule(g, h, rhs):
    """True when the derived rule is the graded transposition (or the zero
    rule for a repeated odd letter) that the engine applies by default."""
    if g == h and g.grade:
        return rhs == ()
    if len(rhs) != 1:
        return False
    word, c = rhs[0]
    if word != (h, g) or c.hbar or c.mu2:
        return False
    sign = -1.0 if (g.grade and h.grade) else 1.0
    return abs(c.value - sign) <= 1e-14


def _pair_rule(model, g, h):
    """The rule ``g h = sum (-1)^(|g||h|) c_g c_h R(h_-1, g_-1) h_0 g_0``.

    The twisted algebra of a cotriangular twist is braided-commutative,
    with the R-matrix built from the cocycle F, so each rule is one sum
    over the coaction legs of g and of h.  Terms sharing a graded word and
    formal exponents are summed, and the rule is listed in deglex order.
    """
    s = -1 if g.grade and h.grade else 1
    merged = {}
    for cg, hg, xg in model.coaction(g):
        for ch, hh, xh in model.coaction(h):
            r = r_matrix(model, hh, hg)
            if r.value == 0:
                continue
            nf = classical_normal_form_word(
                tuple(x for x in (xh, xg) if x is not None))
            if nf is None:
                continue
            sign, w = nf
            key = (w, r.hbar, r.mu2)
            # a Python complex: a conjugated leg's coefficient is a numpy
            # scalar
            merged[key] = merged.get(key, 0.0) + complex(
                s * sign * cg * ch * r.value)
    rule = []
    for w, hb, mu2 in sorted(merged, key=lambda key: (deglex_key(key[0]),
                                                      *key[1:])):
        if abs(merged[w, hb, mu2]) > 1e-15:
            rule.append((w, Coefficient(merged[w, hb, mu2], hb, mu2)))
    return tuple(rule)


class _PairRules(Mapping):
    """Derived rules of every pair in ``gens`` that is not a default
    transposition, keyed by the (later, earlier) letter pair.

    A read-only mapping that derives the rule of a pair when the pair is
    first looked up, so a rewrite engine pays only for the pairs its words
    reach.  Iterating or sizing it derives every pair and yields the keys
    pair by pair, each later letter of ``gens`` in sort order with every
    earlier one.

    The rule of a pair is derived once per class and relabelled onto the
    other pairs of its class.  The class of (g, h) is the two letters with
    their matrix cell (row, col) erased, plus the cell relation: the same
    cell, or g's cell earlier or later in sort order.  Each class is
    derived on the first two cells of ``gens`` in sort order.

    The relabelling is exact.  A coaction leg moves only the family index
    of a letter and keeps its cell, and no cocycle value reads a cell: row
    and column are spectators.  So every letter of a derivation sits in
    g's cell or in h's.  ``sort_key`` orders space and index before the
    cell, so the cell relation fixes the deglex order of these letters.
    Every sort and every sum of the derivation then runs in the same order,
    and the relabelled rule keeps the class rule's coefficients, whichever
    pair of the class is derived first.  Letters without a cell (C4, R4)
    all sit in cell (0, 0): their class is the pair itself, and the
    relabelling is the identity.
    """

    def __init__(self, model, gens):
        self._model = model
        self._gens = sorted(gens, key=lambda g: g.sort_key)
        self._letters = frozenset(gens)
        cells = sorted({(g.row, g.col) for g in gens})
        # the cells each class is derived on; with one cell both are it
        self._cells = (cells[0], cells[1 % len(cells)]) if cells else None
        self._moved = {}    # (letter, cell) -> the letter in that cell
        self._classes = {}  # representative pair -> its rule, None if default
        # pair -> its rule, None if default, as met; once complete, every
        # rule in key order and no default
        self._rules = {}
        self._complete = False

    def _move(self, x, cell):
        y = self._moved.get((x, cell))
        if y is None:
            y = self._moved[x, cell] = x if (x.row, x.col) == cell else \
                GeneratorId(x.space, x.index, x.conjugated, x.grade, *cell)
        return y

    def get(self, pair, default=None):
        # Mapping.get and __contains__ would catch a KeyError raised inside
        # a derivation and take the pair for one without a rule
        rhs = self._rules.get(pair, False)
        if rhs is False:
            g, h = pair
            if self._complete or g not in self._letters or \
                    h not in self._letters or not (
                        h.sort_key < g.sort_key or (g == h and g.grade)):
                return default
            rhs = self._rules[pair] = self._derive(g, h)
        return default if rhs is None else rhs

    def __getitem__(self, pair):
        rhs = self.get(pair)
        if rhs is None:
            raise KeyError(pair)
        return rhs

    def __contains__(self, pair):
        return self.get(pair) is not None

    def _derive(self, g, h):
        first, second = self._cells
        gc, hc = (g.row, g.col), (h.row, h.col)
        rc = ((first, first) if gc == hc else
              (second, first) if gc > hc else (first, second))
        rep = (self._move(g, rc[0]), self._move(h, rc[1]))
        if rep not in self._classes:
            rhs = _pair_rule(self._model, *rep)
            self._classes[rep] = None if _is_default_rule(*rep, rhs) else rhs
        rhs = self._classes[rep]
        if rhs is not None and rc != (gc, hc):
            to_pair = {rc[0]: gc, rc[1]: hc}
            rhs = tuple(
                (tuple(self._move(x, to_pair[x.row, x.col]) for x in w), c)
                for w, c in rhs)
        return rhs

    def _complete_rules(self):
        """Every rule, derived in key order on the first call."""
        if not self._complete:
            gens, rules = self._gens, {}
            for i, g in enumerate(gens):
                for h in gens[:i + 1]:
                    if g != h or g.grade:
                        rhs = self._derive(g, h)
                        if rhs is not None:
                            rules[g, h] = rhs
            self._rules, self._complete = rules, True
        return self._rules

    def __iter__(self):
        return iter(self._complete_rules())

    def __len__(self):
        return len(self._complete_rules())


def _pair_rules(model, gens):
    """The read-only mapping of the derived rules of the pairs of ``gens``,
    each derived when first looked up (see :class:`_PairRules`)."""
    return _PairRules(model, gens)


def derive_relations(model: TwistModel, space, k=1,
                     calculus=True) -> RelationSystem:
    """Derive the rewrite system of one twisted algebra from the cocycle.

    ``space`` may be a single ambient tag or a tuple of tags (the twisted
    tensor product of the corresponding comodule algebras).  Only rules that
    differ from the default graded transposition are stored.
    """
    spaces = (space,) if isinstance(space, str) else tuple(space)
    gens = set()
    for s in spaces:
        gens.update(model.generators(s, k=k, calculus=calculus))
    # every rule is derived here, before the probe and before any output
    rel = RelationSystem(gens, dict(_pair_rules(model, gens)),
                         theta=model.theta,
                         meta={"model": model.kind, "space": "+".join(spaces)})
    _validate(rel)
    return rel


def hopf_letter_monomial(hg: GeneratorId):
    """The Hopf monomial represented by one Hopf letter."""
    try:
        return _LETTER_MONOMIAL[hg]
    except KeyError:
        raise ModelMismatch(f"{hg} is not a Hopf letter") from None


def smash_image(model: TwistModel, head, g: GeneratorId) -> NCPolynomial:
    """``head`` times the smash image of the coordinate letter ``g``.

    The image is sum c (Hopf letters of h) x over the coaction legs
    (c, h, x) of ``g``; the letters of the word ``head`` stand in front.
    """
    out = NCPolynomial.zero()
    for c, hm, x in model.coaction(g):
        out = out + NCPolynomial.from_word(head + hm.letters() + (x,), c)
    return out


def smash_relations(model: TwistModel, k: int) -> RelationSystem:
    """Joint rewrite system of the smash product (algebra (x) Hopf letters).

    The monad letters of index ``k`` (none for k = 0) obey their twisted
    relations, Hopf letters act on them via the canonical action, coordinate
    letters commute with both, as in the bosonised picture.  Unlisted pairs
    commute.  The bosonised monad maps with numeric entries live here, with
    or without the monad letters.

    The rules are the monad rules, then the coordinate rules, then the Hopf
    rules, chained into one mapping that the system only reads.  The monad
    and coordinate rules are derived as the engine meets their pairs; the
    Hopf rules are built here.
    """
    hopf = list(model.hopf_letters())
    mon = list(model.generators(MONAD_M, k=k))
    coords = list(model.generators(C4, calculus=False))
    gens = mon + coords + hopf
    rules = {}

    # Torus letters contract against their inverses; everything else commutes.
    for a in hopf:
        for b in hopf:
            if a.space == HOPF_TORUS and a.index == b.index and \
                    a.conjugated != b.conjugated:
                rules[(a, b)] = (((), Coefficient(1.0)),)

    # Hopf letters move right past monad letters via the canonical action;
    # coordinate letters live in the plain tensor factor and commute.
    for hg in hopf:
        hm = hopf_letter_monomial(hg)
        for a in mon:
            if hg.space == HOPF_TRANS:
                # (1 (x) t)(a (x) 1) = a (x) t + (t |> a) (x) 1
                rhs = [((a, hg), Coefficient(1.0))]
                for c, x in act_formal(model, hm, a):
                    rhs.append((() if x is None else (x,), c))
                if len(rhs) > 1:
                    rules[(hg, a)] = tuple(rhs)
            else:
                # group-like: (1 (x) s)(a (x) 1) = (s |> a) (x) s
                branches = act_formal(model, hm, a)
                if len(branches) != 1 or branches[0][1] != a:
                    raise MissingCoaction(f"torus action not diagonal on {a}")
                c = branches[0][0]
                if c.mu2 or abs(c.value - 1.0) > 1e-14:
                    rules[(hg, a)] = (((a, hg), c),)

    # a ChainMap iterates its maps from the last: monad, coordinate, Hopf
    return RelationSystem(
        gens, ChainMap(rules, _pair_rules(model, coords),
                       _pair_rules(model, mon)),
        theta=model.theta,
        meta={"model": model.kind, "space": "smash", "k": k})
