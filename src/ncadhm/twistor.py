"""Symbolic checks of the twistor-fibration algebra maps.

Everything here is commutative: the seven-sphere inside C^4, the projective
twistor space presented through rank-one projector entries q_jl = z_j z_l*,
the four-sphere inside both, the quaternionic involution J, and the two
stereographic localisations.  Reduction modulo side relations (sphere,
localisation inverses) is plain commutative polynomial rewriting.

J is written once, on the coordinates (``_J_C4``); its image of a
projective letter is derived from that table when it is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._report import Check, Report
from .star_algebra import (
    C4, CP3, CP3_NAMES, R4, S4, Coefficient, GeneratorId, NCPolynomial,
    RelationSystem, UnknownGenerator, classical_normal_form_word, multiply,
    reduce_modulo,
)
from .hopf_twist import ClassicalModel, ToricModel, MoyalModel, z, zeta

RESIDUAL_TOL = 1e-12


# -- commutative quotient contexts -------------------------------------------

@dataclass
class QuotientContext:
    """A commutative algebra together with side relations declared zero.

    Declared inverses are fresh generators whose defining relation is one
    more side relation; :func:`reduce_modulo` divides by all of them.
    """

    rel: RelationSystem
    side_relations: list

    def reduce(self, p: NCPolynomial) -> NCPolynomial:
        return reduce_modulo(p, self.rel, self.side_relations)


# -- generators and algebra maps ----------------------------------------------

def x_gen(i, conj=False):
    return GeneratorId(S4, i, conj)


X0 = x_gen(0)
X1, X2 = x_gen(1), x_gen(2)
X1S, X2S = x_gen(1, True), x_gen(2, True)
X0_INV = GeneratorId(S4, -1)
R4_INV = GeneratorId(R4, -1)


# The projective-space letters: index -> (j, l), where the letter of that
# index (named in ``CP3_NAMES``) is identified with q_jl = z_j z_l*.
_CP3 = {1: (1, 1), 2: (2, 2), 3: (3, 3), 4: (4, 4), 5: (1, 2), 6: (1, 3),
        7: (1, 4), 8: (3, 4), 9: (2, 4), 10: (2, 3)}
_CP3_INDEX = {jl: idx for idx, jl in _CP3.items()}


def cp3_gen(name):
    conj = name.endswith("*")
    index = next(i for i, n in CP3_NAMES.items() if n == name.rstrip("*"))
    return GeneratorId(CP3, index, conj)


def c4_ring():
    gens = ClassicalModel().generators(C4, calculus=False)
    return RelationSystem(gens, {})


def s4_ring():
    """The four-sphere coordinates with the inverse of 1 + x0 adjoined."""
    gens = [X0, X1, X1S, X2, X2S, X0_INV]
    return RelationSystem(gens, {})


def r4_ring():
    """The plane coordinates with the inverse of 1 + |zeta|^2 adjoined."""
    gens = list(ClassicalModel().generators(R4, calculus=False)) + [R4_INV]
    return RelationSystem(gens, {})


def word(*gens):
    return NCPolynomial.from_word(tuple(gens))


def sphere_relation_c4() -> NCPolynomial:
    """z1* z1 + z2* z2 + z3* z3 + z4* z4 - 1."""
    p = NCPolynomial.one(-1.0)
    for j in range(1, 5):
        p = p + word(z(j), z(j, True))
    return p


def s7_context() -> QuotientContext:
    return QuotientContext(c4_ring(), [sphere_relation_c4()])


def x_images_in_c4() -> dict:
    """The four-sphere generators as quadratic expressions in z, z*."""
    x1 = (word(z(1), z(3, True)) + word(z(2, True), z(4))).scale(2.0)
    x2 = (word(z(2), z(3, True)) - word(z(1, True), z(4))).scale(2.0)
    x0 = (word(z(1), z(1, True)) + word(z(2), z(2, True))
          - word(z(3), z(3, True)) - word(z(4), z(4, True)))
    return {X1: x1, X2: x2, X0: x0,
            X1S: (word(z(1, True), z(3)) + word(z(2), z(4, True))).scale(2.0),
            X2S: (word(z(2, True), z(3)) - word(z(1), z(4, True))).scale(2.0)}


def cp3_z_image(g: GeneratorId) -> NCPolynomial:
    if g.space != CP3 or g.index not in _CP3:
        raise UnknownGenerator(f"{g} is not a projective-space generator")
    j, l = _CP3[g.index]
    if g.conjugated:
        return word(z(l), z(j, True))
    return word(z(j), z(l, True))


def substitute(p: NCPolynomial, images: dict, target_rel) -> NCPolynomial:
    """Apply an algebra map defined by generator images."""
    out = NCPolynomial.zero()
    for (w, h, m), v in p.terms.items():
        acc = NCPolynomial.from_word((), Coefficient(v, h, m))
        for g in w:
            acc = multiply(acc, images[g], target_rel)
        out = out + acc
    return out


# -- quaternionic structure ----------------------------------------------------

# J(z_j) = sign * letter; the one hand-written table of J
_J_C4 = {1: (-1.0, z(2, True)), 2: (1.0, z(1, True)),
         3: (-1.0, z(4, True)), 4: (1.0, z(3, True))}


def j_image(g: GeneratorId):
    """J on one generator: returns ``(sign, GeneratorId)``.

    J is a *-anti-algebra map, so if J(z_j) = s_j z_p(j)* (``_J_C4``), then
    J(q_jl) = J(z_l*) J(z_j) = s_j s_l q_p(l)p(j), and a starred letter
    maps to the star of the image of its letter.
    """
    if g.space == C4:
        sign, base = _J_C4[g.index]
        out = base if not g.conjugated else base.star()
        if g.grade:
            out = out.d()
        return sign, out
    if g.space == CP3 and g.index in _CP3:
        j, l = _CP3[g.index]
        (s_j, zj), (s_l, zl) = _J_C4[j], _J_C4[l]
        pair = (zl.index, zj.index)
        flip = pair not in _CP3_INDEX
        index = _CP3_INDEX[pair[::-1] if flip else pair]
        return s_j * s_l, GeneratorId(CP3, index, flip != g.conjugated)
    raise UnknownGenerator(f"J is not defined on {g}")


def apply_J(p: NCPolynomial) -> NCPolynomial:
    """Linear *-anti-algebra extension of the quaternionic generator table."""
    out = NCPolynomial.zero()
    for (w, h, m), v in p.terms.items():
        sign = 1.0
        letters = []
        for g in reversed(w):
            s, img = j_image(g)
            sign *= s
            letters.append(img)
        nf = classical_normal_form_word(tuple(letters))
        if nf is None:
            continue
        s2, nw = nf
        out = out + NCPolynomial.from_word(nw, Coefficient(sign * s2 * v, h, m))
    return out


# -- the four embedding checks -------------------------------------------------

def _check_sphere_inclusion() -> Check:
    """x-images satisfy the four-sphere relation modulo the S^7 relation."""
    ctx = s7_context()
    images = x_images_in_c4()
    p = (multiply(images[X1S], images[X1], ctx.rel)
         + multiply(images[X2S], images[X2], ctx.rel)
         + multiply(images[X0], images[X0], ctx.rel)
         - NCPolynomial.one())
    res = ctx.reduce(p).eval_norm()
    return Check("s4_in_s7", res <= RESIDUAL_TOL, res, RESIDUAL_TOL)


def _fibration_images() -> dict:
    """S^4 generators inside the projective twistor algebra."""
    return {
        X0: (word(cp3_gen("a1")) + word(cp3_gen("a2"))
             - NCPolynomial.one()).scale(2.0),
        X1: (word(cp3_gen("u2")) + word(cp3_gen("v2*"))).scale(2.0),
        X2: (word(cp3_gen("v3")) - word(cp3_gen("u3*"))).scale(2.0),
    }


def _check_fibration_j_fixed() -> Check:
    """The fibration images are fixed by the quaternionic involution."""
    res = 0.0
    for img in _fibration_images().values():
        res = max(res, (apply_J(img) - img).eval_norm())
    return Check("fibration_j_fixed", res <= RESIDUAL_TOL, res, RESIDUAL_TOL)


def _check_stereographic() -> Check:
    """chart and its inverse compose to the identity on generators."""
    s4 = s4_ring()
    r4 = r4_ring()

    qmod = NCPolynomial.one() + word(zeta(1, True), zeta(1)) \
        + word(zeta(2, True), zeta(2))
    r4_ctx = QuotientContext(r4, [
        multiply(word(R4_INV), qmod, r4) - NCPolynomial.one()])

    sphere_x = (word(X1S, X1) + word(X2S, X2) + word(X0, X0)
                - NCPolynomial.one())
    s4_ctx = QuotientContext(s4, [
        sphere_x,
        multiply(word(X0_INV), NCPolynomial.one() + word(X0), s4)
        - NCPolynomial.one()])

    w = word(R4_INV)
    chart = {
        X1: multiply(word(zeta(1)), w, r4).scale(2.0),
        X1S: multiply(word(zeta(1, True)), w, r4).scale(2.0),
        X2: multiply(word(zeta(2)), w, r4).scale(2.0),
        X2S: multiply(word(zeta(2, True)), w, r4).scale(2.0),
        X0: multiply(NCPolynomial.one() - word(zeta(1, True), zeta(1))
                     - word(zeta(2, True), zeta(2)), w, r4),
        X0_INV: qmod.scale(0.5),
    }
    u = word(X0_INV)
    chart_inv = {
        zeta(1): multiply(word(X1), u, s4),
        zeta(1, True): multiply(word(X1S), u, s4),
        zeta(2): multiply(word(X2), u, s4),
        zeta(2, True): multiply(word(X2S), u, s4),
        R4_INV: (NCPolynomial.one() + word(X0)).scale(0.5),
    }

    res = 0.0
    # map well-definedness: images of the defining relations vanish
    res = max(res, r4_ctx.reduce(substitute(sphere_x, chart, r4)).eval_norm())
    res = max(res, r4_ctx.reduce(substitute(
        multiply(word(X0_INV), NCPolynomial.one() + word(X0), s4), chart, r4)
        - NCPolynomial.one()).eval_norm())
    res = max(res, s4_ctx.reduce(substitute(
        multiply(word(R4_INV), qmod, r4), chart_inv, s4)
        - NCPolynomial.one()).eval_norm())
    # round trips on generators
    for g in (zeta(1), zeta(2), zeta(1, True), zeta(2, True)):
        back = substitute(substitute(word(g), chart_inv, s4), chart, r4)
        res = max(res, r4_ctx.reduce(back - word(g)).eval_norm())
    for g in (X0, X1, X2, X1S, X2S):
        back = substitute(substitute(word(g), chart, r4), chart_inv, s4)
        res = max(res, s4_ctx.reduce(back - word(g)).eval_norm())
    return Check("stereographic_inverses", res <= RESIDUAL_TOL, res,
                 RESIDUAL_TOL)


def _check_localised_trivialisation() -> Check:
    """The localised twistor algebra splits as plane times projective line.

    Verified through the z-representation q_jl = z_j z_l* modulo the sphere
    relation: (a) the trace relation pulls back to the statement that the
    image of 1 + |zeta|^2 inverts a1 + a2, (b) the projective-line
    determinant relation is preserved, (c) the rank-one projector relations
    hold.
    """
    ctx = s7_context()
    rel = ctx.rel

    def zimg(name):
        return cp3_z_image(cp3_gen(name))

    res = 0.0
    # (a) (u2* + v2)(u2 + v2*) + (v3* - u3)(v3 - u3*) = (a1 + a2)(1 - a1 - a2)
    lhs = multiply(zimg("u2*") + zimg("v2"), zimg("u2") + zimg("v2*"), rel) \
        + multiply(zimg("v3*") - zimg("u3"), zimg("v3") - zimg("u3*"), rel)
    rho = zimg("a1") + zimg("a2")
    rhs = multiply(rho, NCPolynomial.one() - rho, rel)
    res = max(res, ctx.reduce(lhs - rhs).eval_norm())
    # (b) a1 a2 = u1* u1
    res = max(res, ctx.reduce(multiply(zimg("a1"), zimg("a2"), rel)
                              - multiply(zimg("u1*"), zimg("u1"), rel))
              .eval_norm())
    # (c) sum_r q_jr q_rl = q_jl for all j, l
    for j in range(1, 5):
        for l in range(1, 5):
            q_jl = word(z(j), z(l, True))
            s = NCPolynomial.zero()
            for r in range(1, 5):
                s = s + multiply(word(z(j), z(r, True)),
                                 word(z(r), z(l, True)), rel)
            res = max(res, ctx.reduce(s - q_jl).eval_norm())
    return Check("localised_trivialisation", res <= RESIDUAL_TOL, res,
                 RESIDUAL_TOL)


def verify_embeddings() -> Report:
    """Run the four symbolic twistor-fibration checks."""
    return Report([
        _check_sphere_inclusion(),
        _check_fibration_j_fixed(),
        _check_stereographic(),
        _check_localised_trivialisation(),
    ])


def j_squared_residual() -> float:
    """Defect of J^2 = -id on the plane generators and J^2 = +id upstairs."""
    res = 0.0
    for j in range(1, 5):
        for conj in (False, True):
            g = z(j, conj)
            res = max(res, (apply_J(apply_J(word(g))) + word(g)).eval_norm())
    for index in _CP3:
        g = GeneratorId(CP3, index)
        res = max(res, (apply_J(apply_J(word(g))) - word(g)).eval_norm())
    return res


def j_weight_residual() -> int:
    """Check that J intertwines the torus coaction (weight bookkeeping)."""
    model = ToricModel(0.25)  # the weights do not depend on theta
    bad = 0
    for j in range(1, 5):
        for conj in (False, True):
            g = z(j, conj)
            (_, wg, _), = model.coaction(g)
            sign, img = j_image(g)
            (_, wimg, _), = model.coaction(img)
            if wg.exps != wimg.exps:
                bad += 1
    return bad


def j_moyal_coaction_residual() -> float:
    """Check (id (x) J) Delta = Delta J on the plane generators (translations)."""
    model = MoyalModel(0.1, 1.0, 2.0)  # the coaction does not read these
    worst = 0.0
    for j in range(1, 5):
        for conj in (False, True):
            g = z(j, conj)
            sign, img = j_image(g)
            lhs = {}
            for c, hm, x in model.coaction(g):
                s, xi = j_image(x)
                lhs[(hm, xi)] = lhs.get((hm, xi), 0.0) + c * s
            rhs = {}
            for c, hm, x in model.coaction(img):
                rhs[(hm, x)] = rhs.get((hm, x), 0.0) + c * sign
            keys = set(lhs) | set(rhs)
            worst = max(worst, max(abs(lhs.get(k, 0.0) - rhs.get(k, 0.0))
                                   for k in keys))
    return worst
