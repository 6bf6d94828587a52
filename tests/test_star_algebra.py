import copy
import dataclasses
import functools
import itertools
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncadhm import star_algebra
from ncadhm.star_algebra import (
    Coefficient, GeneratorId, NCPolynomial, NonTerminating, RelationSystem,
    MissingCalculus, UnknownGenerator, adjoint, associativity_residual,
    commutator_norms, differential, multiply, normal_form, reduce_modulo,
    star_closure_residual, sum_of_products, AUX, C4, CP3, HOPF_TORUS,
    HOPF_TRANS, MONAD_M, R4, S4, TOL, _FREE, _reduce_coded, _reduce_terms,
)
from ncadhm.hopf_twist import (
    ClassicalModel, MoyalModel, ToricModel, derive_relations,
    smash_relations, z, zeta,
)
from ncadhm.instanton import RHO2_INV
from ncadhm.monad import (
    ADHMData, PolyMatrix, adhm_residual, bosonise_monad, build_monad,
    tilde_generator_polys,
)

HBAR, ALPHA, BETA = 0.1, 1.0, 2.0


@pytest.fixture(scope="module")
def moyal_c4():
    return derive_relations(MoyalModel(HBAR, ALPHA, BETA), C4)


@pytest.fixture(scope="module")
def toric_c4():
    return derive_relations(ToricModel(0.25), C4)


@pytest.fixture(scope="module")
def moyal_r4():
    return derive_relations(MoyalModel(HBAR, ALPHA, BETA), "R4")


def word(*gens):
    return NCPolynomial.from_word(tuple(gens))


def test_normal_form_spec_examples(moyal_c4, toric_c4):
    # z4 z3 under the translation twist
    p = normal_form(word(z(4), z(3)), moyal_c4)
    assert p.coefficient((z(3), z(4))).approx_eq(Coefficient(1.0))
    expected = Coefficient(-1j * HBAR * (ALPHA + BETA), hbar=1)
    assert p.coefficient((z(1), z(2)), hbar=1).approx_eq(expected)

    # commutative limit
    rel0 = derive_relations(ToricModel(0.0), "R4")
    q = normal_form(word(zeta(2), zeta(1)), rel0)
    assert q.coefficient((zeta(1), zeta(2))).approx_eq(Coefficient(1.0))
    assert len(q.terms) == 1

    # torus phase: zeta2 zeta1 -> conj(lambda) zeta1 zeta2
    relt = derive_relations(ToricModel(0.25), "R4")
    q = normal_form(word(zeta(2), zeta(1)), relt)
    assert q.coefficient((zeta(1), zeta(2)), mu2=-4).approx_eq(
        Coefficient(1.0, mu2=-4))
    assert len(q.terms) == 1


def test_multiply_central_generator(moyal_c4):
    p = multiply(word(z(1)), word(z(3)), moyal_c4)
    assert p.coefficient((z(1), z(3))).approx_eq(Coefficient(1.0))
    assert len(p.terms) == 1
    # and the reordered product agrees: z1 is central
    q = multiply(word(z(3)), word(z(1)), moyal_c4)
    assert (p - q).eval_norm() < 1e-14


def test_multiply_conjugate_pair(moyal_c4):
    p = multiply(word(z(3, True)), word(z(3)), moyal_c4)
    assert p.coefficient((z(3), z(3, True))).approx_eq(Coefficient(1.0))
    assert p.coefficient((z(1), z(1, True)), hbar=1).approx_eq(
        Coefficient(-1j * HBAR * ALPHA, 1))
    assert p.coefficient((z(2), z(2, True)), hbar=1).approx_eq(
        Coefficient(1j * HBAR * BETA, 1))


def _oracle_normal_form(p, rel, rng):
    """Exhaustive rule application at randomly chosen positions."""
    terms = {k: v for k, v in p.terms.items()}
    for _ in range(100000):
        hit = None
        for (w, h, m), v in terms.items():
            spots = []
            for i in range(len(w) - 1):
                a, b = w[i], w[i + 1]
                if (a, b) in rel.rules or (a == b and a.grade) or \
                        a.sort_key > b.sort_key:
                    spots.append(i)
            if spots:
                hit = ((w, h, m), v, spots[int(rng.integers(0, len(spots)))])
                break
        if hit is None:
            return NCPolynomial(terms)
        (w, h, m), v, i = hit
        del terms[(w, h, m)]
        pair = w[i:i + 2]
        if pair in rel.rules:
            repl = rel.rules[pair]
        elif pair[0] == pair[1] and pair[0].grade:
            repl = ()
        else:
            sign = -1.0 if (pair[0].grade and pair[1].grade) else 1.0
            repl = (((pair[1], pair[0]), Coefficient(sign)),)
        for u, c in repl:
            key = (w[:i] + u + w[i + 2:], h + c.hbar, m + c.mu2)
            nv = terms.get(key, 0.0) + v * c.value
            if abs(nv) <= 1e-14:
                terms.pop(key, None)
            else:
                terms[key] = nv
    raise AssertionError("oracle did not terminate")


@pytest.mark.parametrize("relname", ["moyal_c4", "toric_c4"])
def test_associativity_against_oracle(relname, request):
    rel = request.getfixturevalue(relname)
    rng = np.random.default_rng(42)
    gens = [g for g in rel.generators if g.grade == 0]
    for _ in range(100):
        def rand_word():
            d = int(rng.integers(1, 4))
            return tuple(gens[int(rng.integers(0, len(gens)))]
                         for _ in range(d))
        a, b, c = (NCPolynomial.from_word(rand_word()) for _ in range(3))
        lhs = multiply(multiply(a, b, rel), c, rel)
        rhs = multiply(a, multiply(b, c, rel), rel)
        assert (lhs - rhs).eval_norm(rel.theta) < 1e-12
        # engine normal form agrees with randomized-order exhaustive oracle
        raw = NCPolynomial({(a_w + b_w + c_w, ha + hb + hc, ma + mb + mc):
                            va * vb * vc
                            for (a_w, ha, ma), va in a.terms.items()
                            for (b_w, hb, mb), vb in b.terms.items()
                            for (c_w, hc, mc), vc in c.terms.items()})
        assert (_oracle_normal_form(raw, rel, rng) - lhs).eval_norm(
            rel.theta) < 1e-12


def test_normal_form_idempotent(moyal_c4):
    rng = np.random.default_rng(3)
    gens = [g for g in moyal_c4.generators]
    for _ in range(20):
        w = tuple(gens[int(rng.integers(0, len(gens)))] for _ in range(4))
        p = normal_form(NCPolynomial.from_word(w), moyal_c4)
        assert ((normal_form(p, moyal_c4)) - p).eval_norm() < 1e-14


def test_adjoint(moyal_c4):
    # (z3 z4)* = normal_form(z4* z3*)
    p = adjoint(word(z(3), z(4)), moyal_c4)
    q = normal_form(word(z(4, True), z(3, True)), moyal_c4)
    assert (p - q).eval_norm() < 1e-14

    # involution on random polynomials
    rng = np.random.default_rng(5)
    gens = [g for g in moyal_c4.generators if g.grade == 0]
    for _ in range(20):
        w = tuple(gens[int(rng.integers(0, len(gens)))] for _ in range(3))
        c = complex(rng.standard_normal(), rng.standard_normal())
        p = normal_form(NCPolynomial.from_word(w, c), moyal_c4)
        assert (adjoint(adjoint(p, moyal_c4), moyal_c4) - p).eval_norm() < 1e-12

    # anti-homomorphism
    for _ in range(10):
        wa = tuple(gens[int(rng.integers(0, len(gens)))] for _ in range(2))
        wb = tuple(gens[int(rng.integers(0, len(gens)))] for _ in range(2))
        a, b = NCPolynomial.from_word(wa), NCPolynomial.from_word(wb)
        lhs = adjoint(multiply(a, b, moyal_c4), moyal_c4)
        rhs = multiply(adjoint(b, moyal_c4), adjoint(a, moyal_c4), moyal_c4)
        assert (lhs - rhs).eval_norm() < 1e-12


def test_coefficient_conjugation_rule():
    c = Coefficient(2 + 1j, mu2=2)
    cc = c.conj()
    assert cc.value == 2 - 1j and cc.mu2 == -2
    # anti-real hbar: conjugation flips the sign of odd hbar powers
    c = Coefficient(2 + 1j, hbar=1)
    assert c.conj().value == -(2 - 1j)
    # mu mu-bar = 1
    assert (c.conj().conj()).approx_eq(c)


def test_differential_leibniz(moyal_c4):
    p = differential(word(z(3), z(4)), moyal_c4)
    expected = (normal_form(word(z(3).d(), z(4)), moyal_c4)
                + normal_form(word(z(3), z(4).d()), moyal_c4))
    assert (p - expected).eval_norm() < 1e-14


def test_differential_two_form_relation(moyal_c4):
    # dz4 ^ dz3 reorders with the correction forced by the cocycle values:
    # {dz3, dz4} = i hbar (alpha - beta) dz1 dz2
    p = normal_form(word(z(4).d(), z(3).d()), moyal_c4)
    assert p.coefficient((z(3).d(), z(4).d())).approx_eq(Coefficient(-1.0))
    assert p.coefficient((z(1).d(), z(2).d()), hbar=1).approx_eq(
        Coefficient(1j * HBAR * (ALPHA - BETA), 1))


def test_d_squared_zero(moyal_c4):
    rng = np.random.default_rng(9)
    gens = [g for g in moyal_c4.generators if g.grade == 0]
    for _ in range(20):
        w = tuple(gens[int(rng.integers(0, len(gens)))] for _ in range(3))
        p = NCPolynomial.from_word(w)
        dd = differential(differential(p, moyal_c4), moyal_c4)
        assert dd.eval_norm() < 1e-12


def test_differential_requires_calculus():
    rel = derive_relations(MoyalModel(HBAR, ALPHA, BETA), C4, calculus=False)
    with pytest.raises(MissingCalculus):
        differential(word(z(3)), rel)


def test_unknown_generator(moyal_c4):
    with pytest.raises(UnknownGenerator):
        normal_form(word(zeta(1)), moyal_c4)


@pytest.mark.parametrize("op", [
    lambda p, rel: multiply(word(z(1)), p, rel),
    lambda p, rel: multiply(p, word(z(1)), rel),
    normal_form,
    adjoint,
    differential,
    lambda p, rel: sum_of_products([(word(z(1)), word(z(2))),
                                    (p, word(z(1)))], rel),
], ids=["multiply-right", "multiply-left", "normal_form", "adjoint",
        "differential", "sum_of_products"])
def test_every_entry_point_rejects_an_outside_letter(op, moyal_c4):
    # the system's letter codes are built once and read on every call
    for _ in range(2):
        with pytest.raises(UnknownGenerator, match="zeta1 not in relation"):
            op(word(z(3), zeta(1)), moyal_c4)
    assert not op(word(z(4), z(3)), moyal_c4).is_structurally_zero()


def test_a_rule_that_writes_an_outside_letter_is_refused():
    a, b = z(1), z(2)
    rel = RelationSystem([a, b], {(b, a): (((a, zeta(1)), Coefficient(1.0)),
                                           ((a, b), Coefficient(2.0)))})
    # words that never reach the rule reduce as before
    assert normal_form(word(a, b, b), rel).terms == {((a, b, b), 0, 0): 1.0}
    for _ in range(2):  # refused each time the rule is used, not kept
        with pytest.raises(UnknownGenerator, match=r"z2\*z1 .*zeta1"):
            normal_form(word(a, b, a), rel)
        with pytest.raises(UnknownGenerator, match=r"z2\*z1 .*zeta1"):
            multiply(word(b), word(a), rel)


def test_duplicate_generators_check_the_same(moyal_c4):
    gens = list(moyal_c4.generators)
    doubled = RelationSystem(gens + gens[::-1] + [GeneratorId(C4, 3)],
                             moyal_c4.rules, theta=moyal_c4.theta)
    assert doubled.generators == moyal_c4.generators
    assert doubled.generator_set == moyal_c4.generator_set
    for g in gens:
        assert (adjoint(word(g), doubled).terms
                == adjoint(word(g), moyal_c4).terms)
    p = word(z(4), z(3), z(1, True))
    assert normal_form(p, doubled).terms == normal_form(p, moyal_c4).terms
    with pytest.raises(UnknownGenerator):
        normal_form(word(zeta(2)), doubled)


_SPACES = (AUX, C4, R4, S4, CP3, MONAD_M, HOPF_TRANS, HOPF_TORUS)


def _all_letters():
    """Letters of every space, both grades and conjugations, several slots."""
    return [GeneratorId(*fields) for fields in itertools.product(
        _SPACES, (-1, 1, 3), (False, True), (0, 1), (0, 2), (0, 1))]


def _fields(g):
    return (g.space, g.index, g.conjugated, g.grade, g.row, g.col)


def test_letter_hash_is_the_field_tuple_hash():
    for g in _all_letters():
        assert hash(g) == hash(_fields(g))


def test_separately_built_letters_are_one_key():
    letters = _all_letters()
    twins = _all_letters()
    assert len(set(letters)) == len(letters)
    assert len(set(letters) | set(twins)) == len(letters)
    table = {g: i for i, g in enumerate(letters)}
    for i, (g, twin) in enumerate(zip(letters, twins)):
        assert g is not twin and g == twin and not g != twin
        assert table[twin] == i
    # rule keys are pairs of letters built apart from the words they rewrite
    a, b = GeneratorId(C4, 2), GeneratorId(C4, 1)
    rules = {(a, b): (((GeneratorId(C4, 1), GeneratorId(C4, 2)),
                       Coefficient(2.0)),)}
    assert (GeneratorId(C4, 2), GeneratorId(C4, 1)) in rules
    rel = RelationSystem([a, b], rules)
    p = normal_form(word(GeneratorId(C4, 2), GeneratorId(C4, 1)), rel)
    assert p.terms == {((b, a), 0, 0): 2.0}


def test_letter_never_equals_another_type():
    g = z(1)
    assert g != "z1"
    assert g != _fields(g)
    assert not g == _fields(g)
    assert g.__eq__(_fields(g)) is NotImplemented
    assert g != z(1, conj=True) and g != z(1, grade=1)


def test_copies_keep_equality_and_hash():
    for g in _all_letters()[::7]:
        pickled = pickle.dumps(g)
        # str hashes differ between interpreters: a pickle carries the
        # fields, and the loaded letter hashes them again
        assert b"_hash" not in pickled
        for c in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickled)):
            assert c == g and hash(c) == hash(g) == hash(_fields(c))
            assert c.sort_key == g.sort_key


def test_letters_stay_frozen():
    g = z(1)
    for name, value in (("index", 2), ("grade", 1), ("_hash", 0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(g, name, value)
    assert hash(g) == hash(_fields(g)) and g.index == 1


def _clock_shift_images(theta_p, theta_q, a, b, c, d):
    """Matrices of size 2q obeying the torus C4 rules at theta = p/q.

    With omega = exp(i pi theta), clock C e_j = omega^j e_j and shift
    S e_j = e_{j+1} satisfy S C^-1 = omega C^-1 S, so z1 -> a C^-1,
    z2 -> b C, z3 -> c S, z4 -> d S^-1 (and z* -> adjoint) satisfy
    z3 z1 = mu z1 z3 with mu = omega, and the rest of the derived rules.
    """
    n = 2 * theta_q
    omega = np.exp(1j * np.pi * theta_p / theta_q)
    clock = np.diag(omega ** np.arange(n))
    shift = np.roll(np.eye(n), 1, axis=0)
    images = {z(1): a * clock.conj().T, z(2): b * clock,
              z(3): c * shift, z(4): d * shift.T}
    for j in range(1, 5):
        images[z(j, conj=True)] = images[z(j)].conj().T
    return images


def _random_normal_forms(rel, seed):
    """200 random words of 1 to 6 letters, each with its normal form."""
    rng = np.random.default_rng(seed)
    gens = list(rel.generators)
    for _ in range(200):
        w = tuple(gens[i] for i in rng.integers(0, len(gens),
                                                 int(rng.integers(1, 7))))
        yield w, normal_form(NCPolynomial.from_word(w), rel)


def _check_against_matrices(rel, images, theta, seed):
    """Normal ordering must not change the matrix a word represents."""
    n = len(next(iter(images.values())))

    def image(w):
        out = np.eye(n, dtype=complex)
        for g in w:
            out = out @ images[g]
        return out

    def total(terms):
        out = np.zeros((n, n), dtype=complex)
        for u, c in terms:
            out += c.evaluate(theta) * image(u)
        return out

    for (a, b), rhs in rel.rules.items():  # the derived rules hold
        assert np.abs(image((a, b)) - total(rhs)).max() <= 1e-12
    for w, nf in _random_normal_forms(rel, seed):
        got = total((u, Coefficient(v, h, m))
                    for (u, h, m), v in nf.terms.items())
        assert np.abs(got - image(w)).max() <= 1e-12


@pytest.mark.parametrize("theta_p, theta_q", [(1, 4), (2, 5)])
def test_torus_normal_form_against_clock_shift_matrices(theta_p, theta_q):
    # an oracle independent of the rewrite engine: normal ordering must not
    # change the matrix a word represents
    theta = theta_p / theta_q
    rel = derive_relations(ToricModel(theta), C4, calculus=False)
    images = _clock_shift_images(theta_p, theta_q, 0.8 + 0.3j, -0.5 + 0.9j,
                                 1.1 - 0.2j, 0.3 + 0.7j)
    _check_against_matrices(rel, images, theta, seed=7)


@pytest.mark.parametrize("theta_p, theta_q", [(1, 4), (2, 5)])
def test_torus_r4_normal_form_against_clock_shift_matrices(theta_p, theta_q):
    # with the clock C and shift S above, zeta1 -> a C^2 and zeta2 -> b S
    # obey zeta2 zeta1 = mu^-2 zeta1 zeta2, and each commutes with its
    # adjoint
    theta = theta_p / theta_q
    rel = derive_relations(ToricModel(theta), R4, calculus=False)
    c4 = _clock_shift_images(theta_p, theta_q, 1.0, 1.0, 1.0, 1.0)
    clock, shift = c4[z(2)], c4[z(3)]
    images = {zeta(1): (-0.5 + 0.9j) * clock @ clock,
              zeta(2): (1.1 - 0.2j) * shift}
    for j in (1, 2):
        images[zeta(j, True)] = images[zeta(j)].conj().T
    _check_against_matrices(rel, images, theta, seed=17)


def _moyal_images(rel, scalars):
    """Polynomial images of the Moyal letters, and the image of a word.

    The letters of ``scalars`` are central under the derived rules, so they
    go to those fixed complex numbers.  The commutators among the other
    four letters (z3, z3*, z4 and z4* in C4, the zetas in R4) are then
    constants Theta, read off the rules.  Those four letters go to the
    coordinates x_0..x_3 of four commuting variables with the Moyal
    product of the constant bivector Theta; for a polynomial f,
    f * x_j = f x_j + 1/2 sum_i Theta[i, j] d_i f exactly.
    """
    letters = [g for g in rel.generators if g not in scalars]
    assert len(letters) == 4
    slot = {g: i for i, g in enumerate(letters)}
    theta = np.zeros((4, 4), dtype=complex)
    for (a, b), rhs in rel.rules.items():
        swapped = [c for u, c in rhs if u == (b, a)]
        assert swapped == [Coefficient(1.0)]
        const = 0.0
        for u, c in rhs:
            if u != (b, a):
                assert set(u) <= set(scalars)  # a central correction
                const += c.evaluate() * np.prod([scalars[g] for g in u])
        theta[slot[a], slot[b]], theta[slot[b], slot[a]] = const, -const
    # each rule, antisymmetrised
    assert np.count_nonzero(theta) == 2 * len(rel.rules)

    def image(w):
        f = {(0, 0, 0, 0): 1.0 + 0j}
        for g in w:
            if g in scalars:
                f = {e: c * scalars[g] for e, c in f.items()}
                continue
            j, out = slot[g], {}
            for e, c in f.items():
                up = e[:j] + (e[j] + 1,) + e[j + 1:]
                out[up] = out.get(up, 0.0) + c
                for i in range(4):
                    if e[i] and theta[i, j]:
                        down = e[:i] + (e[i] - 1,) + e[i + 1:]
                        out[down] = (out.get(down, 0.0)
                                     + 0.5 * theta[i, j] * e[i] * c)
            f = out
        return f

    return image


def _check_against_moyal_product(rel, image, seed):
    """Normal ordering must not change the polynomial a word represents,
    and it must end in words that no rule rewrites."""
    for w, nf in _random_normal_forms(rel, seed):
        total = {}
        for (u, h, m), v in nf.terms.items():
            assert all((x, y) not in rel.rules and x.sort_key <= y.sort_key
                       for x, y in zip(u, u[1:]))
            c = Coefficient(v, h, m).evaluate()
            for e, x in image(u).items():
                total[e] = total.get(e, 0.0) + c * x
        want = image(w)
        assert max(abs(total.get(e, 0.0) - want.get(e, 0.0))
                   for e in set(total) | set(want)) <= 1e-12


@pytest.mark.parametrize("hbar, alpha, beta", [(HBAR, ALPHA, BETA),
                                               (0.25, 1.0, 0.5)])
def test_moyal_normal_form_against_moyal_product(hbar, alpha, beta):
    # an oracle independent of the rewrite engine
    rel = derive_relations(MoyalModel(hbar, alpha, beta), C4, calculus=False)
    a, b = 0.8 + 0.3j, -0.5 + 0.9j
    scalars = {z(1): a, z(1, True): a.conjugate(), z(2): b,
               z(2, True): b.conjugate()}
    _check_against_moyal_product(rel, _moyal_images(rel, scalars), seed=11)


@pytest.mark.parametrize("hbar, alpha, beta", [(HBAR, ALPHA, BETA),
                                               (0.25, 1.0, 0.5)])
def test_moyal_r4_normal_form_against_moyal_product(hbar, alpha, beta):
    # no letter of R4 is central: [zeta1*, zeta1] and [zeta2*, zeta2] are
    # the two constants of the bivector
    rel = derive_relations(MoyalModel(hbar, alpha, beta), R4, calculus=False)
    _check_against_moyal_product(rel, _moyal_images(rel, {}), seed=13)


def _reference_reduce(terms, rel, budget):
    """The rewrite loop before scans resumed and swaps ran in place, kept
    verbatim as a reference; returns the result and its step count."""
    out = {}
    stack = [(w, h, m, v) for (w, h, m), v in terms.items()]
    steps = 0
    rules = rel.rules
    while stack:
        w, h, m, v = stack.pop()
        if abs(v) <= TOL:
            continue
        n = len(w)
        hit = None
        for i in range(n - 1):
            a, b = w[i], w[i + 1]
            if (a, b) in rules:
                hit = (i, "rule")
                break
            if a == b and a.grade:
                hit = (i, "kill")
                break
            if a.sort_key > b.sort_key:
                hit = (i, "swap")
                break
        if hit is None:
            key = (w, h, m)
            nv = out.get(key, 0.0) + v
            if abs(nv) <= TOL:
                out.pop(key, None)
            else:
                out[key] = nv
            continue
        steps += 1
        if steps > budget:
            raise NonTerminating("rewrite step budget exceeded")
        i, kind = hit
        if kind == "rule":
            for u, c in rules[w[i:i + 2]]:
                stack.append((w[:i] + u + w[i + 2:], h + c.hbar, m + c.mu2,
                              v * c.value))
        elif kind == "swap":
            sign = -1.0 if (w[i].grade and w[i + 1].grade) else 1.0
            stack.append((w[:i] + (w[i + 1], w[i]) + w[i + 2:], h, m, sign * v))
        # "kill": nothing pushed
    return out, steps


def _engine_systems():
    """Every relation system the CLI builds, by name."""
    for name, model in (("moyal", MoyalModel(HBAR, ALPHA, BETA)),
                        ("toric", ToricModel(0.3))):
        for space, calculus in itertools.product((C4, R4), (True, False)):
            yield (f"{name}-{space}-calculus-{calculus}",
                   lambda m=model, s=space, c=calculus:
                       derive_relations(m, s, calculus=c))
        for k in (1, 2):
            yield (f"{name}-MonadM-k{k}",
                   lambda m=model, k=k: derive_relations(m, MONAD_M, k=k))
            yield (f"{name}-smash-k{k}",
                   lambda m=model, k=k: smash_relations(m, k=k))
        yield (f"{name}-smash-no-monad",
               lambda m=model: smash_relations(m, 0))


def _bits(v):
    return struct.pack("<dd", v.real, v.imag)


_ENGINE_SYSTEMS = dict(_engine_systems())


@pytest.mark.parametrize("system", list(_ENGINE_SYSTEMS))
def test_engine_matches_the_reference_loop(system):
    # the same terms in the same order, equal bit for bit (zero signs
    # included), and the budget runs out at the same step
    rel = _ENGINE_SYSTEMS[system]()
    gens = rel.generators
    odd = [g for g in gens if g.grade]
    rng = np.random.default_rng(5)
    # signed zeros, and an infinite part, on which a swap's float sign
    # and a plain negation differ
    values = [1.0 + 0j, complex(-1.0, -0.0), complex(0.0, -0.5),
              complex(-0.0, 2.0), complex(float("inf"), 1.0)]
    stepped = 0
    for trial in range(60):
        terms = {}
        for _ in range(int(rng.integers(1, 4))):
            w = [gens[i] for i in rng.integers(0, len(gens),
                                               int(rng.integers(1, 9)))]
            if odd and trial % 4 == 0:  # a repeated grade-1 letter dies
                g = odd[int(rng.integers(0, len(odd)))]
                w = [g, *w[:6], g]
            h, m = int(rng.integers(0, 2)), 2 * int(rng.integers(-1, 2))
            if trial % 2:
                v = complex(*rng.standard_normal(2))
            else:
                v = values[int(rng.integers(0, len(values)))]
            terms[(tuple(w), h, m)] = v
        want, steps = _reference_reduce(terms, rel, 10 ** 6)
        got = _reduce_terms(terms, rel, 10 ** 6)
        assert list(got) == list(want)
        assert [_bits(v) for v in got.values()] == \
            [_bits(v) for v in want.values()]
        for reduce in (_reference_reduce, _reduce_terms):
            reduce(terms, rel, steps)
            if steps:
                with pytest.raises(NonTerminating):
                    reduce(terms, rel, steps - 1)
        stepped += steps > 0
    assert stepped >= 40


def _reference_reduce_coded(terms, rel, budget):
    """``_reduce_coded`` before swaps bubbled in place, which built a new
    tuple for each swap and scanned on from the pair left of it, kept
    verbatim as a reference."""
    out = {}
    stack = [(w, h, m, v, 0) for (w, h, m), v in terms.items()]
    steps = 0
    actions = rel._actions
    n = len(rel.generators)
    while stack:
        w, h, m, v, i = stack.pop()
        if abs(v) <= TOL:
            continue
        last = len(w) - 1
        while i < last:
            a = w[i]
            b = w[i + 1]
            act = actions[a * n + b]
            if act is None:
                act = rel._action(a, b)
            if act is _FREE:
                i += 1
                continue
            steps += 1
            if steps > budget:
                raise NonTerminating("rewrite step budget exceeded")
            if act.__class__ is tuple:  # a rule
                j = max(i - 1, 0)
                for u, ch, cm, cv in act:
                    stack.append((w[:i] + u + w[i + 2:], h + ch, m + cm,
                                  v * cv, j))
                break
            v = act * v
            w = w[:i] + (b, a) + w[i + 2:]
            i = max(i - 1, 0)
        else:
            key = (w, h, m)
            nv = out.get(key, 0.0) + v
            if abs(nv) <= TOL:
                out.pop(key, None)
            else:
                out[key] = nv
    return out


ENGINE_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True,
                           database=None)


def _in_order_rules():
    """A hand-built system whose rules rewrite pairs in order, so a letter
    that bubbles left can stop at a rule on its right; each rule shortens
    the word, so every word terminates."""
    z1, z2, z3, z4, dz1 = z(1), z(2), z(3), z(4), z(1, grade=1)
    rules = {
        (z1, z3): (((z2,), Coefficient(0.5)), ((), Coefficient(1j, 1))),
        (z2, z4): (((z1,), Coefficient(-2.0, 0, 2)),),
        (dz1, z3): (((z4,), Coefficient(0.25j)),),
    }
    return RelationSystem([z1, z2, z3, z4, dz1, z(1, True)], rules,
                          theta=0.3)


@functools.cache
def _engine_system(name):
    if name == "in-order-rules":
        return _in_order_rules()
    return _ENGINE_SYSTEMS[name]()


@st.composite
def coded_terms(draw, rel):
    """One to three terms over words of 1 to 8 letter codes, half of them
    with a grade-1 letter at both ends (if ``rel`` has one), valued by
    signed zeros, an infinite part or small Gaussian numbers."""
    odd = [c for c, g in enumerate(rel.generators) if g.grade]
    values = st.sampled_from([
        1.0 + 0j, complex(-1.0, -0.0), complex(0.0, -0.5), complex(-0.0, 2.0),
        complex(float("inf"), 1.0)]) | st.builds(
            complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        w = draw(st.lists(st.integers(0, len(rel.generators) - 1),
                          min_size=1, max_size=8))
        if odd and draw(st.booleans()):
            c = draw(st.sampled_from(odd))
            w = [c, *w[:6], c]
        key = (tuple(w), draw(st.integers(0, 1)),
               draw(st.sampled_from((-2, 0, 2))))
        terms[key] = draw(values)
    return terms


def _steps(terms, rel):
    """The rewrite steps of the reference on ``terms``: the least budget
    at which it finishes."""
    def finishes(budget):
        try:
            _reference_reduce_coded(terms, rel, budget)
        except NonTerminating:
            return False
        return True

    hi = 1
    while not finishes(hi):
        hi *= 2
    lo = -1  # finishes(lo) is False, or lo is -1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if finishes(mid) else (mid, hi)
    return hi


@pytest.mark.parametrize("system", [*_ENGINE_SYSTEMS, "in-order-rules"])
@ENGINE_SETTINGS
@given(data=st.data())
def test_engine_matches_the_coded_reference(system, data):
    # the same keys in the same order, equal bit for bit (zero signs
    # included), and NonTerminating at the same tight budget
    rel = _engine_system(system)
    terms = data.draw(coded_terms(rel))
    want = _reference_reduce_coded(terms, rel, 10 ** 6)
    got = _reduce_coded(terms, rel, 10 ** 6)
    assert list(got) == list(want)
    assert [_bits(v) for v in got.values()] == \
        [_bits(v) for v in want.values()]
    steps = _steps(terms, rel)
    _reduce_coded(terms, rel, steps)
    if steps:
        with pytest.raises(NonTerminating):
            _reduce_coded(terms, rel, steps - 1)


def _reference_multiply(a, b, rel):
    """``multiply`` on letter words: the concatenated product summed term
    by term and reduced by ``_reference_reduce``."""
    prod = {}
    for (wa, ha, ma), va in a.terms.items():
        for (wb, hb, mb), vb in b.terms.items():
            key = (wa + wb, ha + hb, ma + mb)
            prod[key] = prod.get(key, 0.0) + va * vb
    return NCPolynomial(_reference_reduce(prod, rel, 10 ** 6)[0])


def _reference_matmul(x, y, rel):
    """``x.matmul(y, rel)`` as ``acc = acc + product`` in row order."""
    out = []
    for row in x.entries:
        out.append([])
        for c in range(y.shape[1]):
            acc = NCPolynomial.zero()
            for b, entry in enumerate(row):
                acc = acc + _reference_multiply(entry, y.entries[b][c], rel)
            out[-1].append(acc)
    return out


def _same_terms(got, want):
    assert list(got.terms) == list(want.terms)
    assert [_bits(v) for v in got.terms.values()] == \
        [_bits(v) for v in want.terms.values()]


def _random_poly(rel, rng):
    """One to three terms over words of up to 3 letters, valued by signed
    zeros or Gaussian numbers."""
    gens = rel.generators
    values = [1.0 + 0j, complex(-1.0, -0.0), complex(0.0, -0.5),
              complex(-0.0, 2.0)]
    terms = {}
    for _ in range(int(rng.integers(1, 4))):
        w = tuple(gens[i] for i in rng.integers(0, len(gens),
                                                int(rng.integers(0, 4))))
        h, m = int(rng.integers(0, 2)), 2 * int(rng.integers(-1, 2))
        if rng.integers(0, 2):
            v = complex(*rng.standard_normal(2))
        else:
            v = values[int(rng.integers(0, len(values)))]
        terms[(w, h, m)] = v
    return NCPolynomial(terms)


# The tilde generators of each model, whose commutators
# monad.tilde_subalgebra_check takes.
_TILDE_MODELS = {"tilde-moyal": MoyalModel(HBAR, ALPHA, BETA),
                 "tilde-toric": ToricModel(0.3),
                 "tilde-classical": ClassicalModel()}


@pytest.mark.parametrize("system", list(_ENGINE_SYSTEMS) + list(_TILDE_MODELS))
def test_commutator_norms_match_the_decoded_difference(system):
    # the norm of multiply(x, y) - multiply(y, x), bit for bit; y = c x
    # makes the two products cancel to rounding, which __sub__ prunes.  The
    # tilde generators meet those before them, as tilde_subalgebra_check
    # takes them.
    if system in _TILDE_MODELS:
        tilde, rel = tilde_generator_polys(_TILDE_MODELS[system])
        polys = [tilde[key] for key in sorted(tilde)]
        inputs = [(x, polys[:i]) for i, x in enumerate(polys)]
    else:
        rel = _ENGINE_SYSTEMS[system]()
        rng = np.random.default_rng(17)
        inputs = [(x, [_random_poly(rel, rng) for _ in range(4)]
                   + [x, x.scale(1.0 + 2.0 ** -30), x.scale(-0.3j)])
                  for x in [_random_poly(rel, rng) for _ in range(3)]]
    for x, ys in inputs:
        want = [(multiply(x, y, rel) - multiply(y, x, rel)).eval_norm(0.3)
                for y in ys]
        got = commutator_norms(x, ys, rel, 0.3)
        assert [struct.pack("<d", v) for v in got] == \
            [struct.pack("<d", v) for v in want]


def _decoded_associativity_residual(rel, rng, trials):
    """The confluence probe over decoded products, kept verbatim as a
    reference."""
    worst = 0.0
    for _ in range(trials):
        a = star_algebra._random_poly(rel, rng)
        b = star_algebra._random_poly(rel, rng)
        c = star_algebra._random_poly(rel, rng)
        lhs = multiply(multiply(a, b, rel), c, rel)
        rhs = multiply(a, multiply(b, c, rel), rel)
        worst = max(worst, (lhs - rhs).eval_norm(rel.theta))
    return worst


def _decoded_star_closure_residual(rel, rng, trials):
    """The star-closure probe over decoded products, kept verbatim as a
    reference."""
    worst = 0.0
    for _ in range(trials):
        a = star_algebra._random_poly(rel, rng)
        b = star_algebra._random_poly(rel, rng)
        lhs = adjoint(multiply(a, b, rel), rel)
        rhs = multiply(adjoint(b, rel), adjoint(a, rel), rel)
        worst = max(worst, (lhs - rhs).eval_norm(rel.theta))
    return worst


def _scaled_first_coefficients(rel):
    """``rel`` with the first coefficient of every rule times 1.5: a
    system on which most probes read a defect."""
    rules = {pair: ((rhs[0][0], rhs[0][1].scale(1.5)), *rhs[1:])
             if rhs else rhs for pair, rhs in rel.rules.items()}
    return RelationSystem(rel.generators, rules, theta=rel.theta)


@pytest.mark.parametrize("mutant", [False, True])
@pytest.mark.parametrize("system", list(_ENGINE_SYSTEMS))
def test_probes_match_the_decoded_reference(system, mutant):
    # the largest defect after each of the six trials of the seed of
    # hopf_twist._validate, bit for bit; every system the CLI builds reads
    # 0.0, and its mutant reads up to 345
    rel = _ENGINE_SYSTEMS[system]()
    if mutant:
        rel = _scaled_first_coefficients(rel)
    for probe, reference in (
            (associativity_residual, _decoded_associativity_residual),
            (star_closure_residual, _decoded_star_closure_residual)):
        for trials in range(1, 7):
            got = probe(rel, np.random.default_rng(12345), trials)
            want = reference(rel, np.random.default_rng(12345), trials)
            assert struct.pack("<d", got) == struct.pack("<d", want), trials


@pytest.mark.parametrize("system", list(_ENGINE_SYSTEMS))
def test_products_match_the_reference_on_letter_words(system):
    # multiply and PolyMatrix.matmul against products of letter words: the
    # same terms in the same order, equal bit for bit (zero signs included)
    rel = _ENGINE_SYSTEMS[system]()
    rng = np.random.default_rng(11)
    # negated copies make entry sums cancel, so terms leave the sum and
    # come back at its end
    pool = [_random_poly(rel, rng) for _ in range(4)]
    pool += [p.scale(-1.0) for p in pool]
    for x, y in itertools.product(pool[:4], pool[2:6]):
        _same_terms(multiply(x, y, rel), _reference_multiply(x, y, rel))
    for _ in range(3):
        x = PolyMatrix([[pool[int(i)] for i in rng.integers(0, 8, 4)]
                        for _ in range(2)])
        y = PolyMatrix([[pool[int(i)] for i in rng.integers(0, 8, 2)]
                        for _ in range(4)])
        got = x.matmul(y, rel).entries
        want = _reference_matmul(x, y, rel)
        for got_row, want_row in zip(got, want):
            for g, w in zip(got_row, want_row):
                _same_terms(g, w)


def test_classical_limit_is_sorting():
    rel = derive_relations(MoyalModel(0.0, 1.0, 1.0), C4)
    assert not rel.rules  # every pair is a default graded transposition
    rng = np.random.default_rng(1)
    gens = [g for g in rel.generators if g.grade == 0]
    for _ in range(10):
        w = tuple(gens[int(rng.integers(0, len(gens)))] for _ in range(4))
        p = normal_form(NCPolynomial.from_word(w), rel)
        (sorted_word, h, m), = p.terms
        assert list(sorted_word) == sorted(w, key=lambda g: g.sort_key)


def test_moyal_r4_calculus_undeformed(moyal_r4):
    # all grade-mixing rules coincide with the classical ones: the only
    # stored rules are the two function-sector commutators
    assert set(moyal_r4.rules) == {(zeta(1, True), zeta(1)),
                                   (zeta(2, True), zeta(2))}
    p = normal_form(word(zeta(1, True), zeta(1)), moyal_r4)
    assert p.coefficient((), hbar=1).approx_eq(Coefficient(1j * HBAR * ALPHA, 1))


def test_nonterminating_budget(monkeypatch):
    g1, g2 = z(1), z(2)
    bad = RelationSystem(
        [g1, g2],
        {(g1, g2): (((g2, g1), Coefficient(1.0)),),
         (g2, g1): (((g1, g2), Coefficient(1.0)),)})
    monkeypatch.setattr(star_algebra, "STEP_BUDGET", 100)
    with pytest.raises(NonTerminating):
        normal_form(word(g2, g1), bad)


def test_json_rendering(moyal_c4):
    p = normal_form(word(z(4), z(3)), moyal_c4)
    d = p.to_json_dict()
    assert set(d) == {"terms"}
    for t in d["terms"]:
        assert set(t) == {"word", "re", "im", "hbar_pow", "mu_pow"}
    # canonical text deterministic
    assert p.canonical_text() == p.canonical_text()


def test_canonical_text_golden(moyal_c4):
    # frozen renderings; the term order is degree, then lexicographic
    p = normal_form(word(z(4), z(3)), moyal_c4)
    assert p.canonical_text() == "(0-0.3j)*hbar^1*z1*z2 + (1+0j)*z3*z4"
    relt = derive_relations(ToricModel(0.25), C4, calculus=False)
    q = normal_form(word(z(3), z(1)), relt)
    assert q.canonical_text() == "(1+0j)*mu^1*z1*z3"


def test_reduce_modulo_budget(monkeypatch):
    # x^6 modulo x^2 - 1 needs three divisions
    x = z(1)
    rel = RelationSystem([x], {})
    side = [word(x, x) - NCPolynomial.one()]
    p = word(*[x] * 6)
    assert reduce_modulo(p, rel, side).canonical_text() == "(1+0j)*1"
    monkeypatch.setattr(star_algebra, "STEP_BUDGET", 3)
    assert reduce_modulo(p, rel, side).canonical_text() == "(1+0j)*1"
    monkeypatch.setattr(star_algebra, "STEP_BUDGET", 2)
    with pytest.raises(NonTerminating):
        reduce_modulo(p, rel, side)


def test_reduce_modulo_formal_inverse():
    # exact Moyal k = 1 datum: J = 0 and |I|^2 = hbar (alpha + beta)
    model = MoyalModel(HBAR, ALPHA, BETA)
    d = ADHMData(1, model, [[0.3 + 0.1j]], [[-0.2j]],
                 [[np.sqrt(model.zeta_level), 0.0]], [[0.0], [0.0]])
    assert sum(adhm_residual(d)) <= 1e-15
    rel = smash_relations(model, 0)
    sigma, _ = bosonise_monad(build_monad(d), model, rel)
    rho2 = sigma.adjoint(rel).matmul(sigma, rel).entries[0][0]
    rel2 = RelationSystem(list(rel.generators) + [RHO2_INV], rel.rules,
                          theta=rel.theta)
    rinv = NCPolynomial.from_word((RHO2_INV,))
    x = multiply(rinv, multiply(rho2, rinv, rel2), rel2) - rinv
    assert len(x.terms) == len(rho2.terms) + 1
    side = [multiply(rinv, rho2, rel2) - NCPolynomial.one()]
    assert reduce_modulo(x, rel2, side).is_structurally_zero()
