"""Noncommutative *-polynomial arithmetic with normal ordering.

Generators are tagged symbols carrying an ambient-space tag, a small index,
an optional matrix slot (row, col), a conjugation flag and a form degree.
Polynomials are complex-linear combinations of words in these generators.
Coefficients track exact powers of the two formal deformation parameters:
``hbar`` for the translation twist and ``mu`` for the torus twist (stored as
twice the mu-exponent so that half-integer cocycle values stay exact).

The deformation parameter of the translation twist is *anti-real*: the
involution sends hbar to -hbar, and numeric evaluation substitutes
``hbar -> i * hbar``.  This is the unique convention under which the shipped
Heisenberg-type relation systems are star-closed and the real solver
equations and the symbolic monad identities agree; see the repository notes.

A :class:`RelationSystem` holds rewrite rules on pairs of adjacent letters
that bring words to normal order; :func:`reduce_modulo` further divides by
side relations (sphere equations, formal inverses) declared zero.

Inside the normal-ordering engine a letter is coded as its position in the
sorted generators of its system, so words are tuples of small ints and no
rewrite step hashes a letter.  The engine's table of what
to do at each pair of codes is filled from ``rules`` when the pair is first
met, so ``rules`` must not change after a system is first used.  Words are
decoded to letters on the way out; a letter outside the system, in a word
or written by a rule, raises :class:`UnknownGenerator`.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

TOL = 1e-12
STEP_BUDGET = 10 ** 6

# Ambient space tags.
C4 = "C4"
R4 = "R4"
S4 = "S4"
CP3 = "CP3"
MONAD_M = "MonadM"
HOPF_TRANS = "HopfTrans"
HOPF_TORUS = "HopfTorus"
AUX = "Aux"

# Inverse/auxiliary letters sort below everything so that substitution rules
# push them leftmost; Hopf letters sort above algebra letters so that smash
# words normal-order as (algebra part) * (Hopf part).
_SPACE_RANK = {
    AUX: -1, C4: 0, R4: 1, S4: 2, CP3: 3, MONAD_M: 4, HOPF_TRANS: 5,
    HOPF_TORUS: 6,
}


class StarAlgebraError(Exception):
    pass


class UnknownGenerator(StarAlgebraError):
    pass


class NonTerminating(StarAlgebraError):
    pass


class MissingCalculus(StarAlgebraError):
    pass


class NonConfluent(StarAlgebraError):
    pass


# Localisation inverses use index -1 so they sort leftmost in their space.
_CP3_NAMES = {1: "a1", 2: "a2", 3: "a3", 4: "a4",
              5: "u1", 6: "u2", 7: "u3", 8: "v1", 9: "v2", 10: "v3",
              -1: "inv(a1+a2)"}
_S4_NAMES = {0: "x0", 1: "x1", 2: "x2", -1: "inv(1+x0)"}
_R4_NAMES = {1: "zeta1", 2: "zeta2", -1: "inv(1+|zeta|2)"}


@dataclass(frozen=True)
class GeneratorId:
    """A tagged generator symbol.

    ``grade`` is 0 for functions and 1 for differentials; ``row``/``col``
    are used only by matrix-valued generator families (monad entries).

    Letters are dict and set keys in every rewrite step, so the hash is
    computed once, in ``__post_init__``: ``hash((space, index, conjugated,
    grade, row, col))``, the value of the plain frozen dataclass.  Equality
    tests identity, then the cached hash, then the fields (``_key`` holds
    them all); a letter never equals an object of another type.
    """

    space: str
    index: int
    conjugated: bool = False
    grade: int = 0
    row: int = 0
    col: int = 0

    def __post_init__(self):
        if self.space not in _SPACE_RANK:
            raise UnknownGenerator(f"unknown space tag {self.space!r}")
        key = (_SPACE_RANK[self.space], self.index, self.row, self.col,
               self.conjugated, self.grade)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash((
            self.space, self.index, self.conjugated, self.grade, self.row,
            self.col)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, GeneratorId):
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __reduce__(self):
        # rebuilt through __init__: a pickle never carries a stale str hash
        return (GeneratorId, (self.space, self.index, self.conjugated,
                              self.grade, self.row, self.col))

    @property
    def sort_key(self):
        return self._key

    def star(self) -> "GeneratorId":
        """Raw conjugation toggle; relation systems may override via star_table."""
        return GeneratorId(self.space, self.index, not self.conjugated,
                           self.grade, self.row, self.col)

    def d(self) -> "GeneratorId":
        if self.grade != 0:
            raise MissingCalculus(f"{self} already has form degree 1")
        return GeneratorId(self.space, self.index, self.conjugated, 1,
                           self.row, self.col)

    def label(self) -> str:
        if self.space == C4:
            base = f"z{self.index}"
        elif self.space == R4:
            base = _R4_NAMES.get(self.index, f"r{self.index}")
        elif self.space == S4:
            base = _S4_NAMES.get(self.index, f"x{self.index}")
        elif self.space == CP3:
            base = _CP3_NAMES.get(self.index, f"q{self.index}")
        elif self.space == MONAD_M:
            base = f"M{self.index}[{self.row},{self.col}]"
        elif self.space == HOPF_TRANS:
            base = f"t{self.index}"
        elif self.space == HOPF_TORUS:
            base = f"s{self.index}"
        else:
            base = "inv(rho2)" if self.index == 1 else f"aux{self.index}"
        if self.grade == 1:
            base = "d" + base
        if self.conjugated:
            base = base + "*"
        return base

    def __repr__(self):
        return self.label()


def word_key(word):
    return tuple(g.sort_key for g in word)


def deglex_key(word):
    return (len(word), word_key(word))


@dataclass(frozen=True)
class Coefficient:
    """``value * hbar^hbar_power * mu^(mu2/2)`` with exact formal exponents.

    ``value`` carries all numeric magnitude (including powers of the model's
    numeric hbar); ``hbar`` counts the formal degree, which controls the
    anti-real conjugation sign and the ``i**hbar`` evaluation phase.
    """

    value: complex
    hbar: int = 0
    mu2: int = 0

    def __mul__(self, other: "Coefficient") -> "Coefficient":
        return Coefficient(self.value * other.value, self.hbar + other.hbar,
                           self.mu2 + other.mu2)

    def scale(self, c: complex) -> "Coefficient":
        return Coefficient(self.value * c, self.hbar, self.mu2)

    def conj(self) -> "Coefficient":
        return Coefficient(self.value.conjugate() * (-1) ** self.hbar,
                           self.hbar, -self.mu2)

    def evaluate(self, theta: float | None = None) -> complex:
        v = self.value * (1j ** (self.hbar % 4))
        if self.mu2:
            if theta is None:
                raise StarAlgebraError("mu-power present but no theta given")
            v *= cmath.exp(0.5j * cmath.pi * theta * self.mu2)
        return v

    def is_zero(self) -> bool:
        return abs(self.value) <= TOL

    def __pow__(self, n: int) -> "Coefficient":
        return Coefficient(self.value ** n, self.hbar * n, self.mu2 * n)

    def approx_eq(self, other: "Coefficient", tol: float = TOL) -> bool:
        return (self.hbar == other.hbar and self.mu2 == other.mu2
                and abs(self.value - other.value) <= tol)

    @property
    def mu_power(self):
        if self.mu2 % 2:
            return self.mu2 / 2
        return self.mu2 // 2

    def __repr__(self):
        s = f"({self.value:.6g})"
        if self.hbar:
            s += f"*hbar^{self.hbar}"
        if self.mu2:
            s += f"*mu^{self.mu_power}"
        return s


class NCPolynomial:
    """Linear combination of words; terms keyed by (word, hbar, mu2)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero() -> "NCPolynomial":
        return NCPolynomial()

    @staticmethod
    def one(c: complex = 1.0) -> "NCPolynomial":
        return NCPolynomial({((), 0, 0): complex(c)})

    @staticmethod
    def from_generator(g: GeneratorId, c: complex = 1.0) -> "NCPolynomial":
        return NCPolynomial({((g,), 0, 0): complex(c)})

    @staticmethod
    def from_word(word, coeff: Coefficient | complex = 1.0) -> "NCPolynomial":
        if not isinstance(coeff, Coefficient):
            coeff = Coefficient(complex(coeff))
        return NCPolynomial({(tuple(word), coeff.hbar, coeff.mu2): coeff.value})

    # -- ring-free operations ---------------------------------------------
    def copy(self) -> "NCPolynomial":
        return NCPolynomial(self.terms)

    def _accum(self, key, value):
        v = self.terms.get(key, 0.0) + value
        if abs(v) <= TOL:
            self.terms.pop(key, None)
        else:
            self.terms[key] = v

    def __add__(self, other):
        out = self.copy()
        for k, v in other.terms.items():
            out._accum(k, v)
        return out

    def __sub__(self, other):
        out = self.copy()
        for k, v in other.terms.items():
            out._accum(k, -v)
        return out

    def scale(self, c: complex) -> "NCPolynomial":
        if abs(c) <= TOL:
            return NCPolynomial()
        return NCPolynomial({k: v * c for k, v in self.terms.items()})

    def scale_coeff(self, c: Coefficient) -> "NCPolynomial":
        out = NCPolynomial()
        for (w, h, m), v in self.terms.items():
            out._accum((w, h + c.hbar, m + c.mu2), v * c.value)
        return out

    def is_structurally_zero(self) -> bool:
        return not self.terms

    # -- coefficient access -------------------------------------------------
    def coefficient(self, word, hbar=0, mu2=0) -> Coefficient:
        v = self.terms.get((tuple(word), hbar, mu2), 0.0)
        return Coefficient(v, hbar, mu2)

    # -- numeric evaluation --------------------------------------------------
    def evaluated_coefficients(self, theta: float | None = None) -> dict:
        """Merge formal parameter sectors per word via numeric evaluation."""
        out = {}
        for (w, h, m), v in self.terms.items():
            out[w] = out.get(w, 0.0) + Coefficient(v, h, m).evaluate(theta)
        return out

    def eval_norm(self, theta: float | None = None) -> float:
        vals = self.evaluated_coefficients(theta)
        return sum(abs(v) for v in vals.values())

    # -- rendering ------------------------------------------------------------
    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda kv: (deglex_key(kv[0][0]), kv[0][1], kv[0][2]))

    def canonical_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (w, h, m), v in self.sorted_terms():
            c = Coefficient(v, h, m)
            text = "*".join(g.label() for g in w) if w else "1"
            parts.append(f"{c!r}*{text}")
        return " + ".join(parts)

    def json_terms(self):
        """``(word, value, hbar_pow, mu_pow)`` of each term, in the order
        of ``sorted_terms``; a half-integer mu power raises."""
        for (w, h, m), v in self.sorted_terms():
            if m % 2:
                raise StarAlgebraError("half-integer mu power in exported term")
            yield w, v, h, m // 2

    def to_json_dict(self) -> dict:
        return {"terms": [{"word": [g.label() for g in w],
                           "re": v.real, "im": v.imag,
                           "hbar_pow": h, "mu_pow": mu}
                          for w, v, h, mu in self.json_terms()]}

    def __repr__(self):
        return self.canonical_text()


def classical_normal_form_word(word):
    """Sort a word as in the graded-commutative algebra.

    Returns ``(sign, sorted_word)`` or ``None`` when the word vanishes
    (repeated odd letter).  Only valid for classical (undeformed) reduction.
    """
    letters = list(word)
    sign = 1
    n = len(letters)
    for i in range(1, n):
        j = i
        while j > 0 and letters[j - 1].sort_key > letters[j].sort_key:
            if letters[j - 1].grade and letters[j].grade:
                sign = -sign
            letters[j - 1], letters[j] = letters[j], letters[j - 1]
            j -= 1
    for i in range(1, n):
        if letters[i] == letters[i - 1] and letters[i].grade:
            return None
    return sign, tuple(letters)


def classical_product(a: NCPolynomial, b: NCPolynomial) -> NCPolynomial:
    """Graded-commutative product (used by the twisting machinery)."""
    out = NCPolynomial()
    for (wa, ha, ma), va in a.terms.items():
        for (wb, hb, mb), vb in b.terms.items():
            nf = classical_normal_form_word(wa + wb)
            if nf is None:
                continue
            sign, w = nf
            out._accum((w, ha + hb, ma + mb), sign * va * vb)
    return out


class RelationSystem:
    """Terminating rewrite rules for one deformed algebra.

    ``rules`` maps an adjacent letter pair to a tuple of
    ``(word, Coefficient)`` replacement terms; pairs without a rule commute
    up to the Koszul sign.  ``star_table`` maps each generator to its
    adjoint image (identity entries encode self-adjoint generators); the
    image of a generator must be a generator.  ``theta`` is kept for
    numeric evaluation of mu-powers.  ``rules`` must not change after the
    system is first used: the engine reads the rule of a pair once.
    """

    def __init__(self, generators, rules, star_table=None, theta=None,
                 meta=None):
        self.generator_set = frozenset(generators)
        self.generators = tuple(sorted(self.generator_set,
                                       key=lambda g: g.sort_key))
        self.rules = dict(rules)
        table = {}
        for g in self.generators:
            table[g] = g.star() if g.star() in self.generator_set else g
        if star_table:
            table.update(star_table)
        self.star_table = table
        self.theta = theta
        self.meta = dict(meta or {})
        self._code = {g: i for i, g in enumerate(self.generators)}
        self._star_codes = self._encode(table[g] for g in self.generators)
        # one slot per pair of codes (a, b) at a * n + b, None until met
        self._actions = [None] * len(self.generators) ** 2

    def _encode(self, word) -> tuple:
        """The codes of the letters of ``word``; a letter outside the
        system raises :class:`UnknownGenerator`."""
        try:
            return tuple(map(self._code.__getitem__, word))
        except KeyError as err:
            raise UnknownGenerator(
                f"{err.args[0]} not in relation system") from None

    def _decode(self, terms) -> dict:
        """A term dict over coded words, decoded, in its order."""
        letter = self.generators.__getitem__
        return {(tuple(map(letter, w)), h, m): v
                for (w, h, m), v in terms.items()}

    def _action(self, a, b):
        """What the engine does at the adjacent codes ``(a, b)``: the coded
        rule ``((word, hbar, mu2, value), ...)``, which is ``()`` for a
        repeated grade-1 letter (the word dies), the swap's float sign, or
        ``_FREE``; kept for the next time."""
        g, h = self.generators[a], self.generators[b]
        rule = self.rules.get((g, h))
        if rule is not None:
            try:
                act = tuple((self._encode(u), c.hbar, c.mu2, c.value)
                            for u, c in rule)
            except UnknownGenerator as err:
                raise UnknownGenerator(
                    f"the rule for {g}*{h} writes a letter: {err}") from None
        elif a == b and g.grade:
            act = ()
        elif a > b:
            act = -1.0 if g.grade and h.grade else 1.0
        else:
            act = _FREE
        self._actions[a * len(self.generators) + b] = act
        return act

    @property
    def has_calculus(self) -> bool:
        return any(g.grade == 1 for g in self.generators)

    def to_json_dict(self) -> dict:
        out = self.streamed_json_dict()
        out["rules"] = [{"pattern": [g.label() for g in pattern],
                         "rhs": rhs.to_json_dict()}
                        for pattern, rhs in self.rule_records()]
        return out

    def streamed_json_dict(self) -> dict:
        """``to_json_dict()`` with the system itself under "rules", which
        the CLI writes one rule at a time, so the whole rule tree is never
        held."""
        return {
            "generators": [g.label() for g in self.generators],
            "rules": self,
            "meta": {k: v for k, v in sorted(self.meta.items())},
        }

    def rule_records(self):
        """``(pattern, rhs)`` of each rule, in pattern order, with the
        rule's terms summed into the polynomial ``rhs``."""
        for pattern in sorted(self.rules, key=word_key):
            rhs = NCPolynomial()
            for w, c in self.rules[pattern]:
                rhs._accum((tuple(w), c.hbar, c.mu2), c.value)
            yield pattern, rhs


# -- normal-ordering engine -----------------------------------------------

# What the engine does at a pair that is no redex (see
# RelationSystem._action); None marks a pair not yet met.
_FREE = False


def _reduce_terms(terms, rel: RelationSystem, budget: int):
    """Worklist reduction of ``(word, hbar, mu2) -> value`` term dicts.

    Each word is rewritten at its leftmost redex, the first adjacent pair
    that has an explicit rule (rewritten by it), repeats a grade-1 letter
    (the word dies) or is out of order (the pair commutes up to the Koszul
    sign).  Each rewrite is one step; the step after ``budget`` raises
    :class:`NonTerminating`.

    The words are coded at entry (a letter outside ``rel`` raises
    :class:`UnknownGenerator`), reduced by :func:`_reduce_coded` and decoded
    at exit, in the same order.
    """
    coded = {(rel._encode(w), h, m): v for (w, h, m), v in terms.items()}
    return rel._decode(_reduce_coded(coded, rel, budget))


def _reduce_coded(terms, rel: RelationSystem, budget: int):
    """:func:`_reduce_terms` on words of letter codes.

    A letter's code is its position in ``rel.generators``, so codes
    compare as sort keys do.  What happens at the pair of codes ``(a, b)``
    sits in ``rel._actions`` at ``a * n + b``, derived from ``rel.rules``
    when the pair is first met, so a large system pays only for the pairs
    its words reach.

    A stack entry carries the first pair that may still be a redex.  A
    rewrite at pair ``i`` leaves the letters left of ``i`` unchanged, so the
    pairs left of ``i - 1`` stay free of redexes and the scan resumes at
    ``max(i - 1, 0)``: it finds the same redex as a rescan from 0.

    A swap is applied in place, in a list copy of the word, as the word it
    would push is the next one popped.  The scan meets a swap at pair ``p``
    with every pair left of ``p`` free, so the right letter ``b`` of the
    swap bubbles left, one swap and one step per pair, until the pair on
    its left is free or a rule, or ``b`` starts the word.  A rule there is
    applied on the next turn.  Otherwise, with ``b`` at ``j``, only the
    pair ``(b, next letter)`` at ``j`` is new: the pairs from ``j + 1`` to
    ``p`` are the old free pairs from ``j`` to ``p - 1``, moved one place
    right.  So the scan checks pair ``j`` and, when it is free, jumps to
    ``p + 1``.  This is the leftmost redex of a rescan from 0 at every
    step, so words are rewritten, popped and summed into the result in one
    fixed order, whatever the budget.  A swap multiplies the value by a
    float sign, ``-1.0`` or ``1.0``, as a complex product: ``-v`` or ``v``
    can differ from it in the sign of a zero part and in an infinite one.
    """
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
                w = tuple(w)
                j = max(i - 1, 0)
                for u, ch, cm, cv in act:
                    stack.append((w[:i] + u + w[i + 2:], h + ch, m + cm,
                                  v * cv, j))
                break
            if w.__class__ is tuple:
                w = list(w)
            p = i
            while True:  # swap b left past a
                v = act * v
                w[i] = b
                w[i + 1] = a
                if not i:
                    break
                a = w[i - 1]
                act = actions[a * n + b]
                if act is None:
                    act = rel._action(a, b)
                if act.__class__ is not float:
                    break
                steps += 1
                if steps > budget:
                    raise NonTerminating("rewrite step budget exceeded")
                i -= 1
            if act.__class__ is tuple:
                i -= 1  # the rule at (a, b), applied on the next turn
                continue
            c = w[i + 1]
            act = actions[b * n + c]
            if act is None:
                act = rel._action(b, c)
            if act is _FREE:
                i = p + 1
        else:
            key = (tuple(w), h, m)
            nv = out.get(key, 0.0) + v
            if abs(nv) <= TOL:
                out.pop(key, None)
            else:
                out[key] = nv
    return out


def normal_form(p: NCPolynomial, rel: RelationSystem,
                budget: int = STEP_BUDGET) -> NCPolynomial:
    """Bring every word of ``p`` to normal order with respect to ``rel``."""
    return NCPolynomial(_reduce_terms(p.terms, rel, budget))


def leading_term(p: NCPolynomial):
    """The deglex-leading ``((word, hbar, mu2), value)`` item of ``p``."""
    return max(p.terms.items(),
               key=lambda kv: (deglex_key(kv[0][0]), kv[0][1], kv[0][2]))


def _cofactor(word, sub):
    """``word`` without the letters of ``sub``, or None when ``sub`` is not an
    ordered sub-multiset of ``word``."""
    rest = []
    i = 0
    for s in sub:
        while i < len(word) and word[i] != s:
            rest.append(word[i])
            i += 1
        if i == len(word):
            return None
        i += 1
    return tuple(rest) + word[i:]


def _first_division(p: NCPolynomial, divisors):
    """The deglex-largest term of ``p`` divisible by a leading word."""
    for (w, h, m), v in sorted(p.terms.items(), reverse=True,
                               key=lambda kv: deglex_key(kv[0][0])):
        for lw, s in divisors:
            cof = _cofactor(w, lw)
            if cof is not None:
                return (w, h, m), v, s, cof
    return None


def reduce_modulo(p: NCPolynomial, rel: RelationSystem, side_relations,
                  budget: int = STEP_BUDGET) -> NCPolynomial:
    """Normal form of ``p`` modulo the ideal of ``side_relations``.

    Leading-monomial division (Bergman's diamond lemma): while some word of
    ``p`` contains the deglex-leading word of a side relation ``s`` as an
    ordered sub-multiset, subtract the multiple of ``s * cofactor`` that
    cancels it.  Precondition: the letters of each leading word commute with
    the rest of the word, so that ``s * cofactor`` contains the word itself
    (commutative side relations and central formal inverses qualify).  More
    than ``budget`` divisions raise :class:`NonTerminating`.
    """
    divisors = []
    for s in side_relations:
        s = normal_form(s, rel)
        (lw, lh, _), _ = leading_term(s)
        if lh != 0:
            raise StarAlgebraError("side relation with non-invertible lead")
        divisors.append((lw, s))
    p = normal_form(p, rel, budget)
    steps = 0
    while True:
        hit = _first_division(p, divisors)
        if hit is None:
            return p
        steps += 1
        if steps > budget:
            raise NonTerminating("side-relation step budget exceeded")
        (w, h, m), v, s, cof = hit
        prod = multiply(s, NCPolynomial.from_word(cof), rel)
        lead = [(ph, pm, pv) for (pw, ph, pm), pv in prod.terms.items()
                if pw == w]
        if not lead:
            raise StarAlgebraError(f"side relation times {cof} misses {w}")
        ph, pm, pv = lead[0]
        p = p - prod.scale_coeff(Coefficient(v / pv, h - ph, m - pm))


def _coded_terms(p: NCPolynomial, rel: RelationSystem):
    return [(rel._encode(w), h, m, v) for (w, h, m), v in p.terms.items()]


def _coded_product(coded_a, coded_b, rel: RelationSystem):
    """The reduced product of two coded term lists, as a term dict over
    coded words."""
    prod = {}
    for wa, ha, ma, va in coded_a:
        for wb, hb, mb, vb in coded_b:
            key = (wa + wb, ha + hb, ma + mb)
            prod[key] = prod.get(key, 0.0) + va * vb
    return _reduce_coded(prod, rel, STEP_BUDGET)


def multiply(a: NCPolynomial, b: NCPolynomial,
             rel: RelationSystem) -> NCPolynomial:
    """Normal form of the concatenation product."""
    return NCPolynomial(rel._decode(_coded_product(
        _coded_terms(a, rel), _coded_terms(b, rel), rel)))


def sum_of_products(pairs, rel: RelationSystem) -> NCPolynomial:
    """``x1 y1 + x2 y2 + ...`` over the ``(x, y)`` of ``pairs``: the terms,
    order and bits of ``acc = acc + multiply(x, y, rel)`` from zero, summed
    over coded words and decoded once."""
    acc = {}
    for x, y in pairs:
        for key, v in _coded_product(
                _coded_terms(x, rel), _coded_terms(y, rel), rel).items():
            nv = acc.get(key, 0.0) + v
            if abs(nv) <= TOL:
                acc.pop(key, None)
            else:
                acc[key] = nv
    return NCPolynomial(rel._decode(acc))


def commutator_norms(x: NCPolynomial, ys, rel: RelationSystem,
                     theta: float | None) -> list:
    """``(multiply(x, y, rel) - multiply(y, x, rel)).eval_norm(theta)`` for
    each ``y`` of ``ys``, in order and with the same bits.

    ``x`` is coded once, and both products are formed and subtracted over
    coded words, so no product is decoded: the difference keeps the order,
    the ``+ -v`` and the TOL pruning of ``NCPolynomial.__sub__``, and the
    evaluation groups terms by word as ``eval_norm`` does.
    """
    cx = _coded_terms(x, rel)
    norms = []
    for y in ys:
        cy = _coded_terms(y, rel)
        diff = _coded_product(cx, cy, rel)
        for key, v in _coded_product(cy, cx, rel).items():
            nv = diff.get(key, 0.0) + -v
            if abs(nv) <= TOL:
                diff.pop(key, None)
            else:
                diff[key] = nv
        norms.append(NCPolynomial(diff).eval_norm(theta))
    return norms


def adjoint(p: NCPolynomial, rel: RelationSystem) -> NCPolynomial:
    """Anti-multiplicative involution; coefficients conjugated (anti-real
    hbar, negated mu-power), result in normal form."""
    star = rel._star_codes
    out = {}
    for w, h, m, v in _coded_terms(p, rel):
        sw = tuple([star[x] for x in reversed(w)])
        c = Coefficient(v, h, m).conj()
        key = (sw, c.hbar, c.mu2)
        out[key] = out.get(key, 0.0) + c.value
    return NCPolynomial(rel._decode(_reduce_coded(out, rel, STEP_BUDGET)))


def differential(p: NCPolynomial, rel: RelationSystem) -> NCPolynomial:
    """Graded Leibniz derivation of degree +1 (d: g -> dg, d(dg) = 0)."""
    if not rel.has_calculus:
        raise MissingCalculus("relation system has no grade-1 generators")
    out = {}
    for w, h, m, v in _coded_terms(p, rel):
        sign = 1
        for i, c in enumerate(w):
            g = rel.generators[c]
            if g.grade == 1:
                sign = -sign
                continue
            dc = rel._code.get(g.d())
            if dc is None:
                continue  # letters without differentials are constants
            key = (w[:i] + (dc,) + w[i + 1:], h, m)
            out[key] = out.get(key, 0.0) + sign * v
    return NCPolynomial(rel._decode(_reduce_coded(out, rel, STEP_BUDGET)))


# -- validation helpers -----------------------------------------------------

def _random_poly(rel, rng):
    """Three random words of degree 1 to 3 in the even generators."""
    gens = [g for g in rel.generators if g.grade == 0]
    p = NCPolynomial()
    for _ in range(3):
        d = int(rng.integers(1, 4))
        word = tuple(gens[int(rng.integers(0, len(gens)))] for _ in range(d))
        c = complex(rng.standard_normal(), rng.standard_normal())
        p = p + NCPolynomial.from_word(word, c)
    return p


def associativity_residual(rel: RelationSystem, rng, trials: int) -> float:
    """Largest associativity defect over random triples; the confluence probe."""
    worst = 0.0
    for _ in range(trials):
        a = _random_poly(rel, rng)
        b = _random_poly(rel, rng)
        c = _random_poly(rel, rng)
        lhs = multiply(multiply(a, b, rel), c, rel)
        rhs = multiply(a, multiply(b, c, rel), rel)
        worst = max(worst, (lhs - rhs).eval_norm(rel.theta))
    return worst


def star_closure_residual(rel: RelationSystem, rng, trials: int) -> float:
    """Largest defect of adjoint(ab) = adjoint(b) adjoint(a) over samples."""
    worst = 0.0
    for _ in range(trials):
        a = _random_poly(rel, rng)
        b = _random_poly(rel, rng)
        lhs = adjoint(multiply(a, b, rel), rel)
        rhs = multiply(adjoint(b, rel), adjoint(a, rel), rel)
        worst = max(worst, (lhs - rhs).eval_norm(rel.theta))
    return worst
