"""Row and column permutations of the monad letters.

Shared by the relabelling tests of tests/test_hopf_twist.py and the
centrality tests of tests/test_instanton.py: the centrality check looks at
the row-1 monad letters of columns 1 to 3 only, which is sound while every
row and column permutation maps every rule of the smash system to an
identity of the same system.
"""

from ncadhm.hopf_twist import MoyalModel, ToricModel
from ncadhm.star_algebra import MONAD_M, GeneratorId, NCPolynomial, normal_form

# The deformed models of perfbench's workloads and of the pinned goldens in
# tests/test_cli.py.
WORKLOAD_MODELS = {
    "moyal-0.25": lambda: MoyalModel(0.25, 1.0, 1.0),
    "moyal-0.2": lambda: MoyalModel(0.2, 1.0, 0.5),
    "toric-0.25": lambda: ToricModel(0.25),
    "toric-0.3": lambda: ToricModel(0.3),
}


def moved(x, cell):
    """``x`` in the matrix cell ``cell`` when it is a monad letter."""
    if x.space != MONAD_M:
        return x
    return GeneratorId(MONAD_M, x.index, x.conjugated, x.grade, *cell)


def permuted(word, perm):
    """``word`` with each monad letter moved by ``perm`` on (row, col)."""
    return tuple(moved(x, perm(x.row, x.col)) for x in word)


def reversals(k):
    """The row reversal and the column reversal of the index-``k`` cells."""
    rows = 2 * k + 2
    return {"rows": lambda a, b: (rows + 1 - a, b),
            "columns": lambda a, b: (a, k + 1 - b)}


def broken_rules(rel, perm, theta):
    """The patterns of ``rel`` whose rule ``perm`` does not map to an
    identity: the permuted pattern and the permuted right-hand side have
    normal forms more than 1e-12 apart."""
    broken = []
    for (g, h), rhs in rel.rules.items():
        lhs = NCPolynomial.from_word(permuted((g, h), perm))
        right = NCPolynomial.zero()
        for w, c in rhs:
            right = right + NCPolynomial.from_word(permuted(w, perm), c)
        if (normal_form(lhs, rel) - normal_form(right, rel)
                ).eval_norm(theta) > 1e-12:
            broken.append((g, h))
    return broken


def column_transpositions(k):
    """The transpositions of adjacent columns c and c + 1 of the
    index-``k`` cells, which generate every permutation of the columns."""
    return {f"columns {c},{c + 1}":
            lambda a, b, c=c: (a, {c: c + 1, c + 1: c}.get(b, b))
            for c in range(1, k)}
