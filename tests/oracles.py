"""Reference functions that only the tests use, each built on the public
API: span membership by ranks, the matrix commutator, the cocycle defect
of the cocommutator of an r-matrix, and an r-matrix as a dense bilinear
form."""

from fractions import Fraction
from typing import Sequence

from darbouxlie.exactmath import RatMatrix, rank
from darbouxlie.grassmann import MultiVector, ad_action, schouten
from darbouxlie.liealg import LieAlgebra, bracket
from darbouxlie.yangbaxter import RMatrix, as_bivector


def span_contains(basis: Sequence[Sequence], v: Sequence) -> bool:
    """Whether the vector v lies in the span of the row vectors ``basis``:
    adding it as a row leaves the rank as it was."""
    rows = [list(r) for r in basis]
    return (rank(RatMatrix([*rows, list(v)], len(v)))
            == rank(RatMatrix(rows, len(v))))


def commutator(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """ab - ba."""
    return a.matmul(b) - b.matmul(a)


def cocycle_defect(g: LieAlgebra, r: RMatrix, i: int, j: int) -> MultiVector:
    """delta([e_i,e_j]) - [e_i, delta(e_j)] - [delta(e_i), e_j]; zero for
    every basis pair iff delta_r is a 1-cocycle."""
    rv = as_bivector(g, r)
    ei = [1 if k == i else 0 for k in range(g.dim)]
    ej = [1 if k == j else 0 for k in range(g.dim)]
    d_i = ad_action(g, ei, rv)
    d_j = ad_action(g, ej, rv)
    lhs = ad_action(g, bracket(g, ei, ej), rv)
    # [e_i, delta(e_j)] + [delta(e_i), e_j]; the Schouten bracket of a
    # bivector with a vector picks up the graded-symmetry sign
    t1 = schouten(g, MultiVector.vector(g.dim, ei), d_j)
    t2 = schouten(g, d_i, MultiVector.vector(g.dim, ej))
    return lhs - t1 - t2


def bilinear_matrix(g: LieAlgebra, r: RMatrix) -> RatMatrix:
    """r as an antisymmetric bilinear form on g*."""
    rv = as_bivector(g, r)
    n = g.dim
    m = [[Fraction(0)] * n for _ in range(n)]
    for mask, c in rv.terms.items():
        i, j = (k for k in range(n) if mask & (1 << k))
        m[i][j] = c
        m[j][i] = -c
    return RatMatrix(m)
