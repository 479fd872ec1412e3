"""Layer microbenchmarks for the exact kernels (pytest-benchmark).

    PYTHONPATH=src python -m pytest benchmarks

Outside the tier-1 ``testpaths``, so the test suite does not run them.
Each benchmark first checks the answer it times.
"""

from fractions import Fraction

import pytest

from darbouxlie.derivations import derivation_basis, lift, rank_at
from darbouxlie.exactmath import (Poly, RatMatrix, ideal_membership,
                                  monomials_up_to, solve)
from darbouxlie.exprparse import parse_poly
from darbouxlie.liealg import catalog

#: the largest ideal-membership system that the s3, s9 and n1 family-bundle
#: checks solve: x6 against four quadrics with cofactors of degree <= 2
TARGET = "x6"
GENERATORS = ["2*x1*x5 + 3*x1*x6 - 3*x2*x5 + 2*x2*x6 + 2*x3*x4 + 2*x4^2",
              "x3*x5 - 2*x3*x6 - 2*x4*x5", "2*x3*x5 + x3*x6 - 2*x4*x6",
              "x5^2 + x6^2"]
BOUND = 2


def coefficient_system(target: Poly, gens: list[Poly], bound: int):
    """The dense matrix and right-hand side that ideal_membership solves:
    one column per (generator, cofactor monomial), one row per monomial."""
    monos = monomials_up_to(6, bound)
    columns = [g * Poly({mu: 1}) for g in gens for mu in monos]
    support = sorted({m for p in columns + [target] for m in p.terms})
    mat = RatMatrix([[p.terms.get(m, Fraction(0)) for p in columns]
                     for m in support])
    return mat, [target.terms.get(m, Fraction(0)) for m in support]


@pytest.fixture(scope="module")
def system():
    return parse_poly(TARGET, 6), [parse_poly(g, 6) for g in GENERATORS]


def test_solve_ideal_membership_system(benchmark, system):
    mat, rhs = coefficient_system(*system, BOUND)
    assert (mat.rows, mat.cols) == (163, 112)
    assert benchmark(solve, mat, rhs) is None


def test_ideal_membership(benchmark, system):
    target, gens = system
    assert benchmark(ideal_membership, target, gens, BOUND) is None


@pytest.fixture(scope="module")
def fields():
    g = catalog("s3", alpha=Fraction(1, 2), beta=Fraction(1, 3))
    return [lift(d, 2) for d in derivation_basis(g)]


def test_rank_at(benchmark, fields):
    assert benchmark(rank_at, fields, [1, 2, 0, 3, 0, 1]) == 4


def test_matvec_lifted_field(benchmark, fields):
    A = fields[0].matrix
    p = [Fraction(k, 3) for k in range(1, 7)]
    assert benchmark(A.matvec, p) == tuple(
        sum((A[i, j] * p[j] for j in range(6)), Fraction(0))
        for i in range(6))
