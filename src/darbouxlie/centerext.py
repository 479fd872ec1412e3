"""Faithful matrix representations via a grading extension.

For an algebra with nontrivial center, adjoin a grading element e with
[e, e_i] = alpha_i e_i.  The Jacobi identity forces alpha_i + alpha_j =
alpha_k on every nonzero structure constant c_ij^k, and faithfulness of the
extended adjoint needs alpha nonzero on the center.  The alpha system is a
plain rational kernel; the nonzero constraints are settled by scanning
integer points of the solution space nearest to zero, which reproduces the
standard hand-picked values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exactmath import RatMatrix, kernel_basis, rank
from .liealg import LieAlgebra, center, from_brackets, validate


class RepresentationInvalid(ValueError):
    """The graded extension or its adjoint representation fails a check."""


@dataclass(frozen=True)
class GradingSolution:
    alphas: tuple[Fraction, ...]
    center_basis: tuple[tuple[Fraction, ...], ...]


@dataclass
class MatrixRep:
    matrices: list[RatMatrix]
    extended: LieAlgebra


def _alpha_kernel(g: LieAlgebra) -> list[tuple[Fraction, ...]]:
    rows = []
    n = g.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if g.c[i][j][k]:
                    row = [Fraction(0)] * n
                    row[i] += 1
                    row[j] += 1
                    row[k] -= 1
                    rows.append(row)
    return kernel_basis(RatMatrix(rows) if rows else RatMatrix.zero(0, n))


def _center_injective(alphas, center_basis) -> bool:
    """diag(alpha) restricted to the center must be injective."""
    if not center_basis:
        return True
    scaled = [[alphas[i] * v[i] for i in range(len(alphas))]
              for v in center_basis]
    return rank(RatMatrix(scaled)) == len(center_basis)


def solve_grading(g: LieAlgebra) -> Optional[GradingSolution]:
    """Deterministic grading vector alpha, or None when the constraints are
    infeasible.  Scans integer points of the alpha solution space with free
    coordinates ordered 0, 1, -1, 2, -2, ... and takes the first point that
    is injective on the center within the box |alpha_i| <= dim g + 1."""
    n = g.dim
    box = n + 1
    basis = _alpha_kernel(g)
    zg = tuple(tuple(v) for v in center(g))
    if not basis:
        if not zg:
            return GradingSolution(tuple([Fraction(0)] * n), zg)
        return None
    values = [0] + [s * k for k in range(1, box + 1) for s in (1, -1)]
    for combo in itertools.product(values, repeat=len(basis)):
        alphas = [sum((Fraction(combo[b]) * basis[b][i]
                       for b in range(len(basis))), Fraction(0))
                  for i in range(n)]
        if any(abs(a) > box for a in alphas):
            continue
        if _center_injective(alphas, zg):
            return GradingSolution(tuple(alphas), zg)
    return None


def extend(g: LieAlgebra, sol: GradingSolution) -> LieAlgebra:
    """The graded extension: g plus one element e with [e, e_i] = alpha_i e_i."""
    n = g.dim
    br = {}
    for i in range(n):
        for j in range(i + 1, n):
            vec = list(g.c[i][j]) + [Fraction(0)]
            br[(i, j)] = vec
    for i in range(n):
        if sol.alphas[i]:
            vec = [Fraction(0)] * (n + 1)
            vec[i] = -sol.alphas[i]
            br[(i, n)] = vec  # [e_i, e] = -alpha_i e_i
    return from_brackets(n + 1, br, name=f"{g.name}~" if g.name else "ext")


def build_rep(g: LieAlgebra, sol: GradingSolution) -> MatrixRep:
    """Adjoint matrices of g inside the graded extension; re-verifies the
    extension's Jacobi identity, commutation fidelity and faithfulness."""
    gt = extend(g, sol)
    bad = validate(gt)
    if bad:
        raise RepresentationInvalid(f"extension is not a Lie algebra: {bad[0]}")
    n = g.dim
    mats = [gt.ad([1 if k == i else 0 for k in range(n + 1)])
            for i in range(n)]
    # commutation fidelity: [R_i, R_j] = sum_k c_ij^k R_k
    for i in range(n):
        for j in range(i + 1, n):
            expect = RatMatrix.zero(n + 1, n + 1)
            for k in range(n):
                if g.c[i][j][k]:
                    expect = expect + mats[k].scale(g.c[i][j][k])
            if mats[i].commutator(mats[j]) != expect:
                raise RepresentationInvalid(f"commutation fidelity fails "
                                            f"on (e{i + 1}, e{j + 1})")
    # faithfulness: R_v = 0 only for v = 0
    flat = RatMatrix([m.flat() for m in mats])
    if rank(flat) != n:
        raise RepresentationInvalid("representation is not faithful")
    return MatrixRep(matrices=mats, extended=gt)
