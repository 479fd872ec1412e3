"""Faithful matrix representations via a grading extension.

For an algebra with nontrivial center, adjoin a grading element e with
[e, e_i] = alpha_i e_i.  The Jacobi identity forces alpha_i + alpha_j =
alpha_k on every nonzero structure constant c_ij^k, and faithfulness of the
extended adjoint needs alpha nonzero on the center.  The alpha system is a
plain rational kernel; the nonzero constraints are settled by scanning
integer points of the solution space nearest to zero, which reproduces the
standard hand-picked values.

The exact work runs in ``int`` arithmetic on integer tables
(``LieAlgebra.int_table``): the alpha system only needs to know which
constants are nonzero, the scan runs on the kernel basis scaled by the lcm
of its denominators, and the representation is checked on A_i = D·R_i for
the extension's D, where commutation fidelity reads
[A_i, A_j] = sum_k (D·c_ij^k) A_k, the identity [R_i, R_j] = sum_k c_ij^k R_k
times D^2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exactmath import (RatMatrix, clear_denominators, int_echelon,
                        int_kernel_basis)
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
    """Kernel of alpha_i + alpha_j - alpha_k over the nonzero c_ij^k, i < j
    (read off the integer table), as integer rows."""
    n = g.dim
    _, c = g.int_table
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if c[i][j][k]:
                    row = {i: 1, j: 1}
                    row[k] = row.get(k, 0) - 1
                    rows.append({t: x for t, x in row.items() if x})
    return int_kernel_basis(rows, n)


def _center_injective(alphas: list[int], center_rows: list[list[int]]
                      ) -> bool:
    """diag(alpha) restricted to the center must be injective: the rows
    alpha_i v_i over a center basis v have full rank.  Positive scales of
    alpha and of each v keep the rank, so both are passed as ints."""
    scaled = [{i: a * v[i] for i, a in enumerate(alphas) if a and v[i]}
              for v in center_rows]
    return len(int_echelon(scaled)) == len(center_rows)


def solve_grading(g: LieAlgebra) -> Optional[GradingSolution]:
    """Deterministic grading vector alpha, or None when the constraints are
    infeasible.  Scans integer points of the alpha solution space with free
    coordinates ordered 0, 1, -1, 2, -2, ... and takes the first point that
    is injective on the center within the box |alpha_i| <= dim g + 1.

    The scan runs in ``int`` arithmetic: the kernel basis is scaled by the
    lcm L of its denominators, so a point is L·alpha, its box is
    |L·alpha_i| <= L·(dim g + 1), and only the chosen point is divided by
    L."""
    n = g.dim
    box = n + 1
    basis = _alpha_kernel(g)
    zg = tuple(tuple(v) for v in center(g))
    if not basis:
        if not zg:
            return GradingSolution(tuple([Fraction(0)] * n), zg)
        return None
    den, flat = clear_denominators(x for v in basis for x in v)
    ints = [flat[b * n:(b + 1) * n] for b in range(len(basis))]
    center_rows = [clear_denominators(v)[1] for v in zg]
    values = [0] + [s * k for k in range(1, box + 1) for s in (1, -1)]
    for combo in itertools.product(values, repeat=len(basis)):
        alphas = [sum(k * v[i] for k, v in zip(combo, ints) if k)
                  for i in range(n)]
        if any(abs(a) > box * den for a in alphas):
            continue
        if _center_injective(alphas, center_rows):
            return GradingSolution(tuple(Fraction(a, den) for a in alphas),
                                   zg)
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
    extension's Jacobi identity, commutation fidelity and faithfulness.

    R_i is ad e_i, read from the extension's constants: R_i[k][j] = c_ij^k.
    The checks run on the integer table D·c of the extension: with
    A_i = D·R_i, fidelity [R_i, R_j] = sum_k c_ij^k R_k is tested as
    [A_i, A_j] = sum_k (D·c_ij^k) A_k, the same identity times D^2, and
    faithfulness as the rank of the A_i."""
    gt = extend(g, sol)
    bad = validate(gt)
    if bad:
        raise RepresentationInvalid(f"extension is not a Lie algebra: {bad[0]}")
    n = g.dim
    size = n + 1
    _, c = gt.int_table
    ints = [[[c[i][j][k] for j in range(size)] for k in range(size)]
            for i in range(n)]
    # commutation fidelity: [A_i, A_j] = sum_k (D c_ij^k) A_k
    for i in range(n):
        for j in range(i + 1, n):
            lhs = _int_commutator(ints[i], ints[j])
            rhs = [[sum(c[i][j][k] * ints[k][r][s] for k in range(n)
                        if c[i][j][k]) for s in range(size)]
                   for r in range(size)]
            if lhs != rhs:
                raise RepresentationInvalid(f"commutation fidelity fails "
                                            f"on (e{i + 1}, e{j + 1})")
    # faithfulness: R_v = 0 only for v = 0
    flat = [{t: x for t, x in enumerate(y for r in a for y in r) if x}
            for a in ints]
    if len(int_echelon(flat)) != n:
        raise RepresentationInvalid("representation is not faithful")
    mats = [RatMatrix([gt.c[i][j][k] for j in range(size)]
                      for k in range(size)) for i in range(n)]
    return MatrixRep(matrices=mats, extended=gt)


def _int_commutator(a: list[list[int]], b: list[list[int]]
                    ) -> list[list[int]]:
    """ab - ba for square matrices of ints given as lists of rows."""
    cols = list(zip(*b))
    ab = [[sum(x * y for x, y in zip(r, col)) for col in cols] for r in a]
    cols = list(zip(*a))
    return [[v - sum(x * y for x, y in zip(r, col))
             for v, col in zip(row, cols)] for row, r in zip(ab, b)]
