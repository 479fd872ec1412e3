"""Derivations of a Lie algebra, their lifts to Λ^m g, the induced linear
vector fields on Λ^2 g, and orbit dimensions via rank computations.

A derivation is stored as its matrix d with column action d(e_j) = sum_i
d[i][j] e_i.  Its Leibniz lift to Λ^m (index arithmetic in
``grassmann.leibniz_matrix``) is a linear vector field on the blade
coordinates: X(p) = A p, whose coefficient of ``d/dx_a`` at p is the a-th
component of A p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactmath import (Poly, RatMatrix, clear_denominators, int_echelon,
                        kernel_basis, rat)
from .grassmann import MultiVector, leibniz_matrix
from .liealg import LieAlgebra

Derivation = RatMatrix


@dataclass(frozen=True)
class LinearVectorField:
    """Linear vector field on the coordinates of Λ^m g: X(p) = A·p."""

    matrix: RatMatrix

    @property
    def nvars(self) -> int:
        return self.matrix.rows

    def at(self, p: Sequence) -> tuple[Fraction, ...]:
        return self.matrix.matvec(p)

    def text(self, names=None) -> str:
        bits = []
        for a in range(self.nvars):
            coef = Poly({((b, 1),): self.matrix[a, b]
                         for b in range(self.nvars) if self.matrix[a, b]})
            if coef.is_zero():
                continue
            nm = names[a] if names else f"x{a + 1}"
            bits.append(f"({coef.text(names)})*d/d{nm}")
        return " + ".join(bits) if bits else "0"


def derivation_basis(g: LieAlgebra) -> list[Derivation]:
    """Basis of der(g): solutions d of d[e_i,e_j] = [d e_i, e_j] + [e_i, d e_j].

    One exact kernel computation on the stacked Leibniz system; the basis
    order follows the free entries of the matrix read row-major, so it
    matches the parameter order of hand-written derivation displays.
    """
    n = g.dim
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                # coefficient of e_k in d([e_i,e_j]) - [d e_i, e_j] - [e_i, d e_j]
                row = [Fraction(0)] * (n * n)
                for m in range(n):
                    row[k * n + m] += g.c[i][j][m]      # d[k][m] c_{ij}^m
                    row[m * n + i] -= g.c[m][j][k]      # d[m][i] c_{mj}^k
                    row[m * n + j] -= g.c[i][m][k]      # d[m][j] c_{im}^k
                rows.append(row)
    basis = kernel_basis(RatMatrix(rows) if rows
                         else RatMatrix.zero(0, n * n))
    return [RatMatrix([v[r * n:(r + 1) * n] for r in range(n)]) for v in basis]


def lift(d: Derivation, m: int) -> LinearVectorField:
    """Λ^m d, the Leibniz extension of d to degree-m multivectors."""
    return LinearVectorField(leibniz_matrix(
        [d.col(j) for j in range(d.cols)], m))


def fundamental_fields(g: LieAlgebra, m: int = 2) -> list[LinearVectorField]:
    """Lifts of the derivation basis: a basis of the fundamental vector
    fields of the automorphism action on Λ^m g."""
    return [lift(d, m) for d in derivation_basis(g)]


def orbit_dim(g: LieAlgebra, w: MultiVector) -> int:
    """Dimension of the automorphism orbit through w: the rank of
    d -> (Λ^m d)(w) over the derivation basis."""
    return rank_at(fundamental_fields(g, w.degree), w.coords())


def vf_apply(X: LinearVectorField, f: Poly) -> Poly:
    """Directional derivative (Xf)(p) = sum_a (A p)_a df/dx_a.

    Term by term: c*m with x_a^e in m contributes c*e*A[a, b] to the
    monomial m*x_b/x_a for every nonzero A[a, b]."""
    rows = X.matrix._nonzero_rows()
    out: dict = {}
    for m, c in f.terms.items():
        for a, e in m:
            ce = c * e
            rest = dict(m)
            if e == 1:
                del rest[a]
            else:
                rest[a] = e - 1
            for b, x in rows[a]:
                exps = dict(rest)
                exps[b] = exps.get(b, 0) + 1
                key = tuple(sorted(exps.items()))
                out[key] = out.get(key, 0) + ce * x
    return Poly(out)


def field_matrix_at(fields: Sequence[LinearVectorField],
                    p: Sequence) -> RatMatrix:
    """M(p): row i holds the coefficients of field i at the point p."""
    return RatMatrix([X.at(p) for X in fields])


def rank_at(fields: Sequence[LinearVectorField], p: Sequence) -> int:
    """Rank of the span of the fields at p (the stratum dimension there).

    The rank of M(p) in ``int`` arithmetic: p is scaled by the lcm of its
    denominators and each field's matrix by the lcm of all of its own, so
    row i of M(p) is multiplied by a positive integer and the rank is kept.
    (Scaling each row of a field's matrix by its own lcm would scale single
    entries of M(p) and change the rank.)  The pivots of the integer rows
    are counted by fraction-free elimination (``int_echelon``)."""
    _, q = clear_denominators(rat(x) for x in p)
    return _rank_at_ints(fields, q)


def _rank_at_ints(fields: Sequence[LinearVectorField],
                  q: Sequence[int]) -> int:
    """``rank_at`` at the point q/den, given as the ints q for any den > 0
    (``clear_denominators``): scaling p does not change the rank."""
    rows = []
    for X in fields:
        if X.matrix.cols != len(q):
            raise ValueError(
                f"matvec size mismatch: {X.matrix.cols} vs {len(q)}")
        row = {}
        for i, r in enumerate(X.matrix._integer_rows()):
            v = sum(x * q[j] for j, x in r)
            if v:
                row[i] = v
        rows.append(row)
    return len(int_echelon(rows))
