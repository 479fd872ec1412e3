"""Derivations of a Lie algebra, their lifts to Λ^m g, the induced linear
vector fields on Λ^2 g, and orbit dimensions via rank computations.

A derivation is stored as its matrix d with column action d(e_j) = sum_i
d[i][j] e_i.  Lifting d to Λ^m by the Leibniz rule gives a linear vector
field on the blade coordinates: X(p) = A p, whose coefficient of
``d/dx_a`` at p is the a-th component of A p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactmath import Poly, RatMatrix, kernel_basis, rank, rat
from .grassmann import MultiVector, blades, wedge
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
    basis = kernel_basis(RatMatrix(rows))
    return [RatMatrix([v[r * n:(r + 1) * n] for r in range(n)]) for v in basis]


def lift(d: Derivation, m: int) -> LinearVectorField:
    """Λ^m d, the Leibniz extension of d to degree-m multivectors."""
    n = d.rows
    bl = blades(n, m)
    cols = []
    for mask in bl:
        img = MultiVector(n, m)
        idxs = [i for i in range(n) if mask & (1 << i)]
        for pos, i in enumerate(idxs):
            factors = MultiVector(n, 0, {0: Fraction(1)})
            for q, j in enumerate(idxs):
                factors = wedge(factors,
                                MultiVector.vector(n, d.col(j)) if q == pos
                                else MultiVector.blade(n, [j]))
            img = img + factors
        cols.append([img.terms.get(b, Fraction(0)) for b in bl])
    return LinearVectorField(RatMatrix(list(zip(*cols))))


def fundamental_fields(g: LieAlgebra, m: int = 2,
                       ders: Sequence[Derivation] | None = None
                       ) -> list[LinearVectorField]:
    """Lifts of the derivation basis: a basis of the fundamental vector
    fields of the automorphism action on Λ^m g."""
    if ders is None:
        ders = derivation_basis(g)
    return [lift(d, m) for d in ders]


def orbit_dim(g: LieAlgebra, w: MultiVector,
              ders: Sequence[Derivation] | None = None) -> int:
    """Dimension of the automorphism orbit through w: the rank of
    d -> (Λ^m d)(w) over the derivation basis."""
    if ders is None:
        ders = derivation_basis(g)
    rows = [lift(d, w.degree).at(w.coords()) for d in ders]
    return rank(RatMatrix(rows)) if rows else 0


def vf_apply(X: LinearVectorField, f: Poly) -> Poly:
    """Directional derivative (Xf)(p) = sum_a (A p)_a df/dx_a."""
    out = Poly.zero()
    A = X.matrix
    for a in range(X.nvars):
        df = f.derivative(a)
        if df.is_zero():
            continue
        coef = Poly({((b, 1),): A[a, b] for b in range(X.nvars) if A[a, b]})
        out = out + coef * df
    return out


def field_matrix_at(fields: Sequence[LinearVectorField],
                    p: Sequence) -> RatMatrix:
    """M(p): row i holds the coefficients of field i at the point p."""
    return RatMatrix([X.at(p) for X in fields])


def rank_at(fields: Sequence[LinearVectorField], p: Sequence) -> int:
    """Rank of the span of the fields at p (the stratum dimension there)."""
    return rank(field_matrix_at(fields, [rat(x) for x in p]))
