"""Derivations of a Lie algebra, their lifts to Λ^m g, the induced linear
vector fields on Λ^2 g, and orbit dimensions via rank computations.

A derivation d, and its Leibniz lift Λ^m d (``lift``), are ``RatMatrix``
values acting on columns: d(e_j) = sum_i d[i][j] e_i.  The lift is the
linear vector field X(p) = A p on the blade coordinates, whose coefficient
of ``d/dx_a`` at p is the a-th component of A p.  The derivation system and
the lifts are built in ``int`` arithmetic, on the algebra's integer table
D·c (``LieAlgebra.int_table``) and on the integer forms of the matrices.
"""

from __future__ import annotations

from typing import Sequence

from .exactmath import (Poly, RatMatrix, clear_denominators, int_echelon,
                        int_kernel_basis, rat)
from .grassmann import MultiVector, leibniz_rows
from .liealg import LieAlgebra

Derivation = LinearVectorField = RatMatrix


def derivation_basis(g: LieAlgebra) -> list[Derivation]:
    """Basis of der(g): solutions d of d[e_i,e_j] = [d e_i, e_j] + [e_i, d e_j].

    One exact kernel computation on the stacked Leibniz system
    (``derivation_system``); the basis order follows the free entries of the
    matrix read row-major, so it matches the parameter order of
    hand-written derivation displays.
    """
    n = g.dim
    basis = int_kernel_basis(derivation_system(g), n * n)
    return [RatMatrix([v[r * n:(r + 1) * n] for r in range(n)]) for v in basis]


def derivation_system(g: LieAlgebra) -> list[dict[int, int]]:
    """The Leibniz system of der(g) on the integer table D·c: for i < j and
    each k, the e_k-coefficient of d([e_i,e_j]) - [d e_i, e_j] - [e_i, d e_j]
    as a sparse integer row over the unknowns d[r][s] (column r·n + s),
    times D.  The system is linear and homogeneous in c, so D·c gives the
    same kernel; rows that vanish are left out."""
    n = g.dim
    _, c = g.int_table
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                row: dict[int, int] = {}
                for m in range(n):
                    for col, x in ((k * n + m, c[i][j][m]),    # d[k][m] c_ij^m
                                   (m * n + i, -c[m][j][k]),   # d[m][i] c_mj^k
                                   (m * n + j, -c[i][m][k])):  # d[m][j] c_im^k
                        if x:
                            row[col] = row.get(col, 0) + x
                row = {col: x for col, x in row.items() if x}
                if row:
                    rows.append(row)
    return rows


def lift(d: Derivation, m: int) -> LinearVectorField:
    """Λ^m d, the Leibniz extension of d to degree-m multivectors: the
    ``leibniz_rows`` of the integer columns of den·d, divided by den."""
    images = [[0] * d.rows for _ in range(d.cols)]
    for i, r in enumerate(d.ints):
        for j, x in r:
            images[j][i] = x
    rows = leibniz_rows(images, m)
    return RatMatrix.from_ints(d.den, (sorted(r.items()) for r in rows),
                               len(rows))


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
    monomial m*x_b/x_a for every nonzero A[a, b].  The sums run on the
    ints of the field and are divided by its den once."""
    den, rows = X.den, X.ints
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
    return Poly({m: c / den for m, c in out.items()} if den > 1 else out)


def rank_at(fields: Sequence[LinearVectorField], p: Sequence) -> int:
    """Rank of the span of the fields at p (the stratum dimension there):
    the rank of M(p), whose row i holds the coefficients of field i at p.

    Counted in ``int`` arithmetic on the column map of the fields
    (``field_columns``, built for this call; ``AlgebraContext`` keeps one
    per algebra) at p scaled by the lcm of its denominators."""
    _, q = clear_denominators(rat(x) for x in p)
    return _rank_at_ints(field_columns(fields), q)


#: ``field_columns(fields)``: the distinct sizes of the fields, and per
#: coordinate j the entries (field i, row a, D_i·A_i[a][j]) that are nonzero
FieldColumns = tuple[tuple[int, ...], list[list[tuple[int, int, int]]]]


def field_columns(fields: Sequence[LinearVectorField]) -> FieldColumns:
    """The column map of the fields, for rank counts at many points.

    Field i's matrix A_i is read as its rows D_i·A_i, with D_i the lcm of
    all of its own denominators, so row i of M(p) is multiplied by the
    positive integer D_i and the rank is kept.  (Scaling each row of A_i by
    its own lcm would scale single entries of M(p) and change the rank.)"""
    widths = tuple(dict.fromkeys(X.rows for X in fields))
    columns: list[list[tuple[int, int, int]]] = [
        [] for _ in range(max(widths, default=0))]
    for i, X in enumerate(fields):
        for a, r in enumerate(X.ints):
            for j, x in r:
                columns[j].append((i, a, x))
    return widths, columns


def _rank_at_ints(cols: FieldColumns, q: Sequence[int]) -> int:
    """``rank_at`` at the point q/den, given as the ints q for any den > 0
    (``clear_denominators``): scaling p does not change the rank.  Only
    the coordinates with q_j != 0 are visited; the pivots of the integer
    rows of M(q) are counted by fraction-free elimination
    (``int_echelon``)."""
    widths, columns = cols
    for w in widths:
        if w != len(q):
            raise ValueError(f"matvec size mismatch: {w} vs {len(q)}")
    rows: dict[int, dict[int, int]] = {}
    for qj, col in zip(q, columns):
        if qj:
            for i, a, x in col:
                row = rows.setdefault(i, {})
                row[a] = row.get(a, 0) + x * qj
    return len(int_echelon({a: v for a, v in row.items() if v}
                           for row in rows.values()))
