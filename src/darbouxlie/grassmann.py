"""Exterior algebra over a Lie algebra basis: wedge products, the algebraic
Schouten bracket, the ad-action on multivectors, and invariant subspaces.

Basis m-vectors are encoded as bitmasks over at most 8 generators; blades
are ordered lexicographically by their sorted index tuples, so for dim 4 the
degree-2 order is (e12, e13, e14, e23, e24, e34), matching the coordinate
functions x1..x6.  The bracket follows the hat-omission expansion

    [X1^..^Xs, Y1^..^Yl] = sum_{i,j} (-1)^{i+j} [Xi,Yj] ^ X\\i ^ Y\\j,

which for degree-1 arguments reduces to the Lie bracket.  The matrices of
maps on Λ^m g and [r, r] of the generic bivector are built by index
arithmetic on the blade masks and basis brackets, with no multivector.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Sequence

from .exactmath import Poly, RatMatrix, kernel_basis, rat
from .liealg import DimensionMismatch, LieAlgebra


def _popcount(x: int) -> int:
    return bin(x).count("1")


def mask_of(indices: Sequence[int]) -> int:
    m = 0
    for i in indices:
        if m & (1 << i):
            return -1  # repeated index
        m |= 1 << i
    return m


def indices_of(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask & (1 << i))


@cache
def blades(dim: int, m: int) -> tuple[int, ...]:
    """Degree-m basis masks in lexicographic index-tuple order, built once
    per (dim, m)."""
    out = []

    def rec(start: int, left: int, acc: int):
        if not left:
            out.append(acc)
            return
        for i in range(start, dim - left + 1):
            rec(i + 1, left - 1, acc | (1 << i))

    rec(0, m, 0)
    return tuple(out)


def blade_name(mask: int) -> str:
    return "e" + "".join(str(i + 1) for i in indices_of(mask))


def wedge_sign(a: int, b: int) -> int:
    """Sign of merging sorted blades a and b (0 if they overlap)."""
    if a & b:
        return 0
    sign = 1
    for j in indices_of(b):
        if _popcount(a >> (j + 1)) & 1:
            sign = -sign
    return sign


class MultiVector:
    """Element of Λ^m g: sparse map from basis masks to nonzero Fraction
    coefficients."""

    __slots__ = ("dim", "degree", "terms")

    def __init__(self, dim: int, degree: int, terms=None):
        if dim > 8:
            raise DimensionMismatch("exterior masks support dim <= 8")
        self.dim = dim
        self.degree = degree
        clean = {}
        if terms:
            for mask, c in (terms.items() if isinstance(terms, dict) else terms):
                if _popcount(mask) != degree:
                    raise ValueError(f"mask {mask:b} has wrong degree")
                if mask >> dim:
                    raise DimensionMismatch("blade index beyond dimension")
                if c:
                    clean[mask] = clean.get(mask, Fraction(0)) + c
                    if not clean[mask]:
                        del clean[mask]
        self.terms = clean

    # constructors -----------------------------------------------------------
    @staticmethod
    def zero(dim: int, degree: int) -> "MultiVector":
        return MultiVector(dim, degree)

    @staticmethod
    def blade(dim: int, indices: Sequence[int], coeff=1) -> "MultiVector":
        mask = mask_of(indices)
        if mask < 0:
            return MultiVector(dim, len(indices))
        return MultiVector(dim, len(indices), {mask: rat(coeff)})

    @staticmethod
    def vector(dim: int, v: Sequence) -> "MultiVector":
        return MultiVector(dim, 1, {1 << i: rat(x)
                                    for i, x in enumerate(v) if rat(x)})

    # basics -----------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, indices: Sequence[int]):
        return self.terms.get(mask_of(indices), Fraction(0))

    def coords(self) -> tuple:
        """Coefficients in the canonical blade order of this degree."""
        return tuple(self.terms.get(b, Fraction(0))
                     for b in blades(self.dim, self.degree))

    @staticmethod
    def from_coords(dim: int, degree: int, coords: Sequence) -> "MultiVector":
        bl = blades(dim, degree)
        if len(coords) != len(bl):
            raise DimensionMismatch("coordinate count mismatch")
        return MultiVector(dim, degree, dict(zip(bl, map(rat, coords))))

    def __add__(self, other):
        if other == 0:
            return self
        if not isinstance(other, MultiVector):
            raise DimensionMismatch(f"cannot add {other} to a multivector")
        if self.dim != other.dim or self.degree != other.degree:
            raise DimensionMismatch("mismatched multivectors")
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return MultiVector(self.dim, self.degree, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiVector(self.dim, self.degree,
                           {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, scalar):
        if not rat(scalar):
            return MultiVector(self.dim, self.degree)
        return MultiVector(self.dim, self.degree,
                           {m: c * scalar for m, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if other == 0:
            return not self.terms
        return (isinstance(other, MultiVector) and self.dim == other.dim
                and self.degree == other.degree and self.terms == other.terms)

    def __hash__(self):
        return hash((self.dim, self.degree, frozenset(self.terms)))

    def text(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for mask in sorted(self.terms, key=indices_of):
            c = self.terms[mask]
            name = blade_name(mask)
            if c == 1:
                frag = name
            elif c == -1:
                frag = f"-{name}"
            else:
                frag = f"{c}*{name}"
            bits.append(frag)
        out = bits[0]
        for frag in bits[1:]:
            out += f" - {frag[1:]}" if frag.startswith("-") else f" + {frag}"
        return out

    def __repr__(self):
        return f"<{type(self).__name__} {self.text()}>"


def wedge(a: MultiVector, b: MultiVector) -> MultiVector:
    """Exterior product; graded anticommutative and bilinear."""
    if a.dim != b.dim:
        raise DimensionMismatch("wedge of multivectors over different algebras")
    out: dict[int, Fraction] = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            s = wedge_sign(ma, mb)
            if not s:
                continue
            m = ma | mb
            c = out.get(m, Fraction(0)) + s * ca * cb
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return MultiVector(a.dim, a.degree + b.degree, out)


def leibniz_matrix(images: Sequence[Sequence], m: int) -> RatMatrix:
    """Matrix on Λ^m g, in blade order, of the derivation extending
    e_i -> sum_k images[i][k] e_k.  On a blade e_I each e_i is replaced by
    e_k: the image blade is I - {i} + {k}, with sign (-1)^(the number of
    elements of I - {i} strictly between i and k), or 0 if k is in I - {i}."""
    n = len(images)
    bl = blades(n, m)
    pos = {b: p for p, b in enumerate(bl)}
    out = [[Fraction(0)] * len(bl) for _ in bl]
    for c, mask in enumerate(bl):
        for i in indices_of(mask):
            rest = mask ^ 1 << i
            for k, x in enumerate(images[i]):
                if x and not rest >> k & 1:
                    odd = _popcount((rest >> (i + 1)) ^ (rest >> (k + 1))) & 1
                    out[pos[rest | 1 << k]][c] += -x if odd else x
    return RatMatrix(out)


def _schouten_blades(g: LieAlgebra, ma: int, mb: int):
    """[e_A, e_B] for basis blades, as a dict from mask to Fraction."""
    ia = indices_of(ma)
    ib = indices_of(mb)
    out: dict[int, Fraction] = {}
    for p, i in enumerate(ia, start=1):
        rest_a = ma & ~(1 << i)
        for q, j in enumerate(ib, start=1):
            rest_b = mb & ~(1 << j)
            s0 = wedge_sign(rest_a, rest_b)
            if not s0:
                continue
            rest = rest_a | rest_b
            sign_pq = -1 if (p + q) & 1 else 1
            row = g.c[i][j]
            for k in range(g.dim):
                ck = row[k]
                if not ck:
                    continue
                s1 = wedge_sign(1 << k, rest)
                if not s1:
                    continue
                m = (1 << k) | rest
                val = out.get(m, Fraction(0)) + sign_pq * s0 * s1 * ck
                if val:
                    out[m] = val
                else:
                    out.pop(m, None)
    return out


def schouten(g: LieAlgebra, a: MultiVector, b: MultiVector) -> MultiVector:
    """Algebraic Schouten bracket on Λg; degree s + l - 1."""
    if a.dim != g.dim or b.dim != g.dim:
        raise DimensionMismatch("multivector dimension does not match algebra")
    deg = a.degree + b.degree - 1
    if a.degree == 0 or b.degree == 0:
        return MultiVector(g.dim, max(deg, 0))
    if a.degree == 2 and a == b:
        # [e_A, e_B] = [e_B, e_A] on bivectors: each unordered pair of terms
        # once, the off-diagonal ones doubled (as in ``generic_rr``)
        items = list(a.terms.items())
        pairs = ((ma, mb, ca * cb * (2 if j > i else 1))
                 for i, (ma, ca) in enumerate(items)
                 for j, (mb, cb) in enumerate(items[i:], i))
    else:
        pairs = ((ma, mb, ca * cb) for ma, ca in a.terms.items()
                 for mb, cb in b.terms.items())
    out: dict[int, Fraction] = {}
    for ma, mb, w in pairs:
        for m, c in _schouten_blades(g, ma, mb).items():
            val = out.get(m, Fraction(0)) + w * c
            if val:
                out[m] = val
            else:
                out.pop(m, None)
    return MultiVector(g.dim, deg, out)


def ad_action(g: LieAlgebra, v: Sequence, w: MultiVector) -> MultiVector:
    """ad_v(w) = [v, w]; satisfies the Leibniz rule over the wedge."""
    return schouten(g, MultiVector.vector(g.dim, v), w)


def ad_matrix(g: LieAlgebra, i: int, m: int) -> RatMatrix:
    """Matrix of ad_{e_i} on Λ^m g in the canonical blade order: the
    Leibniz extension of e_j -> [e_i, e_j] = sum_k c[i][j][k] e_k."""
    return leibniz_matrix(g.c[i], m)


def invariants(g: LieAlgebra, m: int) -> list[MultiVector]:
    """Basis of (Λ^m g)^g = {w : ad_{e_i}(w) = 0 for all i}."""
    if m < 0 or m > g.dim:
        return []
    if m == 0:
        return [MultiVector(g.dim, 0, {0: Fraction(1)})]
    rows = []
    for i in range(g.dim):
        rows.extend(ad_matrix(g, i, m).entries)
    return [MultiVector.from_coords(g.dim, m, v)
            for v in kernel_basis(RatMatrix(rows))]


def lambda_matrix(T: RatMatrix, m: int) -> RatMatrix:
    """Λ^m T, the m-th compound matrix of T: the column of e_J is
    T e_j1 ^ .. ^ T e_jm, wedged on dicts from blade mask to coefficient."""
    bl = blades(T.rows, m)
    cols = []
    for mask in bl:
        img = {0: Fraction(1)}
        for j in indices_of(mask):
            col = T.col(j)
            nxt: dict[int, Fraction] = {}
            for mk, y in img.items():
                for k, x in enumerate(col):
                    if x and not mk >> k & 1:
                        v = -x * y if _popcount(mk >> (k + 1)) & 1 else x * y
                        nxt[mk | 1 << k] = nxt.get(mk | 1 << k, 0) + v
            img = nxt
        cols.append([img.get(b, Fraction(0)) for b in bl])
    return RatMatrix(list(zip(*cols)))


def generic_rr(g: LieAlgebra) -> list[Poly]:
    """[r, r] of the generic bivector r = sum_a x_a e_B(a), one Poly per
    degree-3 blade in ``blades`` order.  The bracket is symmetric on
    bivectors, so [r, r] = sum_{a <= b} w x_a x_b [e_B(a), e_B(b)] with
    w = 1 if a = b and w = 2 otherwise."""
    b2 = blades(g.dim, 2)
    pos = {b: p for p, b in enumerate(blades(g.dim, 3))}
    terms: list[dict] = [{} for _ in pos]
    for a, ma in enumerate(b2):
        for b in range(a, len(b2)):
            mono, w = (((a, 2),), 1) if a == b else (((a, 1), (b, 1)), 2)
            for m, c in _schouten_blades(g, ma, b2[b]).items():
                terms[pos[m]][mono] = w * c
    return [Poly(t) for t in terms]


def apply_linear(T: RatMatrix, w: MultiVector) -> MultiVector:
    """(Λ^m T)(w) for an invertible map T on g."""
    out = MultiVector.from_coords(
        w.dim, w.degree, lambda_matrix(T, w.degree).matvec(w.coords()))
    return out
