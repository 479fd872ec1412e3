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

from .exactmath import (Poly, RatMatrix, clear_denominators,
                        int_kernel_basis, rat)
from .liealg import DimensionMismatch, LieAlgebra


_popcount = int.bit_count


def mask_of(indices: Sequence[int]) -> int:
    m = 0
    for i in indices:
        if m & (1 << i):
            return -1  # repeated index
        m |= 1 << i
    return m


@cache
def indices_of(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask & (1 << i))


@cache
def blades(dim: int, m: int) -> tuple[int, ...]:
    """Degree-m basis masks in lexicographic index-tuple order, built once
    per (dim, m); none for m < 0 or m > dim."""
    out = []

    def rec(start: int, left: int, acc: int):
        if not left:
            out.append(acc)
            return
        for i in range(start, dim - left + 1):
            rec(i + 1, left - 1, acc | (1 << i))

    if m >= 0:
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
        if len(v) != dim:
            raise DimensionMismatch("vector length does not match dimension")
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


def leibniz_rows(images: Sequence[Sequence], m: int) -> list[dict]:
    """The matrix on Λ^m g, in blade order, of the derivation extending
    e_i -> sum_k images[i][k] e_k, as sparse rows {column: nonzero entry},
    in the arithmetic of the images (ints stay ints).

    On a blade e_I each e_i is replaced by e_k: the image blade is
    I - {i} + {k}, with sign (-1)^(the number of elements of I - {i}
    strictly between i and k), or 0 if k is in I - {i}.  Only k = i puts
    two terms in one entry (the diagonal)."""
    n = len(images)
    bl = blades(n, m)
    pos = {b: p for p, b in enumerate(bl)}
    out: list[dict] = [{} for _ in bl]
    for c, mask in enumerate(bl):
        for i in indices_of(mask):
            rest = mask ^ 1 << i
            for k, x in enumerate(images[i]):
                if x and not rest >> k & 1:
                    odd = _popcount((rest >> (i + 1)) ^ (rest >> (k + 1))) & 1
                    row = out[pos[rest | 1 << k]]
                    y = row.get(c, 0) + (-x if odd else x)
                    if y:
                        row[c] = y
                    else:
                        del row[c]
    return out


def _schouten_blades(g: LieAlgebra, ma: int, mb: int) -> dict[int, int]:
    """D·[e_A, e_B] for basis blades, on the integer table D·c: a dict
    from mask to nonzero int."""
    _, c = g.int_table
    out: dict[int, int] = {}
    for p, i in enumerate(indices_of(ma)):
        rest_a = ma ^ 1 << i
        for q, j in enumerate(indices_of(mb)):
            rest_b = mb ^ 1 << j
            s0 = wedge_sign(rest_a, rest_b)
            if not s0:
                continue
            rest = rest_a | rest_b
            sign = -s0 if (p + q) & 1 else s0
            for k, ck in enumerate(c[i][j]):
                if not ck or rest >> k & 1:
                    continue
                # e_k ^ e_rest: e_k passes the indices of rest below k
                if _popcount(rest & ((1 << k) - 1)) & 1:
                    ck = -ck
                m = rest | 1 << k
                val = out.get(m, 0) + sign * ck
                if val:
                    out[m] = val
                else:
                    del out[m]
    return out


def schouten(g: LieAlgebra, a: MultiVector, b: MultiVector) -> MultiVector:
    """Algebraic Schouten bracket on Λg; degree s + l - 1.

    Summed in ``int`` arithmetic: a and b are scaled to integer
    coefficients by the lcm of their denominators, the blade brackets are
    D times the true ones (``_schouten_blades``), and each coefficient of
    the sum is divided by the product of the three scales once."""
    if a.dim != g.dim or b.dim != g.dim:
        raise DimensionMismatch("multivector dimension does not match algebra")
    deg = a.degree + b.degree - 1
    if a.degree == 0 or b.degree == 0:
        return MultiVector(g.dim, max(deg, 0))
    da, ia = clear_denominators(a.terms.values())
    if a.degree == 2 and a == b:
        # [e_A, e_B] = [e_B, e_A] on bivectors: each unordered pair of terms
        # once, the off-diagonal ones doubled (as in ``generic_rr``)
        items = list(zip(a.terms, ia))
        pairs = ((ma, mb, x * y * (2 if j > i else 1))
                 for i, (ma, x) in enumerate(items)
                 for j, (mb, y) in enumerate(items[i:], i))
        den = da * da
    else:
        db, ib = clear_denominators(b.terms.values())
        pairs = ((ma, mb, x * y) for ma, x in zip(a.terms, ia)
                 for mb, y in zip(b.terms, ib))
        den = da * db
    out: dict[int, int] = {}
    for ma, mb, w in pairs:
        for m, c in _schouten_blades(g, ma, mb).items():
            val = out.get(m, 0) + w * c
            if val:
                out[m] = val
            else:
                del out[m]
    den *= g.int_table[0]
    return MultiVector(g.dim, deg, {m: Fraction(x, den)
                                    for m, x in out.items()})


def ad_action(g: LieAlgebra, v: Sequence, w: MultiVector) -> MultiVector:
    """ad_v(w) = [v, w]; satisfies the Leibniz rule over the wedge."""
    return schouten(g, MultiVector.vector(g.dim, v), w)


def invariants(g: LieAlgebra, m: int) -> list[MultiVector]:
    """Basis of (Λ^m g)^g = {w : ad_{e_i}(w) = 0 for all i}: the kernel of
    the stacked ad_{e_i} matrices, built as integer rows on D·c
    (``leibniz_rows``), which scales the whole system by D."""
    if m < 0 or m > g.dim:
        return []
    if m == 0:
        return [MultiVector(g.dim, 0, {0: Fraction(1)})]
    _, c = g.int_table
    rows = [r for i in range(g.dim) for r in leibniz_rows(c[i], m) if r]
    return [MultiVector.from_coords(g.dim, m, v)
            for v in int_kernel_basis(rows, len(blades(g.dim, m)))]


def compound(T: RatMatrix, m: int) -> RatMatrix:
    """Λ^m T, the m-th compound of the square T, built on the integer form
    (d, t) of T as (Λ^m t)/d^m.  Row J of Λ^m t is the wedge of rows
    j1..jm of t: Λ^m(tᵀ) = (Λ^m t)ᵀ."""
    t = T.ints
    bl = blades(T.rows, m)
    rows = []
    for mask in bl:
        img = {0: 1}
        for j in indices_of(mask):
            nxt: dict[int, int] = {}
            for mk, y in img.items():
                for k, x in t[j]:
                    if not mk >> k & 1:
                        v = -x * y if _popcount(mk >> (k + 1)) & 1 else x * y
                        nxt[mk | 1 << k] = nxt.get(mk | 1 << k, 0) + v
            img = nxt
        rows.append([(c, img[b]) for c, b in enumerate(bl) if img.get(b)])
    return RatMatrix.from_ints(T.den ** max(m, 0), rows, len(bl))


def generic_rr(g: LieAlgebra) -> list[Poly]:
    """[r, r] of the generic bivector r = sum_a x_a e_B(a), one Poly per
    degree-3 blade in ``blades`` order.  The bracket is symmetric on
    bivectors, so [r, r] = sum_{a <= b} w x_a x_b [e_B(a), e_B(b)] with
    w = 1 if a = b and w = 2 otherwise; each coefficient is w·D·[..]
    from the integer table, divided by D once."""
    d = g.int_table[0]
    b2 = blades(g.dim, 2)
    pos = {b: p for p, b in enumerate(blades(g.dim, 3))}
    terms: list[dict] = [{} for _ in pos]
    for a, ma in enumerate(b2):
        for b in range(a, len(b2)):
            mono, w = (((a, 2),), 1) if a == b else (((a, 1), (b, 1)), 2)
            for m, c in _schouten_blades(g, ma, b2[b]).items():
                terms[pos[m]][mono] = Fraction(w * c, d)
    return [Poly(t) for t in terms]


def apply_linear(T: RatMatrix, w: MultiVector) -> MultiVector:
    """(Λ^m T)(w), by the ``compound`` of T."""
    if (T.rows, T.cols) != (w.dim, w.dim):
        raise DimensionMismatch("map and multivector dimensions differ")
    return MultiVector.from_coords(
        w.dim, w.degree, compound(T, w.degree).matvec(w.coords()))
