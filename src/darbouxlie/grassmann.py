"""Exterior algebra over a Lie algebra basis: wedge products, the algebraic
Schouten bracket, the ad-action on multivectors, and invariant subspaces.

Basis m-vectors are encoded as bitmasks over at most 8 generators; blades
are ordered lexicographically by their sorted index tuples, so for dim 4 the
degree-2 order is (e12, e13, e14, e23, e24, e34), matching the coordinate
functions x1..x6.  The bracket follows the hat-omission expansion

    [X1^..^Xs, Y1^..^Yl] = sum_{i,j} (-1)^{i+j} [Xi,Yj] ^ X\\i ^ Y\\j,

which for degree-1 arguments reduces to the Lie bracket.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Sequence, Union

from .exactmath import Poly, RatMatrix, kernel_basis, rat
from .liealg import DimensionMismatch, LieAlgebra

Coeff = Union[Fraction, Poly]


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


def _iszero(c) -> bool:
    return c.is_zero() if isinstance(c, Poly) else not c


class MultiVector:
    """Element of Λ^m g: sparse map from basis masks to coefficients.

    Coefficients are Fractions; :class:`SymMultiVector` carries Poly
    coefficients with the same blade discipline.
    """

    __slots__ = ("dim", "degree", "terms")
    _coeff_zero = Fraction(0)

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
                if not _iszero(c):
                    clean[mask] = clean.get(mask, self._coeff_zero) + c
                    if _iszero(clean[mask]):
                        del clean[mask]
        self.terms = clean

    # constructors -----------------------------------------------------------
    @classmethod
    def zero(cls, dim: int, degree: int):
        return cls(dim, degree, None)

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
        return self.terms.get(mask_of(indices), self._coeff_zero)

    def coords(self) -> tuple:
        """Coefficients in the canonical blade order of this degree."""
        return tuple(self.terms.get(b, self._coeff_zero)
                     for b in blades(self.dim, self.degree))

    @classmethod
    def from_coords(cls, dim: int, degree: int, coords: Sequence):
        bl = blades(dim, degree)
        if len(coords) != len(bl):
            raise DimensionMismatch("coordinate count mismatch")
        if cls is MultiVector:
            coords = [rat(x) for x in coords]
        return cls(dim, degree, dict(zip(bl, coords)))

    def _like(self, degree: int, terms) -> "MultiVector":
        return type(self)(self.dim, degree, terms)

    def __add__(self, other):
        if other == 0:
            return self
        if not isinstance(other, MultiVector):
            raise DimensionMismatch(f"cannot add {other} to a multivector")
        if self.dim != other.dim or self.degree != other.degree:
            raise DimensionMismatch("mismatched multivectors")
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, self._coeff_zero) + c
            if _iszero(s):
                out.pop(m, None)
            else:
                out[m] = s
        return self._like(self.degree, out)

    __radd__ = __add__

    def __neg__(self):
        return self._like(self.degree, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, scalar):
        if _iszero(scalar if isinstance(scalar, Poly) else rat(scalar)):
            return self._like(self.degree, None)
        return self._like(self.degree,
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
            if isinstance(c, Poly):
                frag = f"({c.text()})*{name}"
            elif c == 1:
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


class SymMultiVector(MultiVector):
    """Multivector whose coefficients are polynomials in x1..xN."""

    __slots__ = ()
    _coeff_zero = Poly.zero()


def wedge(a: MultiVector, b: MultiVector) -> MultiVector:
    """Exterior product; graded anticommutative and bilinear."""
    if a.dim != b.dim:
        raise DimensionMismatch("wedge of multivectors over different algebras")
    cls = SymMultiVector if isinstance(a, SymMultiVector) or \
        isinstance(b, SymMultiVector) else MultiVector
    out: dict[int, Coeff] = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            s = wedge_sign(ma, mb)
            if not s:
                continue
            m = ma | mb
            c = out.get(m, cls._coeff_zero) + s * ca * cb
            if _iszero(c):
                out.pop(m, None)
            else:
                out[m] = c
    return cls(a.dim, a.degree + b.degree, out)


def _schouten_blades(g: LieAlgebra, ma: int, mb: int):
    """[e_A, e_B] for basis blades, as a list of (mask, Fraction) pairs."""
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
    cls = SymMultiVector if isinstance(a, SymMultiVector) or \
        isinstance(b, SymMultiVector) else MultiVector
    deg = a.degree + b.degree - 1
    if a.degree == 0 or b.degree == 0:
        return cls(g.dim, max(deg, 0))
    out: dict[int, Coeff] = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            for m, c in _schouten_blades(g, ma, mb).items():
                val = out.get(m, cls._coeff_zero) + ca * cb * c
                if _iszero(val):
                    out.pop(m, None)
                else:
                    out[m] = val
    return cls(g.dim, deg, out)


def ad_action(g: LieAlgebra, v: Sequence, w: MultiVector) -> MultiVector:
    """ad_v(w) = [v, w]; satisfies the Leibniz rule over the wedge."""
    return schouten(g, MultiVector.vector(g.dim, v), w)


def ad_matrix(g: LieAlgebra, i: int, m: int) -> RatMatrix:
    """Matrix of ad_{e_i} on Λ^m g in the canonical blade order."""
    bl = blades(g.dim, m)
    cols = []
    for mask in bl:
        img = ad_action(g, [1 if k == i else 0 for k in range(g.dim)],
                        MultiVector(g.dim, m, {mask: Fraction(1)}))
        cols.append([img.terms.get(b, Fraction(0)) for b in bl])
    return RatMatrix(list(zip(*cols)))


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


def generic_bivector(g: LieAlgebra) -> SymMultiVector:
    """r = sum_a x_a e_{B(a)} over the canonical degree-2 blades."""
    return SymMultiVector(g.dim, 2, {b: Poly.var(a)
                                     for a, b in enumerate(blades(g.dim, 2))})


def lambda_matrix(T: RatMatrix, m: int) -> RatMatrix:
    """Λ^m T for an invertible map T (wedge of images on each blade)."""
    dim = T.rows
    bl = blades(dim, m)
    cols = []
    for mask in bl:
        img = MultiVector(dim, 0, {0: Fraction(1)})
        for i in indices_of(mask):
            img = wedge(img, MultiVector.vector(dim, T.col(i)))
        cols.append([img.terms.get(b, Fraction(0)) for b in bl])
    return RatMatrix(list(zip(*cols)))


def apply_linear(T: RatMatrix, w: MultiVector) -> MultiVector:
    """(Λ^m T)(w) for an invertible map T on g."""
    out = MultiVector.from_coords(
        w.dim, w.degree, lambda_matrix(T, w.degree).matvec(w.coords()))
    return out
