"""Yang-Baxter machinery: the symbolic [r, r], the CYBE/mCYBE polynomial
systems, solution tests, cocommutators, the quotient by invariant bivectors,
and the necessary-condition checks for equivalence of r-matrices.

Membership in the mCYBE is decided two ways: ``is_mcybe_solution`` on the
evaluated 3-vector ([r, r] annihilated by every ad_{e_i}), and
``AlgebraContext.is_mcybe_at`` on the integer forms of the mCYBE
polynomials, which the batch checks use.  The two agreeing is a tested
invariant, not an assumption.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Sequence, Union

from .derivations import (Derivation, LinearVectorField, derivation_basis,
                          lift, rank_at)
from .exactmath import (IntPoly, Poly, RatMatrix, clear_denominators,
                        normalize_poly, poly_rref, rank, rref, rat)
from .grassmann import (MultiVector, ad_action, apply_linear, generic_rr,
                        invariants, schouten)
from .liealg import DimensionMismatch, LieAlgebra, bracket

#: an r-matrix: coordinates on Λ²g in blade order, or the bivector itself
RMatrix = Union[Sequence, MultiVector]


class NotAnAutomorphism(ValueError):
    pass


def as_bivector(g: LieAlgebra, r: RMatrix) -> MultiVector:
    if isinstance(r, MultiVector):
        if r.dim != g.dim or r.degree != 2:
            raise DimensionMismatch("not a bivector over this algebra")
        return r
    coords = [rat(x) for x in r]
    return MultiVector.from_coords(g.dim, 2, coords)


@dataclass
class YbSystem:
    """The polynomial content of [r, r] for a fixed algebra.

    cybe: normalized coefficient polynomials of [r, r] in blade order.
    mcybe: canonical components of [r, r] after projecting out (Λ³g)^g.
    inv3: basis of (Λ³g)^g.
    reduced: span-reduced display form of the mCYBE system (pure powers and
    positive sums of squares split into their linear generators).
    """

    cybe: list[Poly]
    mcybe: list[Poly]
    inv3: list[MultiVector]
    reduced: list[Poly] = field(default_factory=list)


def _span_rref(vs: list[MultiVector]) -> tuple[RatMatrix, list[int]]:
    return rref(RatMatrix([v.coords() for v in vs]))


def _project_out(coords: list, span: tuple[RatMatrix, list[int]]) -> list:
    """Canonical components after eliminating the pivot coordinates of an
    invariant span given by its RREF (deterministic complement: the
    non-pivot coordinates).  The coordinates may be Polys or Fractions."""
    red, pivots = span
    out = list(coords)
    for prow, pc in enumerate(pivots):
        factor = out[pc]
        for j in range(len(out)):
            if j == pc:
                continue
            if red[prow, j]:
                out[j] = out[j] - factor * red[prow, j]
        out[pc] = Poly.zero()
    return [out[j] for j in range(len(out)) if j not in pivots]


def reduce_system(polys: Sequence[Poly]) -> list[Poly]:
    """Real-locus display reduction of a quadratic system: whenever the span
    contains c*x_i^k or a positive combination of squares of variables, those
    variables vanish on the real locus and are split off as linear
    generators.  Returns a normalized generating list with the same real
    locus (matches the hand-simplified systems in the classification)."""
    work = [normalize_poly(p) for p in polys if not p.is_zero()]
    killed: list[int] = []
    changed = True
    while changed:
        changed = False
        basis = _span_basis(work)
        for p in basis:
            vs = _pure_square_vars(p)
            if vs and not all(v in killed for v in vs):
                for v in vs:
                    if v not in killed:
                        killed.append(v)
                # x_v = 0 for every killed v: drop the terms that contain one
                work = [normalize_poly(Poly({
                    m: c for m, c in q.terms.items()
                    if not any(v in killed for v, _ in m)})) for q in work]
                work = [q for q in work if not q.is_zero()]
                changed = True
                break
    gens = [Poly.var(v) for v in sorted(killed)] + _span_basis(work)
    gens = [normalize_poly(p) for p in gens if not p.is_zero()]
    return sorted(gens, key=lambda p: (p.degree(), p.text()))


def _span_basis(polys: Sequence[Poly]) -> list[Poly]:
    """Normalized RREF basis of the Q-span, highest monomials first."""
    return [normalize_poly(p) for p in poly_rref(polys, reverse=True)]


def _pure_square_vars(p: Poly) -> list[int]:
    """If p = sum_i c_i x_i^2 with all c_i of one sign (or p = c x_i^k),
    the variables forced to zero on the real locus; else []."""
    vs = []
    sign = 0
    for m, c in p.terms.items():
        if len(m) != 1:
            return []
        v, e = m[0]
        if e < 2 or e % 2:
            return []
        s = 1 if c > 0 else -1
        if sign and s != sign:
            return []
        sign = s
        vs.append(v)
    return vs


def yb_system(g: LieAlgebra) -> YbSystem:
    """[r, r] as polynomials: the CYBE components, the mCYBE components in
    the quotient by (Λ³g)^g, and a reduced display system."""
    return AlgebraContext(g).yb_system


def is_mcybe_solution(g: LieAlgebra, r: RMatrix) -> bool:
    """True iff [r, r] is g-invariant (checked directly on the 3-vector)."""
    rr = schouten(g, as_bivector(g, r), as_bivector(g, r))
    basis = [[1 if k == i else 0 for k in range(g.dim)] for i in range(g.dim)]
    return all(ad_action(g, v, rr).is_zero() for v in basis)


def is_cybe_solution(g: LieAlgebra, r: RMatrix) -> bool:
    """True iff [r, r] = 0 exactly."""
    rv = as_bivector(g, r)
    return schouten(g, rv, rv).is_zero()


def cocommutator(g: LieAlgebra, r: RMatrix, v: Sequence) -> MultiVector:
    """delta_r(v) = [v, r].  Well-defined for any bivector; warns when r is
    not an mCYBE solution, where the co-Jacobi property fails."""
    rv = as_bivector(g, r)
    if not is_mcybe_solution(g, rv):
        warnings.warn("cocommutator of a non-mCYBE bivector: the induced "
                      "bracket on the dual fails co-Jacobi", stacklevel=2)
    return ad_action(g, v, rv)


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


def quotient_class(g: LieAlgebra, r: RMatrix) -> tuple[Fraction, ...]:
    """Coordinates of r in Λ²g / (Λ²g)^g, in the deterministic complement
    basis given by the non-pivot blade coordinates of the invariant span."""
    return AlgebraContext(g).quotient_class(r)


def is_automorphism(g: LieAlgebra, T: RatMatrix) -> bool:
    """Exact bracket preservation T[v,w] = [Tv, Tw] on basis pairs, plus
    invertibility."""
    if T.rows != g.dim or T.cols != g.dim:
        return False
    if rank(T) != g.dim:
        return False
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = T.matvec(g.c[i][j])
            rhs = bracket(g, T.col(i), T.col(j))
            if tuple(lhs) != tuple(rhs):
                return False
    return True


def same_coboundary(g: LieAlgebra, r1: RMatrix, r2: RMatrix,
                    T: RatMatrix) -> bool:
    """Whether (Λ²T) r1 and r2 induce the same cocommutator, i.e. agree in
    Λ²g/(Λ²g)^g.  T must preserve brackets exactly."""
    return AlgebraContext(g).same_coboundary(r1, r2, T)


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


@dataclass
class NecessaryReport:
    rank1: int
    rank2: int
    rr1_zero: bool
    rr2_zero: bool
    rr1_invariant: bool
    rr2_invariant: bool
    orbit_dim1: int
    orbit_dim2: int
    provably_inequivalent: bool
    reasons: list[str]

    @classmethod
    def compare(cls, sig1: tuple, sig2: tuple) -> "NecessaryReport":
        """The report for two representatives from their signatures
        (``AlgebraContext.signature``)."""
        (k1, z1, inv1, d1), (k2, z2, inv2, d2) = sig1, sig2
        reasons = []
        if k1 != k2:
            reasons.append(f"bilinear ranks differ: {k1} vs {k2}")
        if z1 != z2:
            reasons.append("[r1,r1] and [r2,r2] do not vanish together")
        if inv1 != inv2:
            reasons.append("[r,r] invariance differs")
        if d1 != d2:
            reasons.append(f"orbit dimensions differ: {d1} vs {d2}")
        return cls(rank1=k1, rank2=k2, rr1_zero=z1, rr2_zero=z2,
                   rr1_invariant=inv1, rr2_invariant=inv2,
                   orbit_dim1=d1, orbit_dim2=d2,
                   provably_inequivalent=bool(reasons), reasons=reasons)


def necessary_checks(g: LieAlgebra, r1: RMatrix, r2: RMatrix) -> NecessaryReport:
    """Machine-checkable necessary conditions for equivalence of two
    r-matrices: equal bilinear ranks, matching [r,r] vanishing/invariance,
    and equal orbit dimensions.  Any failure proves inequivalence."""
    ctx = AlgebraContext(g)
    return NecessaryReport.compare(ctx.signature(r1), ctx.signature(r2))


class AlgebraContext:
    """The derived data of one concrete algebra, each piece computed at most
    once: derivations, their Λ² fields, (Λ²g)^g and (Λ³g)^g with their
    RREFs, the symbolic [r, r] and the Yang-Baxter system.  Build one per
    algebra and pass it along; ``ders`` overrides the derivation basis.

    ``is_mcybe_at`` tests a point in ``int`` arithmetic on the ``IntPoly``
    forms of the mCYBE system, built once: the point is first scaled by the
    lcm of its denominators, which keeps the answer because the mCYBE
    polynomials are homogeneous quadratics.  ``same_coboundary`` checks
    each matrix T once and remembers the ones that preserve brackets."""

    def __init__(self, g: LieAlgebra, ders: list[Derivation] | None = None):
        self.g = g
        self._automorphisms: set[RatMatrix] = set()
        if ders is not None:
            self.ders = ders

    @cached_property
    def ders(self) -> list[Derivation]:
        return derivation_basis(self.g)

    @cached_property
    def fields(self) -> list[LinearVectorField]:
        return [lift(d, 2) for d in self.ders]

    @cached_property
    def inv2(self) -> tuple[list[MultiVector], tuple[RatMatrix, list[int]]]:
        inv = invariants(self.g, 2)
        return inv, _span_rref(inv)

    @cached_property
    def inv3(self) -> tuple[list[MultiVector], tuple[RatMatrix, list[int]]]:
        inv = invariants(self.g, 3)
        return inv, _span_rref(inv)

    @cached_property
    def rr(self) -> list[Poly]:
        """[r, r] of the generic bivector, one Poly per degree-3 blade."""
        return generic_rr(self.g)

    @cached_property
    def yb_system(self) -> YbSystem:
        rr = self.rr
        mcybe = [normalize_poly(p) for p in _project_out(rr, self.inv3[1])]
        mcybe = [p for p in mcybe if not p.is_zero()] or [Poly.zero()]
        return YbSystem(cybe=[normalize_poly(p) for p in rr], mcybe=mcybe,
                        inv3=self.inv3[0], reduced=reduce_system(mcybe))

    @cached_property
    def _int_mcybe(self) -> list[IntPoly]:
        return [IntPoly(p) for p in self.yb_system.mcybe]

    def is_mcybe_at(self, r: RMatrix) -> bool:
        """Whether r solves the mCYBE (``is_mcybe_solution``)."""
        coords = (as_bivector(self.g, r).coords() if isinstance(r, MultiVector)
                  else [rat(x) for x in r])
        if len(coords) != self.g.dim * (self.g.dim - 1) // 2:
            raise DimensionMismatch("coordinate count mismatch")
        _, q = clear_denominators(coords)
        return self._is_mcybe_ints(q)

    def _is_mcybe_ints(self, q: Sequence[int]) -> bool:
        """``is_mcybe_at`` at the point q/den, given as the ints q for any
        den > 0 (``clear_denominators``)."""
        return all(f.eval(q) == 0 for f in self._int_mcybe)

    def orbit_dim(self, w: MultiVector) -> int:
        """Dimension of the automorphism orbit through the bivector w."""
        return rank_at(self.fields, w.coords())

    def quotient_class(self, r: RMatrix) -> tuple[Fraction, ...]:
        return tuple(_project_out(as_bivector(self.g, r).coords(),
                                  self.inv2[1]))

    def same_coboundary(self, r1: RMatrix, r2: RMatrix, T: RatMatrix) -> bool:
        if T not in self._automorphisms:
            if not is_automorphism(self.g, T):
                raise NotAnAutomorphism("T does not preserve the Lie bracket")
            self._automorphisms.add(T)
        moved = apply_linear(T, as_bivector(self.g, r1))
        return self.quotient_class(moved) == self.quotient_class(r2)

    def signature(self, r: RMatrix) -> tuple[int, bool, bool, int]:
        """The invariants separating r from other representatives: its
        bilinear rank, [r,r] = 0, [r,r] in (Λ³g)^g, its orbit dimension."""
        b = as_bivector(self.g, r)
        k = rank(bilinear_matrix(self.g, b))
        assert k % 2 == 0, "antisymmetric rank must be even"
        rr = schouten(self.g, b, b)
        return (k, rr.is_zero(),
                not any(_project_out(rr.coords(), self.inv3[1])),
                self.orbit_dim(b))
