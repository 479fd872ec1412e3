"""Yang-Baxter machinery: the symbolic [r, r], the CYBE/mCYBE polynomial
systems, solution tests, cocommutators, the quotient by invariant bivectors,
and the necessary-condition checks for equivalence of r-matrices.

Membership in the mCYBE is decided two ways: ``is_mcybe_solution`` on the
evaluated 3-vector ([r, r] annihilated by every ad_{e_i}), and
``AlgebraContext.is_mcybe_at`` on the mCYBE polynomials at integer
points (``Poly.eval_int``), which the batch checks use.  The two agreeing is a tested
invariant, not an assumption.
"""

from __future__ import annotations

import warnings
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

from .derivations import (Derivation, FieldColumns, LinearVectorField,
                          _rank_at_ints, derivation_basis, field_columns, lift)
from .exactmath import (Poly, RatMatrix, _span_rref, clear_denominators,
                        int_echelon, normalize_poly, poly_rref_normalized,
                        rat)
from .grassmann import (MultiVector, ad_action, compound, generic_rr,
                        indices_of, invariants, schouten)
from .liealg import DimensionMismatch, LieAlgebra

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


class YbSystem(NamedTuple):
    """The polynomial content of [r, r] for a fixed algebra.

    cybe: normalized coefficient polynomials of [r, r] in blade order.
    mcybe: canonical components of [r, r] after projecting out (Λ³g)^g.
    inv3: basis of (Λ³g)^g.
    reduced: span-reduced display form of the mCYBE system (same-sign sums
    of even powers split into their linear generators).
    witnesses: the rounds of that reduction (``reduce_system``), each the
    variables it split off and the span element that forced them to 0.
    """

    cybe: list[Poly]
    mcybe: list[Poly]
    inv3: list[MultiVector]
    reduced: list[Poly]
    witnesses: list[tuple[list[int], Poly]]


def _project_out(coords: list, span: tuple) -> list:
    """Canonical components after eliminating the pivot coordinates of an
    invariant span given by its sparse RREF (``exactmath._span_rref``;
    deterministic complement: the non-pivot coordinates).  The coordinates
    may be Polys or Fractions."""
    red, pivots = span
    out = list(coords)
    for row, pc in zip(red, pivots):
        factor = out[pc]
        for j, x in row.items():
            if j != pc:
                out[j] = out[j] - factor * x
    drop = set(pivots)
    return [x for j, x in enumerate(out) if j not in drop]


def reduce_system(polys: Sequence[Poly]) -> list[Poly]:
    """Real-locus display reduction of a quadratic system: whenever the span
    contains c*x_i^k for an even k >= 2, or a same-sign combination of such
    even powers of several variables, those variables vanish on the real
    locus and are split off as linear generators.  Returns a normalized
    generating list with the same real locus (matches the hand-simplified
    systems in the classification)."""
    return _reduce_with_witnesses(polys)[0]


def _reduce_with_witnesses(polys: Sequence[Poly]
                           ) -> tuple[list[Poly], list[tuple[list[int], Poly]]]:
    """``reduce_system`` and its witnesses: per round, the variables split
    off and the span element p with ``_pure_square_vars(p)`` = those
    variables, in the span of the system of that round.

    Only the span basis is carried from round to round: setting the split
    variables to 0 is linear, so it maps the span of the system onto the
    span of the restricted basis, and ``poly_rref_normalized`` depends
    only on the span.  Every basis element, and every ``Poly.var``, is
    normalized."""
    killed: set[int] = set()
    witnesses: list[tuple[list[int], Poly]] = []
    basis = poly_rref_normalized(polys)
    changed = True
    while changed:
        changed = False
        for p in basis:
            # the basis holds no killed variable, so vs are all new
            vs = _pure_square_vars(p)
            if vs:
                witnesses.append((vs, p))
                killed.update(vs)
                # x_v = 0 for every killed v: drop the terms that contain one
                basis = poly_rref_normalized([Poly._of({
                    m: c for m, c in q.terms.items()
                    if not any(v in killed for v, _ in m)}) for q in basis])
                changed = True
                break
    gens = [Poly.var(v) for v in sorted(killed)] + basis
    return sorted(gens, key=lambda p: (p.degree(), p.text())), witnesses


def _pure_square_vars(p: Poly) -> list[int]:
    """If p = sum_i c_i x_i^(k_i) with every k_i even and all c_i of one
    sign, the variables forced to zero on the real locus, in ascending
    order; else []."""
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
    return sorted(vs)


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


def quotient_class(g: LieAlgebra, r: RMatrix) -> tuple[Fraction, ...]:
    """Coordinates of r in Λ²g / (Λ²g)^g, in the deterministic complement
    basis given by the non-pivot blade coordinates of the invariant span."""
    return AlgebraContext(g).quotient_class(r)


def is_automorphism(g: LieAlgebra, T: RatMatrix) -> bool:
    """Exact bracket preservation T[e_i,e_j] = [Te_i, Te_j] on basis pairs,
    plus invertibility.

    Checked in ``int`` arithmetic on the integer form t = d_T·T of T and
    the algebra's D·c (``LieAlgebra.int_table``): the identity times
    d_T²·D reads d_T·t·(D·c_ij) = sum_ab t_ai t_bj (D·c_ab) for i < j.
    Invertibility is the rank of t (``int_echelon``)."""
    n = g.dim
    if T.rows != n or T.cols != n:
        return False
    d_t, t = T.den, T.ints
    if len(int_echelon(map(dict, t))) != n:
        return False
    _, c = g.int_table
    cols: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, r in enumerate(t):
        for i, x in r:
            cols[i].append((a, x))
    for i in range(n):
        for j in range(i + 1, n):
            cij = c[i][j]
            rhs = [0] * n
            for a, x in cols[i]:
                for b, y in cols[j]:
                    for k, z in enumerate(c[a][b]):
                        if z:
                            rhs[k] += x * y * z
            if any(d_t * sum(x * cij[a] for a, x in r) != v
                   for r, v in zip(t, rhs)):
                return False
    return True


def same_coboundary(g: LieAlgebra, r1: RMatrix, r2: RMatrix,
                    T: RatMatrix) -> bool:
    """Whether (Λ²T) r1 and r2 induce the same cocommutator, i.e. agree in
    Λ²g/(Λ²g)^g.  T must preserve brackets exactly."""
    return AlgebraContext(g).same_coboundary(r1, r2, T)


class NecessaryReport(NamedTuple):
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

    ``is_mcybe_at`` tests a point in ``int`` arithmetic (``Poly.eval_int``
    on the mCYBE system): the point is first scaled by the lcm of its
    denominators, which keeps the answer because the mCYBE polynomials are
    homogeneous quadratics.  The automorphisms that pass
    ``is_automorphism`` are kept with their Λ²T."""

    def __init__(self, g: LieAlgebra, ders: list[Derivation] | None = None):
        self.g = g
        self._automorphisms: dict[RatMatrix, RatMatrix | None] = {}
        if ders is not None:
            self.ders = ders

    @cached_property
    def ders(self) -> list[Derivation]:
        return derivation_basis(self.g)

    @cached_property
    def fields(self) -> list[LinearVectorField]:
        return [lift(d, 2) for d in self.ders]

    @cached_property
    def field_columns(self) -> FieldColumns:
        """The column map of ``fields`` (``derivations.field_columns``),
        for the rank counts at sample points."""
        return field_columns(self.fields)

    @cached_property
    def inv2(self) -> tuple[list[MultiVector], tuple[list[dict], list[int]]]:
        inv = invariants(self.g, 2)
        return inv, _span_rref(v.coords() for v in inv)

    @cached_property
    def inv3(self) -> tuple[list[MultiVector], tuple[list[dict], list[int]]]:
        inv = invariants(self.g, 3)
        return inv, _span_rref(v.coords() for v in inv)

    @cached_property
    def rr(self) -> list[Poly]:
        """[r, r] of the generic bivector, one Poly per degree-3 blade."""
        return generic_rr(self.g)

    @cached_property
    def mcybe(self) -> list[Poly]:
        """The mCYBE components (``YbSystem.mcybe``), without the display
        reduction that ``yb_system`` adds."""
        mcybe = [normalize_poly(p)
                 for p in _project_out(self.rr, self.inv3[1])]
        return [p for p in mcybe if not p.is_zero()] or [Poly.zero()]

    @cached_property
    def yb_system(self) -> YbSystem:
        reduced, witnesses = _reduce_with_witnesses(self.mcybe)
        return YbSystem(cybe=[normalize_poly(p) for p in self.rr],
                        mcybe=self.mcybe, inv3=self.inv3[0],
                        reduced=reduced, witnesses=witnesses)

    def is_mcybe_at(self, r: RMatrix) -> bool:
        """Whether r solves the mCYBE (``is_mcybe_solution``)."""
        coords = (as_bivector(self.g, r).coords() if isinstance(r, MultiVector)
                  else [rat(x) for x in r])
        _, q = clear_denominators(coords)
        return self._is_mcybe_ints(q)

    def _is_mcybe_ints(self, q: Sequence[int]) -> bool:
        """``is_mcybe_at`` at the point q/den, given as the ints q for any
        den > 0 (``clear_denominators``).  A point whose length is not
        dim Λ²g raises ``DimensionMismatch``."""
        if len(q) != self.g.dim * (self.g.dim - 1) // 2:
            raise DimensionMismatch("coordinate count mismatch")
        return not any(f.eval_int(q) for f in self.mcybe)

    def orbit_dim(self, w: MultiVector) -> int:
        """Dimension of the automorphism orbit through the bivector w."""
        _, q = clear_denominators(w.coords())
        return _rank_at_ints(self.field_columns, q)

    def quotient_class(self, r: RMatrix) -> tuple[Fraction, ...]:
        return tuple(_project_out(as_bivector(self.g, r).coords(),
                                  self.inv2[1]))

    def is_automorphism(self, T: RatMatrix) -> bool:
        """``is_automorphism`` on this algebra.  A matrix that passes is
        checked once and kept; one that fails is checked on every call."""
        if T not in self._automorphisms:
            if not is_automorphism(self.g, T):
                return False
            self._automorphisms[T] = None
        return True

    def lift_automorphism(self, T: RatMatrix) -> RatMatrix:
        """Λ²T (``grassmann.compound``), built once per automorphism T and
        on its first use."""
        if not self.is_automorphism(T):
            raise NotAnAutomorphism("T does not preserve the Lie bracket")
        if self._automorphisms[T] is None:
            self._automorphisms[T] = compound(T, 2)
        return self._automorphisms[T]

    def same_coboundary(self, r1: RMatrix, r2: RMatrix, T: RatMatrix) -> bool:
        moved = self.lift_automorphism(T).matvec(
            as_bivector(self.g, r1).coords())
        return self.quotient_class(moved) == self.quotient_class(r2)

    def signature(self, r: RMatrix) -> tuple[int, bool, bool, int]:
        """The invariants separating r from other representatives: its
        bilinear rank, [r,r] = 0, [r,r] in (Λ³g)^g, its orbit dimension."""
        b = as_bivector(self.g, r)
        # r as an antisymmetric form on g*: each term x·e_i^e_j puts x at
        # (i, j) and -x at (j, i), on the ints of r's cleared coefficients
        rows: dict[int, dict[int, int]] = {}
        _, ints = clear_denominators(b.terms.values())
        for mask, x in zip(b.terms, ints):
            i, j = indices_of(mask)
            rows.setdefault(i, {})[j] = x
            rows.setdefault(j, {})[i] = -x
        k = len(int_echelon(rows.values()))
        assert k % 2 == 0, "antisymmetric rank must be even"
        rr = schouten(self.g, b, b)
        return (k, rr.is_zero(),
                not any(_project_out(rr.coords(), self.inv3[1])),
                self.orbit_dim(b))
