"""Exact rational scalars, sparse multivariate polynomials, and rational
linear algebra (RREF, rank, kernel, solve) by sparse exact elimination.

Everything here is over Q via :class:`fractions.Fraction`; no floats, no
rounding anywhere.  Every elimination runs on one fraction-free kernel,
``int_echelon``; Fractions are made only for the reduced rows returned.
Monomials are canonically encoded as sorted tuples of ``(variable_index,
exponent)`` pairs with positive exponents, and variables are displayed
1-based ("x1", "x2", ...).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, inf, lcm
from typing import Iterable, Optional, Sequence


class MissingVariable(KeyError):
    """A polynomial was evaluated without a value for one of its variables."""


Rational = Fraction

#: a monomial: sorted tuple of (var index, positive exponent) pairs
Monomial = tuple


def rat(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def mono_key(m: Monomial):
    """Graded-lex sort key: total degree first, then exponent vector with
    low-index variables weighing most."""
    return (mono_degree(m), tuple((v, -e) for v, e in m))


def mono_str(m: Monomial, names=None) -> str:
    if not m:
        return "1"
    parts = []
    for v, e in m:
        name = names[v] if names else f"x{v + 1}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def monomials_up_to(nvars: int, degree: int) -> list[Monomial]:
    """All monomials in nvars variables of total degree <= degree."""
    out = [()]
    for d in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(nvars), d):
            exps: dict[int, int] = {}
            for v in combo:
                exps[v] = exps.get(v, 0) + 1
            out.append(tuple(sorted(exps.items())))
    return out


class Poly:
    """Sparse multivariate polynomial over Q.

    Canonical form: no zero coefficients stored; the zero polynomial has an
    empty term map.  Two Polys are equal iff their term maps are equal.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for m, c in (terms.items() if isinstance(terms, dict) else terms):
                c = rat(c) if not isinstance(c, Fraction) else c
                if c:
                    m = tuple(sorted((v, e) for v, e in m if e))
                    prev = clean.get(m)
                    s = c if prev is None else prev + c
                    if s:
                        clean[m] = s
                    elif prev is not None:
                        del clean[m]
        self.terms = clean

    # construction ---------------------------------------------------------
    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def const(c) -> "Poly":
        return Poly({(): rat(c)})

    @staticmethod
    def var(i: int) -> "Poly":
        return Poly({((i, 1),): Fraction(1)})

    # queries ---------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((mono_degree(m) for m in self.terms), default=0)

    def variables(self) -> set[int]:
        return {v for m in self.terms for v, _ in m}

    def coefficient(self, m: Monomial) -> Fraction:
        return self.terms.get(tuple(sorted(m)), Fraction(0))

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda it: mono_key(it[0]))

    def leading(self) -> tuple[Monomial, Fraction]:
        """Graded-lex leading term: highest total degree, ties broken with
        low-index variables weighing most."""
        if not self.terms:
            return (), Fraction(0)
        m = min(self.terms, key=lambda m: (-mono_degree(m), m))
        return m, self.terms[m]

    # arithmetic ------------------------------------------------------------
    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        p = Poly.__new__(Poly)
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        p = Poly.__new__(Poly)
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __sub__(self, other) -> "Poly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            if not c:
                return Poly()
            p = Poly.__new__(Poly)
            p.terms = {m: c0 * c for m, c0 in self.terms.items()}
            return p
        other = _as_poly(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = out.get(m, Fraction(0)) + c1 * c2
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        p = Poly.__new__(Poly)
        p.terms = out
        return p

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Poly":
        c = rat(other)
        return self * (Fraction(1) / c)

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out = Poly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # evaluation -------------------------------------------------------------
    def eval(self, point) -> Fraction:
        """Exact value at a point (a mapping var->Rational or a sequence)."""
        if not isinstance(point, dict):
            point = {i: point[i] for i in range(len(point))}
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for var, e in m:
                if var not in point:
                    raise MissingVariable(f"x{var + 1}")
                v *= rat(point[var]) ** e
            total += v
        return total

    # display ----------------------------------------------------------------
    def text(self, names=None) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m, c in self.sorted_terms():
            s = mono_str(m, names)
            if s == "1":
                frag = str(c)
            elif c == 1:
                frag = s
            elif c == -1:
                frag = f"-{s}"
            else:
                frag = f"{c}*{s}"
            bits.append(frag)
        out = bits[0]
        for frag in bits[1:]:
            out += f" - {frag[1:]}" if frag.startswith("-") else f" + {frag}"
        return out

    def __repr__(self):
        return f"Poly({self.text()})"


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.const(x)
    raise TypeError(f"cannot coerce {x!r} to Poly")


def clear_denominators(xs: Iterable[Fraction]) -> tuple[int, list[int]]:
    """The lcm d of the denominators of xs (1 for none) and the ints d*x."""
    xs = list(xs)
    d = lcm(*(x.denominator for x in xs))
    return d, [x.numerator * (d // x.denominator) for x in xs]


def normalize_poly(p: Poly) -> Poly:
    """Scale to integer coefficients with content 1 and positive leading
    (graded-lex) coefficient.  The zero polynomial is returned unchanged."""
    if p.is_zero():
        return p
    den, nums = clear_denominators(p.terms.values())
    scale = Fraction(den, gcd(*nums))
    if p.leading()[1] < 0:
        scale = -scale
    return p * scale


class IntPoly:
    """``scale * p`` with integer coefficients, for a positive integer
    ``scale`` that clears the denominators of ``p``: the same zeros and
    signs as ``p``, evaluated in ``int`` arithmetic.

    A rational point is passed as ints ``q`` and their common denominator
    ``den > 0`` (``clear_denominators``), and ``eval(q, den)`` is the value
    of the homogenization, ``scale * den^d * p(q/den)`` for ``d = deg p``:
    a positive multiple of ``p(q/den)``, so it has the same zero and sign."""

    __slots__ = ("scale", "degree", "terms")

    def __init__(self, p: Poly):
        self.scale, coeffs = clear_denominators(p.terms.values())
        self.degree = d = p.degree()
        # each term with d - deg(m), its power of den in the homogenization
        self.terms = tuple((c, m, d - sum(e for _, e in m))
                           for c, m in zip(coeffs, p.terms))

    def eval(self, point: Sequence[int], den: int = 1) -> int:
        """``scale * den^d * p(point/den)`` at a point of ints indexed by
        variable.  A point too short for ``p`` raises ``MissingVariable``
        for the same variable as ``Poly.eval``."""
        total = 0
        try:
            for c, m, k in self.terms:
                for v, e in m:
                    c *= point[v] ** e
                total += c * den ** k if k else c
        except IndexError:
            v = next(v for _, m, _ in self.terms for v, _ in m
                     if v >= len(point))
            raise MissingVariable(f"x{v + 1}") from None
        return total


# ---------------------------------------------------------------------------
# rational matrices
# ---------------------------------------------------------------------------

class RatMatrix:
    """Dense matrix of Fractions.  Immutable once constructed, so the
    nonzero pattern (``_nonzero_rows``), its integer form
    (``_integer_rows``, with its scale in ``_integer_form``) and the hash
    are computed once and cached."""

    __slots__ = ("entries", "rows", "cols", "_sparse", "_int_sparse",
                 "_int_den", "_hash")

    def __init__(self, entries: Iterable[Iterable], cols: int = 0):
        """``cols`` is the width of a matrix without rows."""
        rows = tuple(tuple(rat(x) for x in row) for row in entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")
        self.entries = rows
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else cols

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(rows: int, cols: int) -> "RatMatrix":
        """The zero matrix; it keeps its width even without rows."""
        return RatMatrix([[0] * cols for _ in range(rows)], cols)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "RatMatrix":
        if not self.cols:
            return RatMatrix.zero(0, self.rows)
        return RatMatrix(zip(*self.entries) if self.rows else [()] * self.cols)

    def _nonzero_rows(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """Each row as its ``(column, entry)`` pairs with nonzero entry."""
        try:
            return self._sparse
        except AttributeError:
            self._sparse = tuple(tuple((j, x) for j, x in enumerate(r) if x)
                                 for r in self.entries)
            return self._sparse

    def _integer_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """``_nonzero_rows`` times the lcm of all the entries' denominators:
        the matrix scaled by one positive integer, as ints."""
        try:
            return self._int_sparse
        except AttributeError:
            rows = self._nonzero_rows()
            self._int_den, ints = clear_denominators(
                x for r in rows for _, x in r)
            it = iter(ints)
            self._int_sparse = tuple(tuple((j, next(it)) for j, _ in r)
                                     for r in rows)
            return self._int_sparse

    def _integer_form(self) -> tuple[int, tuple[tuple[tuple[int, int], ...],
                                                ...]]:
        """The positive integer D and ``_integer_rows``, the rows of D
        times the matrix."""
        rows = self._integer_rows()
        return self._int_den, rows

    def matvec(self, v: Sequence) -> tuple[Fraction, ...]:
        v = [rat(x) for x in v]
        if len(v) != self.cols:
            raise ValueError(f"matvec size mismatch: {self.cols} vs {len(v)}")
        return tuple(sum((x * v[j] for j, x in r), Fraction(0))
                     for r in self._nonzero_rows())

    def matmul(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("matmul size mismatch")
        bt = other.transpose()
        return RatMatrix([[sum((x * b[k] for k, x in a), Fraction(0))
                           for b in bt.entries] for a in self._nonzero_rows()])

    def __mul__(self, other):
        if isinstance(other, RatMatrix):
            return self.matmul(other)
        return self.matvec(other)

    def _same_shape(self, other: "RatMatrix", op: str) -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"{op} size mismatch")

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._same_shape(other, "add")
        return RatMatrix([[a + b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.entries, other.entries)],
                         self.cols)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        self._same_shape(other, "sub")
        return RatMatrix([[a - b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.entries, other.entries)],
                         self.cols)

    def __neg__(self) -> "RatMatrix":
        return RatMatrix([[-a for a in r] for r in self.entries], self.cols)

    def scale(self, c) -> "RatMatrix":
        c = rat(c)
        return RatMatrix([[a * c for a in r] for r in self.entries], self.cols)

    def commutator(self, other: "RatMatrix") -> "RatMatrix":
        return self.matmul(other) - other.matmul(self)

    def is_zero(self) -> bool:
        return all(not x for r in self.entries for x in r)

    def flat(self) -> tuple[Fraction, ...]:
        return tuple(x for r in self.entries for x in r)

    def __eq__(self, other):
        return (isinstance(other, RatMatrix) and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(self.entries)
            return self._hash

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.entries)
        return f"RatMatrix[{body}]"


# ---------------------------------------------------------------------------
# sparse exact elimination
# ---------------------------------------------------------------------------

#: a sparse row: column -> nonzero entry (zeros are never stored)
SparseRow = dict


def _int_row(row: SparseRow) -> SparseRow:
    """A SparseRow of rationals times the lcm of its denominators, as ints."""
    d = lcm(*(x.denominator for x in row.values()))
    return {j: x.numerator * (d // x.denominator) for j, x in row.items()}


def _primitive(row: SparseRow) -> SparseRow:
    """The integer row divided by its content (the gcd of its entries)."""
    g = gcd(*row.values())
    return row if g < 2 else {j: x // g for j, x in row.items()}


def _cancel(row: SparseRow, p: SparseRow, c: int) -> SparseRow:
    """``a*row - b*p``, with a/b = p[c]/row[c] in lowest terms, divided by
    its content: the integer row that clears column c of ``row`` against
    ``p``, with the entries that cancel dropped."""
    g = gcd(p[c], row[c])
    a, b = p[c] // g, row[c] // g
    new = {j: a * x for j, x in row.items()}
    for j, y in p.items():
        x = new.get(j, 0) - b * y
        if x:
            new[j] = x
        else:
            del new[j]
    return _primitive(new)


def int_echelon(rows: Iterable, ncols: float = inf,
                spilled: Optional[set] = None) -> dict[int, SparseRow]:
    """Forward elimination of integer rows (SparseRows of ints) without
    fractions: pivot column -> pivot row, primitive (content 1).

    Each row is reduced against the pivot row at its smallest column
    (``_cancel``) until it vanishes or leads with a new pivot column.
    Pivots are taken only in columns < ncols: a row reduced to entries in
    columns >= ncols alone is no pivot, and its columns are added to
    ``spilled``.  Without spills, the pivot rows span the input's rational
    row space and there are rank-many of them.  The input rows are not
    modified; a pivot row may be one of them."""
    pivots: dict[int, SparseRow] = {}
    for row in rows:
        row = _primitive(row)
        while row:
            c = min(row)
            p = pivots.get(c)
            if p is None:
                if c >= ncols:
                    spilled.update(row)
                else:
                    pivots[c] = row
                break
            row = _cancel(row, p, c)
    return pivots


def _gauss_jordan(rows: Iterable, ncols: float = inf,
                  spilled: Optional[set] = None
                  ) -> tuple[list[SparseRow], list[int]]:
    """Sparse reduced row-echelon form of integer rows: the pivot rows in
    pivot order, as Fractions with leading entry 1, and their pivot
    columns, pivots only in columns < ncols (see ``int_echelon``).  Back
    substitution runs from the last pivot up in ``int`` arithmetic, so
    each row is cleared against rows that are already fully reduced, and
    only the rows returned are divided by their leading entries."""
    pivots = int_echelon(rows, ncols, spilled)
    cols = sorted(pivots)
    for c in reversed(cols):
        row = pivots[c]
        for j in [j for j in row if j != c and j in pivots]:
            row = _cancel(row, pivots[j], j)
        pivots[c] = row
    return [{j: Fraction(x, pivots[c][c]) for j, x in pivots[c].items()}
            for c in cols], cols


def _solve_rows(rows: Iterable, ncols: int, nrhs: int = 1
                ) -> list[Optional[dict[int, Fraction]]]:
    """Solutions of the augmented systems that share the unknowns in
    columns < ncols and hold their right-hand sides in the nrhs columns
    after them: per right-hand side, {column: nonzero value} with free
    variables 0, or None if inconsistent.

    A row whose unknown part vanishes makes every right-hand side it is
    nonzero in inconsistent.  It is never a pivot, since back substitution
    against it would mix one right-hand side's values into another's."""
    bad: set[int] = set()
    red, pivots = _gauss_jordan(map(_int_row, rows), ncols, bad)
    return [None if b in bad
            else {c: r[b] for r, c in zip(red, pivots) if b in r}
            for b in range(ncols, ncols + nrhs)]


def rref(m: RatMatrix) -> tuple[RatMatrix, list[int]]:
    """Reduced row-echelon form and its pivot columns (row space preserved)."""
    red, pivots = _gauss_jordan(map(dict, m._integer_rows()))
    zero = Fraction(0)
    dense = [[r.get(j, zero) for j in range(m.cols)] for r in red]
    dense += [[zero] * m.cols] * (m.rows - len(red))
    return (RatMatrix(dense) if dense else m), pivots


def rank(m: RatMatrix) -> int:
    return len(int_echelon(map(dict, m._integer_rows())))


def kernel_basis(m: RatMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space.  Each basis vector has one free
    coordinate set to 1 (free coordinates taken in increasing column order)."""
    red, pivots = _gauss_jordan(map(dict, m._integer_rows()))
    pivot_set = set(pivots)
    zero, one = Fraction(0), Fraction(1)
    basis = []
    for fc in range(m.cols):
        if fc in pivot_set:
            continue
        v = [zero] * m.cols
        v[fc] = one
        for r, pc in zip(red, pivots):
            x = r.get(fc)
            if x:
                v[pc] = -x
        basis.append(tuple(v))
    return basis


def solve(m: RatMatrix, b: Sequence) -> Optional[tuple[Fraction, ...]]:
    """One exact solution of m x = b, or None if inconsistent.  Free
    variables are set to 0."""
    b = [rat(x) for x in b]
    if len(b) != m.rows:
        raise ValueError(f"solve size mismatch: {m.rows} vs {len(b)}")
    sol, = _solve_rows([dict(r + ((m.cols, bi),) if bi else r)
                        for r, bi in zip(m._nonzero_rows(), b)], m.cols)
    if sol is None:
        return None
    zero = Fraction(0)
    return tuple(sol.get(j, zero) for j in range(m.cols))


def row_space_equal(a: RatMatrix, b: RatMatrix) -> bool:
    """Whether two matrices span the same row space."""
    if a.cols != b.cols:
        return False
    return (_gauss_jordan(map(dict, a._integer_rows()))
            == _gauss_jordan(map(dict, b._integer_rows())))


def poly_rref(polys: Iterable[Poly], reverse: bool = False) -> list[Poly]:
    """RREF basis of the Q-span of the polynomials, with the monomials as
    columns in graded-lex order (``mono_key``, highest first if reverse):
    each basis polynomial has coefficient 1 at its pivot monomial and 0 at
    the others'.  The basis depends only on the span and the order, so two
    lists span the same space exactly when their bases are equal."""
    polys = list(polys)
    support = sorted({m for p in polys for m in p.terms}, key=mono_key,
                     reverse=reverse)
    col = {m: j for j, m in enumerate(support)}
    red, _ = _gauss_jordan(_int_row({col[m]: c for m, c in p.terms.items()})
                           for p in polys)
    return [Poly({support[j]: c for j, c in r.items()}) for r in red]


def poly_rref_contains(basis: Sequence[Poly], p: Poly) -> bool:
    """Whether p lies in the span of ``basis``, a ``poly_rref`` basis in
    the default order.  Each basis polynomial is the only one that is
    nonzero at its pivot monomial (its lowest by ``mono_key``), so p,
    reduced once against each at its pivot, leaves 0 exactly then."""
    rest = dict(p.terms)
    for b in basis:
        f = rest.get(min(b.terms, key=mono_key))
        if f:
            for m, x in b.terms.items():
                y = rest.get(m, 0) - f * x
                if y:
                    rest[m] = y
                else:
                    del rest[m]
    return not rest


def span_contains(basis: Sequence[Sequence], v: Sequence) -> bool:
    """Whether vector v lies in the span of the given row vectors."""
    rows = [_int_row({j: x for j, x in enumerate(map(rat, r)) if x})
            for r in [*basis, v]]
    return len(int_echelon(rows)) == len(int_echelon(rows[:-1]))


# ---------------------------------------------------------------------------
# ideal membership by exact linear solve
# ---------------------------------------------------------------------------

def ideal_memberships(targets: Sequence[Poly], generators: Sequence[Poly],
                      cofactor_degree_bound: int
                      ) -> list[Optional[list[Poly]]]:
    """Per target, cofactors h_i with target = sum_i h_i * g_i and
    deg(h_i) <= bound, or None when no representation exists within the
    bound (not an error).

    One exact linear solve over the coefficient space of all candidate
    cofactor monomials, with one right-hand side per target.  The monomials
    are those in all variables of the generators and targets.  A variable
    that is in no generator and not in a given target only adds unknowns
    that solve to 0 for that target, so each answer is the one that the
    target alone would get.
    """
    if cofactor_degree_bound < 0:
        raise ValueError("degree bound must be >= 0")
    targets, gens = list(targets), list(generators)
    nvars = max([v + 1 for p in gens + targets for v in p.variables()] or [0])
    monos = monomials_up_to(nvars, cofactor_degree_bound)
    # unknown j <-> (generator gi, cofactor monomial mu): columns of the system
    columns = [g * Poly({mu: 1}) for g in gens for mu in monos]
    # one sparse row per monomial of the support; the columns from
    # len(columns) on are the right-hand sides
    rows: dict[Monomial, SparseRow] = {}
    for j, p in enumerate(columns + targets):
        for m, c in p.terms.items():
            rows.setdefault(m, {})[j] = c
    k = len(monos)
    return [None if sol is None
            else [Poly({mu: sol[i * k + t] for t, mu in enumerate(monos)
                        if i * k + t in sol}) for i in range(len(gens))]
            for sol in _solve_rows(rows.values(), len(columns), len(targets))]


def ideal_membership(target: Poly, generators: Sequence[Poly],
                     cofactor_degree_bound: int) -> Optional[list[Poly]]:
    """Write target = sum_i h_i * g_i with deg(h_i) <= bound, if possible:
    ``ideal_memberships`` with one target."""
    return ideal_memberships([target], generators, cofactor_degree_bound)[0]
