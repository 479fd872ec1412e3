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


def _lead_key(m: Monomial):
    """The sort key whose least monomial is the ``Poly.leading`` one."""
    return (-mono_degree(m), m)


def mono_str(m: Monomial) -> str:
    if not m:
        return "1"
    return "*".join(f"x{v + 1}" if e == 1 else f"x{v + 1}^{e}" for v, e in m)


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
    Its integer form (``eval_int``) is computed once, on first use.
    """

    __slots__ = ("terms", "_ints")

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
        return Poly._of({((i, 1),): Fraction(1)})

    @staticmethod
    def _of(terms: dict) -> "Poly":
        """The Poly over ``terms``, a canonical term map (sorted monomials,
        nonzero Fractions), taken as it is."""
        p = Poly.__new__(Poly)
        p.terms = terms
        return p

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
        """Leading term: of highest degree, ties to the least sorted list of
        (variable, exponent) pairs, so x1*x2 leads x1^2, which leads x2^2."""
        if not self.terms:
            return (), Fraction(0)
        m = min(self.terms, key=_lead_key)
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
        return Poly._of(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            if not c:
                return Poly()
            return Poly._of({m: c0 * c for m, c0 in self.terms.items()})
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
        return Poly._of(out)

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

    def eval_int(self, point: Sequence[int], den: int = 1) -> int:
        """``scale * den^d * p(point/den)`` in ``int`` arithmetic, for the
        point given as ints over den > 0 (``clear_denominators``), d the
        degree of p and scale the lcm of its coefficients' denominators:
        a positive multiple of ``eval``, with the same zero and sign.  A
        point too short for p raises ``MissingVariable`` for the same
        variable as ``eval``."""
        try:
            terms = self._ints
        except AttributeError:
            _, coeffs = clear_denominators(self.terms.values())
            d = self.degree()
            # each term with d - deg(m), its power of den in the
            # homogenization
            terms = self._ints = tuple(
                (c, m, d - mono_degree(m)) for c, m in zip(coeffs, self.terms))
        total = 0
        try:
            for c, m, k in terms:
                for v, e in m:
                    c *= point[v] ** e
                total += c * den ** k if k else c
        except IndexError:
            v = next(v for _, m, _ in terms for v, _ in m if v >= len(point))
            raise MissingVariable(f"x{v + 1}") from None
        return total

    # display ----------------------------------------------------------------
    def text(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m, c in self.sorted_terms():
            s = mono_str(m)
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


def clear_denominators(xs: Iterable) -> tuple[int, list[int]]:
    """The lcm d of the denominators of xs, Fractions or ints (1 for
    none), and the ints d*x."""
    xs = list(xs)
    d = lcm(*(x.denominator for x in xs))
    return d, [x.numerator * (d // x.denominator) for x in xs]


def normalize_poly(p: Poly) -> Poly:
    """Scale to integer coefficients with content 1 and positive leading
    (graded-lex) coefficient: the cleared numerators divided by their
    signed gcd.  A polynomial that is already normalized, the zero
    polynomial included, is returned itself."""
    if p.is_zero():
        return p
    den, nums = clear_denominators(p.terms.values())
    g = gcd(*nums)
    if p.leading()[1] < 0:
        g = -g
    if den == g == 1:
        return p
    return Poly._of({m: Fraction(x // g) for m, x in zip(p.terms, nums)})


# ---------------------------------------------------------------------------
# rational matrices
# ---------------------------------------------------------------------------

class RatMatrix:
    """Immutable matrix over Q with two views, each built once, on first
    use, from the one it was made from: ``entries``, the dense rows of
    Fractions, and the integer form, ``den`` (the lcm of the entries'
    denominators, 1 for none) with ``ints`` (per row of den times the
    matrix, its nonzero ``(column, int)`` pairs by column).  The integer
    form is canonical, so equality and hash read it; products and solves
    read it too and divide by den once per entry of the result."""

    __slots__ = ("rows", "cols", "_entries", "_den", "_ints")

    def __init__(self, entries: Iterable[Iterable], cols: int = 0):
        """``cols`` is the width of a matrix without rows."""
        rows = tuple(tuple(rat(x) for x in row) for row in entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")
        self._entries = rows
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else cols

    @staticmethod
    def from_ints(den: int, rows: Iterable[Iterable[tuple[int, int]]],
                  cols: int) -> "RatMatrix":
        """The matrix whose row i is ``rows[i]``, nonzero ``(column, int)``
        pairs by column, divided by den > 0.  The gcd g of den and all the
        ints is divided out: entry a/den has reduced denominator
        den/gcd(den, a), and the lcm of those is den/g."""
        rows = tuple(map(tuple, rows))
        g = gcd(den, *(x for r in rows for _, x in r))
        if g > 1:
            den //= g
            rows = tuple(tuple((j, x // g) for j, x in r) for r in rows)
        m = RatMatrix.__new__(RatMatrix)
        m.rows, m.cols, m._den, m._ints = len(rows), cols, den, rows
        return m

    entries = property(lambda self: self._entries)
    den = property(lambda self: self._den)
    ints = property(lambda self: self._ints)

    def __getattr__(self, name: str):
        """Builds a view that is missing from the one the matrix was made
        from; called only while it is missing."""
        if name == "_entries":
            zero, den = Fraction(0), self._den
            dense = [[zero] * self.cols for _ in self._ints]
            for row, r in zip(dense, self._ints):
                for j, x in r:
                    row[j] = Fraction(x, den)
            self._entries = tuple(map(tuple, dense))
        elif name in ("_den", "_ints"):
            den, ints = clear_denominators(x for r in self._entries
                                           for x in r if x)
            it = iter(ints)
            self._den, self._ints = den, tuple(
                tuple((j, next(it)) for j, x in enumerate(r) if x)
                for r in self._entries)
        else:
            raise AttributeError(name)
        return getattr(self, name)

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

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "RatMatrix":
        if not self.cols:
            return RatMatrix.zero(0, self.rows)
        return RatMatrix(zip(*self.entries) if self.rows else [()] * self.cols)

    def matvec(self, v: Sequence) -> tuple[Fraction, ...]:
        v = [rat(x) for x in v]
        if len(v) != self.cols:
            raise ValueError(f"matvec size mismatch: {self.cols} vs {len(v)}")
        den, rows = self.den, self.ints
        dv, q = clear_denominators(v)
        den *= dv
        return tuple(Fraction(sum(q[j] * x for j, x in r), den)
                     for r in rows)

    def matmul(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("matmul size mismatch")
        den, rows = self.den, self.ints
        bt = other.transpose()
        return RatMatrix([[sum((b[k] * x for k, x in a), Fraction(0)) / den
                           for b in bt.entries] for a in rows])

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

    def is_zero(self) -> bool:
        return all(not x for r in self.entries for x in r)

    def flat(self) -> tuple[Fraction, ...]:
        return tuple(x for r in self.entries for x in r)

    def __eq__(self, other):
        return (isinstance(other, RatMatrix) and self.cols == other.cols
                and self.den == other.den and self.ints == other.ints)

    def __hash__(self):
        return hash((self.cols, self.den, self.ints))

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
    """``a*row - b*p``, with a/b = p[c]/row[c] in lowest terms: the integer
    row that clears column c of ``row`` against ``p``, with the entries
    that cancel dropped.  Its content is not divided out; scaling ``row``
    by k > 0 scales the result by a positive rational, so the primitive
    row of the result does not change."""
    g = gcd(p[c], row[c])
    a, b = p[c] // g, row[c] // g
    new = {j: a * x for j, x in row.items()}
    for j, y in p.items():
        x = new.get(j, 0) - b * y
        if x:
            new[j] = x
        else:
            del new[j]
    return new


def int_echelon(rows: Iterable, ncols: float = inf,
                spilled: Optional[set] = None) -> dict[int, SparseRow]:
    """Forward elimination of integer rows (SparseRows of ints) without
    fractions: pivot column -> pivot row, primitive (content 1).

    Each row is reduced against the pivot row at its smallest column
    (``_cancel``) until it vanishes or leads with a new pivot column; it is
    made primitive only then, when it becomes a pivot.  Pivots are taken
    only in columns < ncols: a row reduced to entries in columns >= ncols
    alone is no pivot, and its columns are added to ``spilled``.  Without
    spills, the pivot rows span the input's rational row space and there
    are rank-many of them.  The input rows are not modified; a pivot row
    may be one of them."""
    pivots: dict[int, SparseRow] = {}
    for row in rows:
        while row:
            c = min(row)
            p = pivots.get(c)
            if p is None:
                if c >= ncols:
                    spilled.update(row)
                else:
                    pivots[c] = _primitive(row)
                break
            row = _cancel(row, p, c)
    return pivots


def _int_rref(rows: Iterable, ncols: float = inf,
              spilled: Optional[set] = None
              ) -> tuple[list[SparseRow], list[int]]:
    """Integer reduced row-echelon form of integer rows: the pivot rows in
    pivot order, fully reduced and primitive (of either sign), and their
    pivot columns, pivots only in columns < ncols (see ``int_echelon``).
    Back substitution runs from the last pivot up, so each row is cleared
    against rows that are already fully reduced and primitive."""
    pivots = int_echelon(rows, ncols, spilled)
    cols = sorted(pivots)
    for c in reversed(cols):
        row = pivots[c]
        for j in [j for j in row if j != c and j in pivots]:
            row = _cancel(row, pivots[j], j)
        pivots[c] = _primitive(row)
    return [pivots[c] for c in cols], cols


def _gauss_jordan(rows: Iterable, ncols: float = inf,
                  spilled: Optional[set] = None
                  ) -> tuple[list[SparseRow], list[int]]:
    """``_int_rref`` with each row divided by its pivot entry: the sparse
    reduced row-echelon form, as Fractions with leading entry 1."""
    red, cols = _int_rref(rows, ncols, spilled)
    return [{j: Fraction(x, r[c]) for j, x in r.items()}
            for r, c in zip(red, cols)], cols


def _span_rref(rows: Iterable[Sequence]
               ) -> tuple[list[dict[int, Fraction]], list[int]]:
    """``_gauss_jordan`` of dense rows of Fractions or ints: the sparse
    RREF of their span, which depends only on the span."""
    return _gauss_jordan(_int_row({j: x for j, x in enumerate(r) if x})
                         for r in rows)


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
    red, pivots = _gauss_jordan(map(dict, m.ints))
    zero = Fraction(0)
    dense = [[r.get(j, zero) for j in range(m.cols)] for r in red]
    dense += [[zero] * m.cols] * (m.rows - len(red))
    return (RatMatrix(dense) if dense else m), pivots


def rank(m: RatMatrix) -> int:
    return len(int_echelon(map(dict, m.ints)))


def kernel_basis(m: RatMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space (``int_kernel_basis`` of the rows)."""
    return int_kernel_basis(map(dict, m.ints), m.cols)


def int_kernel_basis(rows: Iterable[SparseRow], ncols: int
                     ) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space of the matrix with ``ncols`` columns
    whose rows are the integer SparseRows ``rows`` (empty rows allowed).
    Each basis vector has one free coordinate set to 1 (free coordinates
    taken in increasing column order).  The basis depends only on the row
    space, so any nonzero integer multiples of a rational system's rows
    give the same basis."""
    red, pivots = _gauss_jordan(rows)
    pivot_set = set(pivots)
    zero, one = Fraction(0), Fraction(1)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [zero] * ncols
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
    den, rows = m.den, m.ints
    sol, = _solve_rows([dict(r + ((m.cols, den * bi),) if bi else r)
                        for r, bi in zip(rows, b)], m.cols)
    if sol is None:
        return None
    zero = Fraction(0)
    return tuple(sol.get(j, zero) for j in range(m.cols))


def row_space_equal(a: RatMatrix, b: RatMatrix) -> bool:
    """Whether two matrices span the same row space."""
    return a.cols == b.cols and _span_rref(a.entries) == _span_rref(b.entries)


def poly_rref(polys: Iterable[Poly], reverse: bool = False) -> list[Poly]:
    """RREF basis of the Q-span of the polynomials, with the monomials as
    columns in graded-lex order (``mono_key``, highest first if reverse):
    each basis polynomial has coefficient 1 at its pivot monomial and 0 at
    the others'.  The basis depends only on the span and the order, so two
    lists span the same space exactly when their bases are equal."""
    support, red, cols = _poly_int_rref(polys, reverse)
    return [Poly._of({support[j]: Fraction(x, r[c]) for j, x in r.items()})
            for r, c in zip(red, cols)]


def poly_rref_normalized(polys: Iterable[Poly]) -> list[Poly]:
    """``normalize_poly`` of each ``poly_rref(polys, reverse=True)`` basis
    polynomial (highest monomials first), read off the primitive integer
    rows of the elimination: both are the primitive integer vector on the
    row's ray, with the sign that makes the leading (graded-lex)
    coefficient positive."""
    support, red, _ = _poly_int_rref(polys, True)
    lead = [_lead_key(m) for m in support]
    out = []
    for r in red:
        s = -1 if r[min(r, key=lead.__getitem__)] < 0 else 1
        out.append(Poly._of({support[j]: Fraction(s * x)
                             for j, x in r.items()}))
    return out


def _poly_int_rref(polys: Iterable[Poly], reverse: bool
                   ) -> tuple[list[Monomial], list[SparseRow], list[int]]:
    """The monomial columns of the polynomials in ``poly_rref`` order, and
    ``_int_rref`` of their coefficient rows."""
    polys = list(polys)
    support = sorted({m for p in polys for m in p.terms}, key=mono_key,
                     reverse=reverse)
    col = {m: j for j, m in enumerate(support)}
    return support, *_int_rref(
        _int_row({col[m]: c for m, c in p.terms.items()}) for p in polys)


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
