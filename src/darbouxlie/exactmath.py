"""Exact rational scalars, sparse multivariate polynomials, and rational
linear algebra (RREF, rank, kernel, solve) by sparse exact elimination.

Everything here is over Q via :class:`fractions.Fraction`; no floats, no
rounding anywhere.  Monomials are canonically encoded as sorted tuples of
``(variable_index, exponent)`` pairs with positive exponents, and variables
are displayed 1-based ("x1", "x2", ...).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
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
    def var(i: int, exp: int = 1) -> "Poly":
        return Poly({((i, exp),): Fraction(1)})

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

    # calculus / evaluation --------------------------------------------------
    def derivative(self, v: int) -> "Poly":
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            exps = dict(m)
            e = exps.get(v)
            if not e:
                continue
            if e == 1:
                del exps[v]
            else:
                exps[v] = e - 1
            key = tuple(sorted(exps.items()))
            s = out.get(key, Fraction(0)) + c * e
            if s:
                out[key] = s
            elif key in out:
                del out[key]
        p = Poly.__new__(Poly)
        p.terms = out
        return p

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

    def subs(self, assignment: dict[int, "Poly | Fraction | int"]) -> "Poly":
        """Substitute polynomials/constants for some variables."""
        out = Poly()
        for m, c in self.terms.items():
            term = Poly.const(c)
            for var, e in m:
                rep = assignment.get(var)
                if rep is None:
                    term = term * Poly.var(var, e)
                else:
                    rep = rep if isinstance(rep, Poly) else Poly.const(rep)
                    term = term * rep ** e
            out = out + term
        return out

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


def poly_eval(p: Poly, point) -> Fraction:
    """Exact substitution value; raises MissingVariable if underdetermined."""
    return p.eval(point)


def normalize_poly(p: Poly) -> Poly:
    """Scale to integer coefficients with content 1 and positive leading
    (graded-lex) coefficient.  The zero polynomial is returned unchanged."""
    if p.is_zero():
        return p
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    num = 0
    for c in p.terms.values():
        num = gcd(num, abs(c.numerator * (den // c.denominator)))
    scale = Fraction(den, num)
    if p.leading()[1] < 0:
        scale = -scale
    return p * scale


# ---------------------------------------------------------------------------
# rational matrices
# ---------------------------------------------------------------------------

class RatMatrix:
    """Dense matrix of Fractions.  Immutable once constructed, so the
    nonzero pattern (``_nonzero_rows``) is computed once and cached."""

    __slots__ = ("entries", "rows", "cols", "_sparse")

    def __init__(self, entries: Iterable[Iterable]):
        rows = tuple(tuple(rat(x) for x in row) for row in entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")
        self.entries = rows
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(rows: int, cols: int) -> "RatMatrix":
        return RatMatrix([[0] * cols for _ in range(rows)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "RatMatrix":
        return RatMatrix(zip(*self.entries)) if self.rows else RatMatrix([])

    def _nonzero_rows(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """Each row as its ``(column, entry)`` pairs with nonzero entry."""
        try:
            return self._sparse
        except AttributeError:
            self._sparse = tuple(tuple((j, x) for j, x in enumerate(r) if x)
                                 for r in self.entries)
            return self._sparse

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

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        return RatMatrix([[a + b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return RatMatrix([[a - b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.entries, other.entries)])

    def __neg__(self) -> "RatMatrix":
        return RatMatrix([[-a for a in r] for r in self.entries])

    def scale(self, c) -> "RatMatrix":
        c = rat(c)
        return RatMatrix([[a * c for a in r] for r in self.entries])

    def commutator(self, other: "RatMatrix") -> "RatMatrix":
        return self.matmul(other) - other.matmul(self)

    def is_zero(self) -> bool:
        return all(not x for r in self.entries for x in r)

    def flat(self) -> tuple[Fraction, ...]:
        return tuple(x for r in self.entries for x in r)

    def __eq__(self, other):
        return isinstance(other, RatMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.entries)
        return f"RatMatrix[{body}]"


# ---------------------------------------------------------------------------
# sparse exact elimination
# ---------------------------------------------------------------------------

#: a sparse row: column -> nonzero entry (zeros are never stored)
SparseRow = dict


def _echelon(rows: Iterable) -> dict[int, SparseRow]:
    """Forward elimination: pivot column -> row scaled to leading entry 1.

    Each row (a SparseRow or its ``(column, entry)`` pairs) is reduced
    against the pivot rows at its smallest column until it either vanishes
    or leads with a new pivot column.  The input rows are not modified."""
    pivots: dict[int, SparseRow] = {}
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            p = pivots.get(c)
            if p is None:
                inv = 1 / row[c]
                pivots[c] = (row if inv == 1
                             else {j: x * inv for j, x in row.items()})
                break
            _axpy(row, row[c], p)
    return pivots


def _axpy(row: SparseRow, f: Fraction, p: SparseRow) -> None:
    """row -= f * p in place, dropping entries that cancel."""
    for j, x in p.items():
        y = row.get(j)
        if y is None:
            row[j] = -f * x
        else:
            y -= f * x
            if y:
                row[j] = y
            else:
                del row[j]


def _gauss_jordan(rows: Iterable) -> tuple[list[SparseRow], list[int]]:
    """Sparse reduced row-echelon form: the nonzero rows in pivot order and
    their pivot columns.  Back substitution runs from the last pivot up, so
    each row is cleared against rows that are already fully reduced."""
    pivots = _echelon(rows)
    cols = sorted(pivots)
    for c in reversed(cols):
        row = pivots[c]
        for j in [j for j in row if j != c and j in pivots]:
            _axpy(row, row[j], pivots[j])
    return [pivots[c] for c in cols], cols


def _solve_rows(rows: Iterable, ncols: int
                ) -> Optional[dict[int, Fraction]]:
    """Solution of the augmented system whose column ``ncols`` holds the
    right-hand side, as {column: nonzero value} with free variables 0; None
    if inconsistent."""
    red, pivots = _gauss_jordan(rows)
    if pivots and pivots[-1] == ncols:
        return None
    return {c: r[ncols] for r, c in zip(red, pivots) if ncols in r}


def rref(m: RatMatrix) -> tuple[RatMatrix, list[int]]:
    """Reduced row-echelon form and its pivot columns (row space preserved)."""
    red, pivots = _gauss_jordan(m._nonzero_rows())
    zero = Fraction(0)
    dense = [[r.get(j, zero) for j in range(m.cols)] for r in red]
    dense += [[zero] * m.cols] * (m.rows - len(red))
    return RatMatrix(dense), pivots


def rank(m: RatMatrix) -> int:
    return len(_echelon(m._nonzero_rows()))


def kernel_basis(m: RatMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space.  Each basis vector has one free
    coordinate set to 1 (free coordinates taken in increasing column order)."""
    red, pivots = _gauss_jordan(m._nonzero_rows())
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
    sol = _solve_rows([r + ((m.cols, bi),) if bi else r
                       for r, bi in zip(m._nonzero_rows(), b)], m.cols)
    if sol is None:
        return None
    zero = Fraction(0)
    return tuple(sol.get(j, zero) for j in range(m.cols))


def row_space_equal(a: RatMatrix, b: RatMatrix) -> bool:
    """Whether two matrices span the same row space."""
    if a.cols != b.cols:
        return False
    return (_gauss_jordan(a._nonzero_rows())
            == _gauss_jordan(b._nonzero_rows()))


def span_contains(basis: Sequence[Sequence], v: Sequence) -> bool:
    """Whether vector v lies in the span of the given row vectors."""
    rows = [{j: x for j, x in enumerate(map(rat, r)) if x}
            for r in [*basis, v]]
    return len(_echelon(rows)) == len(_echelon(rows[:-1]))


# ---------------------------------------------------------------------------
# ideal membership by exact linear solve
# ---------------------------------------------------------------------------

def ideal_membership(target: Poly, generators: Sequence[Poly],
                     cofactor_degree_bound: int) -> Optional[list[Poly]]:
    """Write target = sum_i h_i * g_i with deg(h_i) <= bound, if possible.

    One exact linear solve over the coefficient space of all candidate
    cofactor monomials.  Returns the cofactors, or None when no
    representation exists within the bound (not an error).
    """
    if cofactor_degree_bound < 0:
        raise ValueError("degree bound must be >= 0")
    gens = list(generators)
    nvars = max([v + 1 for g in gens + [target] for v in g.variables()] or [0])
    monos = monomials_up_to(nvars, cofactor_degree_bound)
    # unknown j <-> (generator gi, cofactor monomial mu): columns of the system
    columns: list[Poly] = []
    for g in gens:
        for mu in monos:
            columns.append(g * Poly({mu: 1}))
    # one sparse row per monomial of the support; column len(columns) is
    # the right-hand side
    rows: dict[Monomial, SparseRow] = {}
    for j, p in enumerate(columns + [target]):
        for m, c in p.terms.items():
            rows.setdefault(m, {})[j] = c
    sol = _solve_rows(rows.values(), len(columns))
    if sol is None:
        return None
    k = len(monos)
    return [Poly({mu: sol[i * k + t] for t, mu in enumerate(monos)
                  if i * k + t in sol}) for i in range(len(gens))]
