"""Darboux families for Lie algebras of linear vector fields: closure
verification with cofactor witnesses, bricks (common eigenvectors), sums,
branch loci, and verification of classification-tree branches.

A family <f_1..f_s> is Darboux for fields X_1..X_q when every X f_j is an
exact polynomial combination sum_i h^i f_i; the witness table h is produced
by one exact linear solve with one right-hand side per (generator, field)
pair.  Branches carry equalities (the family), sign/nonzero constraints on
the open set, and are checked against sample points: family closure,
constant field rank, and mCYBE membership.  Closure makes the ideal of the
family invariant under every field, so its zero set is invariant under
their flows; flow_invariance is the finite-order check of that by Lie
derivatives at one point, kept as an independent test of the statement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import isqrt
from operator import mul
from typing import Optional, Sequence

from .derivations import LinearVectorField, rank_at, vf_apply
from .exactmath import (IntPoly, Poly, RatMatrix, clear_denominators,
                        ideal_memberships, kernel_basis, monomials_up_to,
                        normalize_poly, poly_rref, poly_rref_contains, rat,
                        rref)
from .yangbaxter import AlgebraContext

#: verify_branch checks closure with cofactors up to this degree, and
#: certify_no_solutions searches consequences up to it; flow_invariance
#: checks Lie derivatives up to FLOW_ORDER by default
COFACTOR_DEGREE_BOUND = 2
FLOW_ORDER = 8


class IncompatibleFields(ValueError):
    pass


class BranchInvalid(ValueError):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class DarbouxFamily:
    """Verified family: generators plus the cofactor witness table
    cofactors[j][k] with X_k f_j = sum_i cofactors[j][k][i] * f_i."""

    generators: list[Poly]
    cofactors: list[list[list[Poly]]]
    linear: bool
    fields: tuple[LinearVectorField, ...] = ()


@dataclass(frozen=True)
class Brick:
    """One-dimensional linear Darboux family: a common eigenvector of all
    lifted derivations, with its eigenvalue per basis field."""

    poly: Poly
    eigenvalues: tuple[Fraction, ...]


@dataclass
class TreeBranch:
    """One branch of a classification tree: equalities cut the locus,
    inequalities restrict the open set.  Inequality ops: '!=', '>', '<'.
    Both are stored as tuples, so they change only by assignment."""

    label: str
    equalities: tuple[Poly, ...]
    inequalities: tuple[tuple[Poly, str], ...] = ()
    expected_dim: Optional[int] = None

    def __setattr__(self, name, value):
        if name in ("equalities", "inequalities"):
            value = tuple(value)
            self.__dict__.pop("int_forms", None)
        object.__setattr__(self, name, value)

    @cached_property
    def int_forms(self) -> tuple[list[IntPoly], list[tuple[IntPoly, str]]]:
        """The equalities and the inequalities with their ops as
        ``IntPoly`` forms, built on first use (by ``locus_contains``) and
        dropped when either is assigned."""
        return ([IntPoly(f) for f in self.equalities],
                [(IntPoly(f), op) for f, op in self.inequalities])


def verify_family(fields: Sequence[LinearVectorField], gens: Sequence[Poly],
                  cofactor_degree_bound: int = 0) -> Optional[DarbouxFamily]:
    """Check the closure X f_j in <f_1..f_s> for every field, returning the
    witnessed family or None when the generators are dependent or some
    membership fails within the bound.  All the targets X_k f_j share one
    elimination (``ideal_memberships``); each cofactor list is the one that
    the target alone would get."""
    gens, fields = list(gens), tuple(fields)
    if not gens or len(poly_rref(gens)) != len(gens):
        return None
    cofs = ideal_memberships([vf_apply(X, f) for f in gens for X in fields],
                             gens, cofactor_degree_bound)
    if None in cofs:
        return None
    q = len(fields)
    table = [cofs[j * q:(j + 1) * q] for j in range(len(gens))]
    linear = all(c.degree() == 0 for hs in cofs for c in hs)
    return DarbouxFamily(generators=gens, cofactors=table, linear=linear,
                         fields=fields)


def verify_family_auto(fields: Sequence[LinearVectorField],
                       gens: Sequence[Poly]) -> Optional[DarbouxFamily]:
    """verify_family with the cofactor degree bound escalated on demand up
    to COFACTOR_DEGREE_BOUND (constant cofactors suffice for most
    families, so try those first)."""
    for bound in range(COFACTOR_DEGREE_BOUND + 1):
        fam = verify_family(fields, gens, bound)
        if fam is not None:
            return fam
    return None


def family_sum(a: DarbouxFamily, b: DarbouxFamily) -> DarbouxFamily:
    """Sum of two verified families over the same fields (independent union
    of generators, re-verified)."""
    if a.fields != b.fields:
        raise IncompatibleFields("families verified against different fields")
    gens = list(a.generators)
    for p in b.generators:
        if len(poly_rref(gens + [p])) > len(gens):
            gens.append(p)
    out = verify_family(a.fields, gens, COFACTOR_DEGREE_BOUND)
    if out is None:
        raise IncompatibleFields("sum of Darboux families failed to verify")
    return out


# ---------------------------------------------------------------------------
# bricks
# ---------------------------------------------------------------------------

def _char_poly(rows: Sequence[Sequence[int]]) -> list[int]:
    """Characteristic polynomial coefficients [c_0..c_n] of det(tI - M) for
    the integer matrix M with the given rows, by the Faddeev-LeVerrier
    recursion in ``int`` arithmetic: from M_0 = I, step k forms
    A_k = M·M_{k-1}, c_{n-k} = -tr(A_k)/k and M_k = A_k + c_{n-k}·I.  Each
    M_k is an integer polynomial in M, and c_{n-k} is a coefficient of the
    monic integer polynomial det(tI - M), so every division by k is
    exact."""
    n = len(rows)
    coeffs = [0] * n + [1]
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        cols = list(zip(*mk))
        mk = [[sum(map(mul, r, col)) for col in cols] for r in rows]
        c = -sum(mk[i][i] for i in range(n)) // k
        coeffs[n - k] = c
        for i in range(n):
            mk[i][i] += c
    return coeffs


def _rational_eigenvalues(m: RatMatrix) -> list[Fraction]:
    """All rational roots of the characteristic polynomial.

    With D the lcm of the entries' denominators, D*M is an integer matrix
    (formed once, as rows of ints) with a monic integer characteristic
    polynomial (``_char_poly``), so its rational roots are integers mu: 0,
    or divisors of the lowest nonzero coefficient with |mu| at most the
    largest absolute row sum of D*M (the spectral radius is at most the
    infinity norm).  The roots of M are the mu/D."""
    den, ints = clear_denominators(m.flat())
    n = m.cols
    rows = [ints[i * n:(i + 1) * n] for i in range(m.rows)]
    coeffs = _char_poly(rows)
    bound = max((sum(map(abs, r)) for r in rows), default=0)
    k = next(i for i, c in enumerate(coeffs) if c)
    roots = {0} if k else set()
    low = abs(coeffs[k])
    for d in range(1, min(isqrt(low), bound) + 1):
        if low % d == 0:
            for mu in (d, -d, low // d, -(low // d)):
                if (abs(mu) <= bound
                        and not sum(c * mu ** i for i, c in enumerate(coeffs))):
                    roots.add(mu)
    return sorted(Fraction(mu, den) for mu in roots)


def find_bricks(fields: Sequence[LinearVectorField]) -> list[Brick]:
    """Common eigenvectors (as linear polynomials, rational eigenvalues) of
    all transposed field matrices: X f = lambda_X f for every basis field.

    Computed by refining candidate subspaces through the rational
    eigenspaces of each field in turn; complete for fields with rational
    common spectra, which covers every catalog family."""
    if not fields:
        return []
    n = fields[0].nvars
    subspaces = [RatMatrix.identity(n)]
    eigrecords: list[tuple[Fraction, ...]] = [()]
    for X in fields:
        mt = X.matrix.transpose()
        shifts = [(lam, mt - RatMatrix.identity(n).scale(lam))
                  for lam in _rational_eigenvalues(mt)]
        new_spaces, new_recs = [], []
        for space, rec in zip(subspaces, eigrecords):
            st = space.transpose()
            for lam, shift in shifts:
                # v = spaceᵀ k, in the row space of `space`, with shift v = 0
                vecs = [v for v in map(st.matvec,
                                       kernel_basis(shift.matmul(st)))
                        if any(v)]
                if vecs:
                    new_spaces.append(RatMatrix(vecs))
                    new_recs.append(rec + (lam,))
        subspaces, eigrecords = new_spaces, new_recs
        if not subspaces:
            return []
    bricks = []
    for space, rec in zip(subspaces, eigrecords):
        red, pivots = rref(space)
        for i in range(len(pivots)):
            poly = Poly({((j, 1),): red[i, j] for j in range(n) if red[i, j]})
            bricks.append(Brick(poly=normalize_poly(poly), eigenvalues=rec))
    bricks.sort(key=lambda b: min(v for m in b.poly.terms for v, _ in m))
    return bricks


# ---------------------------------------------------------------------------
# branch loci and verification
# ---------------------------------------------------------------------------

def locus_contains(branch: TreeBranch, p: Sequence) -> bool:
    """All equalities vanish at p and all sign constraints hold at p.

    Tested in ``int`` arithmetic on the branch's ``int_forms``: p is q/den
    for the ints q and the lcm den > 0 of its denominators, and each form's
    ``eval(q, den)`` is a positive multiple of the polynomial's value at p.
    A point too short for a polynomial raises ``MissingVariable``."""
    den, q = clear_denominators(rat(x) for x in p)
    return locus_contains_ints(branch, q, den)


def locus_contains_ints(branch: TreeBranch, q: Sequence[int],
                        den: int) -> bool:
    """``locus_contains`` at the point q/den, given as ints q and den > 0."""
    eqs, ineqs = branch.int_forms
    for f in eqs:
        if f.eval(q, den):
            return False
    for f, op in ineqs:
        v = f.eval(q, den)
        if op == "!=" and v == 0:
            return False
        if op == ">" and v <= 0:
            return False
        if op == "<" and v >= 0:
            return False
    return True


def locus_sampler(branch: TreeBranch):
    """An empty list of sample points and the function that appends a point
    (made exact) when it is new and lies on the branch's locus.  A set
    beside the list tests newness first, so a repeat skips the locus test;
    it holds each point as ``clear_denominators`` gives it, (den, *q), which
    is canonical because den is the lcm of the reduced denominators."""
    out: list[tuple[Fraction, ...]] = []
    seen: set[tuple[int, ...]] = set()

    def push(pt: Sequence) -> None:
        pt = tuple(rat(x) for x in pt)
        den, q = clear_denominators(pt)
        key = (den, *q)
        if key not in seen and locus_contains_ints(branch, q, den):
            seen.add(key)
            out.append(pt)

    return out, push


def solve_linear(f: Poly, v: int, point: Sequence) -> Optional[Fraction]:
    """The value of x_v that makes f vanish at point, with f's other
    coordinates taken from point: -b(point)/a(point) for f = a*x_v + b with
    a and b free of x_v.  None when f does not involve x_v, is not linear
    in x_v, or has an x_v coefficient a that is zero at point."""
    a, b = {}, {}
    for m, c in f.terms.items():
        e = dict(m).get(v)
        if e is None:
            b[m] = c
        elif e == 1:
            a[tuple(t for t in m if t[0] != v)] = c
        else:
            return None
    coef = Poly(a).eval(point)
    return -Poly(b).eval(point) / coef if coef else None


def branch_samples(branch: TreeBranch, nvars: int,
                   extra: Sequence[Sequence] = ()) -> list[tuple[Fraction, ...]]:
    """Sample grid: one point per sign pattern of the inequality
    polynomials, coordinates drawn from {-2,-1,1,2} on constrained
    coordinates and {0,1} on free ones, filtered through the locus."""
    out, push = locus_sampler(branch)
    for pt in extra:
        push(pt)
    eq_vars = {v for f in branch.equalities for v in f.variables()}
    ineq_vars = {v for f, _ in branch.inequalities for v in f.variables()}
    linear_eqs = [f for f in branch.equalities if f.degree() == 1]
    # each linear equality is solved for one variable, preferring one that
    # carries no sign constraint so grid values on constrained coordinates
    # survive; a constant equality has no variable and is left to the
    # locus and family checks
    solved_vars: list[int] = []
    solve_for: list[tuple[Poly, int]] = []
    for f in linear_eqs:
        vs = sorted(f.variables(), reverse=True)
        pick = next((v for v in vs
                     if v not in ineq_vars and v not in solved_vars), None)
        if pick is None:
            pick = next((v for v in vs if v not in solved_vars), vs[0])
        solved_vars.append(pick)
        solve_for.append((f, pick))
    free = (set(range(nvars)) - eq_vars) - ineq_vars
    active = (sorted(v for v in ineq_vars if v not in solved_vars)
              + sorted(v for v in free if v not in solved_vars))
    active = [v for v in active if v < nvars]
    for combo in itertools.product([-1, 1, 2, -2, 0], repeat=min(len(active), 4)):
        base = [Fraction(0)] * nvars
        for v, val in zip(active[:4], combo):
            base[v] = Fraction(val)
        for f, v0 in solve_for:
            x = solve_linear(f, v0, base)
            if x is not None:
                base[v0] = x
        push(base)
        if len(out) >= 2 ** min(len(branch.inequalities), 4) + 4:
            break
    return out


def certify_no_solutions(branch: TreeBranch, system: Sequence[Poly],
                         nvars: int) -> Optional[str]:
    """Certificate that the branch meets no point of the system's locus.

    Searches the degree-<=2 (COFACTOR_DEGREE_BOUND) consequences Z of
    {equalities, system} for either (a) a product of powers of inequality
    polynomials, or (b) a positive-semidefinite quadratic form dominating
    the square of an inequality polynomial.  Returns a human-readable
    certificate or None (reported as "unconfirmed", never asserted).
    """
    consequences: list[Poly] = list(system)
    for f in branch.equalities:
        bound = COFACTOR_DEGREE_BOUND - f.degree()
        if bound < 0:
            continue
        for mu in monomials_up_to(nvars, bound):
            consequences.append(f * Poly({mu: 1}))
    basis = poly_rref(p for p in consequences
                      if p.degree() <= COFACTOR_DEGREE_BOUND)
    if not basis:
        return None

    ineqs = [f for f, _ in branch.inequalities]
    # (a) products of inequality polynomials up to total degree 2
    candidates: list[tuple[Poly, str]] = []
    for i, f in enumerate(ineqs):
        candidates.append((f, f"ineq{i + 1}"))
        if f.degree() == 1:
            candidates.append((f * f, f"ineq{i + 1}^2"))
        for j in range(i + 1, len(ineqs)):
            g = ineqs[j]
            if f.degree() + g.degree() <= COFACTOR_DEGREE_BOUND:
                candidates.append((f * g, f"ineq{i + 1}*ineq{j + 1}"))
    for p, tag in candidates:
        if poly_rref_contains(basis, p):
            return f"forced zero: {tag} = {p.text()}"
    # (b) PSD form z with z - c*q^2 still PSD for a linear inequality q
    for z in basis:
        gram = _gram(z, nvars)
        if gram is None or not _psd(gram):
            continue
        for i, q in enumerate(ineqs):
            if q.degree() != 1:
                continue
            q2 = _gram(q * q, nvars)
            for c in (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(1, 4)):
                diff = RatMatrix([[gram[a, b] - c * q2[a, b]
                                   for b in range(nvars)]
                                  for a in range(nvars)])
                if _psd(diff):
                    return (f"PSD domination: {z.text()} = 0 forces "
                            f"ineq{i + 1} = {q.text()} = 0")
    return None


def _gram(p: Poly, nvars: int) -> Optional[RatMatrix]:
    """Symmetric matrix of a quadratic form, or None if p is not one."""
    m = [[Fraction(0)] * nvars for _ in range(nvars)]
    for mono, c in p.terms.items():
        if sum(e for _, e in mono) != 2:
            return None
        if len(mono) == 1:
            v, _ = mono[0]
            m[v][v] = c
        else:
            (v1, _), (v2, _) = mono
            m[v1][v2] = m[v2][v1] = c / 2
    return RatMatrix(m)


def _psd(m: RatMatrix) -> bool:
    """Exact positive-semidefiniteness of a symmetric matrix by symmetric
    elimination: a positive pivot a_kk is replaced by its Schur complement
    on the rows and columns after k, a_ij -= a_ik a_kj / a_kk for
    j >= i > k (mirrored to a_ji).  A negative pivot, or a zero pivot with
    a nonzero entry after it in its row, makes the matrix indefinite."""
    a = [list(r) for r in m.entries]
    n = m.rows
    for k in range(n):
        piv = a[k][k]
        if piv < 0:
            return False
        if piv == 0:
            if any(a[k][j] for j in range(k + 1, n)):
                return False
            continue
        for i in range(k + 1, n):
            f = a[k][i] / piv
            for j in range(i, n):
                a[i][j] -= f * a[k][j]
                a[j][i] = a[i][j]
    return True


@dataclass
class BranchReport:
    label: str
    family_verified: bool
    linear: bool
    ranks: list[int]
    rank_constant: bool
    expected_dim: Optional[int]
    dim_matches: Optional[bool]
    samples_checked: int
    mcybe_ok: bool
    certificate: str = ""

    @property
    def passed(self) -> bool:
        ok = self.family_verified and self.rank_constant and self.mcybe_ok
        if self.dim_matches is not None:
            ok = ok and self.dim_matches
        return ok


def verify_branch(ctx: AlgebraContext, fields: Sequence[LinearVectorField],
                  branch: TreeBranch, samples: Sequence[Sequence],
                  family_cache: Optional[dict] = None) -> BranchReport:
    """Full branch check: the equalities form a Darboux family (cofactors
    of degree <= COFACTOR_DEGREE_BOUND) on the branch's open set, the field
    rank is constant across samples and equals the expected stratum
    dimension (when recorded), and every sample solves the mCYBE
    (``ctx.is_mcybe_at``).

    The cofactors make the ideal of the equalities invariant under every
    field, so every X^k f_j lies in it and vanishes at each sample, which
    lies on the zero set: the flow check of flow_invariance cannot fail
    there, and is not repeated."""
    pts = [tuple(rat(x) for x in p) for p in samples]
    for p in pts:
        if not locus_contains(branch, p):
            raise BranchInvalid(f"{branch.label}: sample {p} not in locus")
    if not pts:
        raise BranchInvalid(f"{branch.label}: no sample points")
    if branch.equalities:
        key = None
        if family_cache is not None:
            key = (tuple(X.matrix for X in fields), branch.equalities)
        fam = family_cache.get(key) if key is not None else None
        if fam is None:
            fam = verify_family_auto(fields, branch.equalities)
            if key is not None and fam is not None:
                family_cache[key] = fam
    else:
        fam = DarbouxFamily([], [], True, tuple(fields))
    if fam is None:
        raise BranchInvalid(f"{branch.label}: equalities are not a Darboux "
                            f"family at bound {COFACTOR_DEGREE_BOUND}")
    ranks = [rank_at(fields, p) for p in pts]
    rank_constant = len(set(ranks)) == 1
    dim_matches = None
    if branch.expected_dim is not None:
        dim_matches = rank_constant and ranks[0] == branch.expected_dim
    solves = [ctx.is_mcybe_at(p) for p in pts]
    if not any(solves):
        raise BranchInvalid(f"{branch.label}: no mCYBE points")
    return BranchReport(
        label=branch.label, family_verified=True, linear=fam.linear,
        ranks=ranks, rank_constant=rank_constant,
        expected_dim=branch.expected_dim, dim_matches=dim_matches,
        samples_checked=len(pts), mcybe_ok=all(solves))


def _lie_chain(X: LinearVectorField, f: Poly,
               order: int = FLOW_ORDER) -> list[Poly]:
    """[f, Xf, X^2 f, ...] up to X^k f with k = order - deg f, ending
    before the first zero polynomial."""
    chain = []
    for k in range(order - f.degree() + 1):
        if k:
            f = vf_apply(X, f)
        if f.is_zero():
            break
        chain.append(f)
    return chain


def flow_invariance(family: DarbouxFamily, X: LinearVectorField,
                    p: Sequence, order: int = FLOW_ORDER) -> bool:
    """Finite-order flow check by Lie derivatives: the t^k coefficient of
    f(exp(tA) p) is (X^k f)(p) / k!, so every generator must satisfy
    (X^k f)(p) = 0 for k <= order - deg f.  The chain X^k f stops at the
    first zero polynomial (see _lie_chain)."""
    return not any(q.eval(p) for f in family.generators
                   for q in _lie_chain(X, f, order))
