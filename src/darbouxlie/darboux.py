"""Darboux families for Lie algebras of linear vector fields: closure
verification with cofactor witnesses, bricks (common eigenvectors), sums,
branch loci, and verification of classification-tree branches.

A family <f_1..f_s> is Darboux for fields X_1..X_q when every X f_j is an
exact polynomial combination sum_i h^i f_i; the witness table h is produced
by one exact linear solve per (field, generator) pair.  Branches carry
equalities (the family), sign/nonzero constraints on the open set, and are
checked against sample points: family closure, constant field rank, and
mCYBE membership.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .derivations import LinearVectorField, rank_at, vf_apply
from .exactmath import (Poly, RatMatrix, ideal_membership, kernel_basis,
                        monomials_up_to, normalize_poly, rank, rat, rref,
                        span_contains)
from .yangbaxter import is_mcybe_solution
from .liealg import LieAlgebra


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
    inequalities restrict the open set.  Inequality ops: '!=', '>', '<'."""

    label: str
    equalities: list[Poly]
    inequalities: list[tuple[Poly, str]] = field(default_factory=list)
    no_solutions: bool = False
    condition: str = ""           # parameter condition, already resolved
    expected_dim: Optional[int] = None
    note: str = ""


def _independent(polys: Sequence[Poly]) -> bool:
    from .exactmath import mono_key
    support = sorted({m for p in polys for m in p.terms}, key=mono_key)
    if not support:
        return not polys
    mat = RatMatrix([[p.terms.get(m, Fraction(0)) for m in support]
                     for p in polys])
    return rank(mat) == len(polys)


def verify_family(fields: Sequence[LinearVectorField], gens: Sequence[Poly],
                  cofactor_degree_bound: int = 0) -> Optional[DarbouxFamily]:
    """Check the closure X f_j in <f_1..f_s> for every field, returning the
    witnessed family or None when some membership fails within the bound."""
    gens = list(gens)
    if not gens or not _independent(gens):
        return None
    table: list[list[list[Poly]]] = []
    linear = True
    for f in gens:
        per_field = []
        for X in fields:
            xf = vf_apply(X, f)
            cofs = ideal_membership(xf, gens, cofactor_degree_bound)
            if cofs is None:
                return None
            if any(c.degree() > 0 for c in cofs):
                linear = False
            per_field.append(cofs)
        table.append(per_field)
    return DarbouxFamily(generators=gens, cofactors=table, linear=linear,
                         fields=tuple(fields))


def verify_family_auto(fields: Sequence[LinearVectorField],
                       gens: Sequence[Poly],
                       max_bound: int = 2) -> Optional[DarbouxFamily]:
    """verify_family with the cofactor degree bound escalated on demand
    (constant cofactors suffice for most families, so try those first)."""
    for bound in range(max_bound + 1):
        fam = verify_family(fields, gens, bound)
        if fam is not None:
            return fam
    return None


def family_sum(a: DarbouxFamily, b: DarbouxFamily,
               cofactor_degree_bound: int = 2) -> DarbouxFamily:
    """Sum of two verified families over the same fields (independent union
    of generators, re-verified)."""
    if a.fields != b.fields:
        raise IncompatibleFields("families verified against different fields")
    gens = list(a.generators)
    for p in b.generators:
        from .exactmath import mono_key
        support = sorted({m for q in gens + [p] for m in q.terms},
                         key=mono_key)
        rows = [[q.terms.get(m, Fraction(0)) for m in support] for q in gens]
        if not span_contains(rows, [p.terms.get(m, Fraction(0))
                                    for m in support]):
            gens.append(p)
    out = verify_family(a.fields, gens, cofactor_degree_bound)
    if out is None:
        raise IncompatibleFields("sum of Darboux families failed to verify")
    return out


# ---------------------------------------------------------------------------
# bricks
# ---------------------------------------------------------------------------

def _char_poly(m: RatMatrix) -> list[Fraction]:
    """Characteristic polynomial coefficients [c_0..c_n] of det(tI - M),
    by the Faddeev-LeVerrier recursion (exact)."""
    n = m.rows
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = RatMatrix.identity(n)
    for k in range(1, n + 1):
        mk = m.matmul(mk)
        trace = sum((mk[i, i] for i in range(n)), Fraction(0))
        c = -trace / k
        coeffs[n - k] = c
        mk = mk + RatMatrix.identity(n).scale(c)
    return coeffs


def _rational_eigenvalues(m: RatMatrix) -> list[Fraction]:
    """All rational roots of the characteristic polynomial."""
    coeffs = _char_poly(m)
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        return []
    k = 0
    while ints[k] == 0:
        k += 1
    roots = {Fraction(0)} if k else set()
    a0, an = abs(ints[k]), abs(ints[-1])

    def divisors(x):
        out = []
        d = 1
        while d * d <= x:
            if x % d == 0:
                out += [d, x // d]
            d += 1
        return out

    for p in divisors(a0):
        for q in divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if sum(c * cand ** i for i, c in enumerate(coeffs)) == 0:
                    roots.add(cand)
    return sorted(roots)


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
        new_spaces, new_recs = [], []
        for space, rec in zip(subspaces, eigrecords):
            for lam in _rational_eigenvalues(mt):
                rows = [list(r) for r in
                        (mt - RatMatrix.identity(n).scale(lam)).entries]
                # v in row space of `space` with (mt - lam) v = 0
                basis = [list(r) for r in space.entries]
                stacked = []
                for row in rows:
                    stacked.append([sum(row[j] * b[j] for j in range(n))
                                    for b in basis])
                ker = kernel_basis(RatMatrix(stacked))
                vecs = []
                for kv in ker:
                    v = [sum((kv[i] * basis[i][j] for i in range(len(basis))),
                             Fraction(0)) for j in range(n)]
                    if any(v):
                        vecs.append(v)
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
    """All equalities vanish at p and all sign constraints hold at p."""
    point = [rat(x) for x in p]
    for f in branch.equalities:
        if f.eval(point):
            return False
    for f, op in branch.inequalities:
        v = f.eval(point)
        if op == "!=" and v == 0:
            return False
        if op == ">" and v <= 0:
            return False
        if op == "<" and v >= 0:
            return False
    return True


def branch_samples(branch: TreeBranch, nvars: int,
                   extra: Sequence[Sequence] = ()) -> list[tuple[Fraction, ...]]:
    """Sample grid: one point per sign pattern of the inequality
    polynomials, coordinates drawn from {-2,-1,1,2} on constrained
    coordinates and {0,1} on free ones, filtered through the locus."""
    seen: list[tuple[Fraction, ...]] = []

    def push(pt):
        pt = tuple(rat(x) for x in pt)
        if locus_contains(branch, pt) and pt not in seen:
            seen.append(pt)

    for pt in extra:
        push(pt)
    eq_vars = {v for f in branch.equalities for v in f.variables()}
    ineq_vars = {v for f, _ in branch.inequalities for v in f.variables()}
    linear_eqs = [f for f in branch.equalities if f.degree() <= 1]
    # each linear equality is solved for one variable, preferring one that
    # carries no sign constraint so grid values on constrained coordinates
    # survive
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
            c0 = f.terms.get(((v0, 1),), Fraction(0))
            if c0:
                rest = f - Poly.var(v0) * c0
                base[v0] = -rest.eval(base) / c0
        push(base)
        if len(seen) >= 2 ** min(len(branch.inequalities), 4) + 4:
            break
    return seen


def certify_no_solutions(branch: TreeBranch, system: Sequence[Poly],
                         nvars: int, max_degree: int = 2) -> Optional[str]:
    """Certificate that the branch meets no point of the system's locus.

    Searches the degree-<=2 consequences Z of {equalities, system} for
    either (a) a product of powers of inequality polynomials, or (b) a
    positive-semidefinite quadratic form dominating the square of an
    inequality polynomial.  Returns a human-readable certificate or None
    (reported as "unconfirmed", never asserted).
    """
    from .exactmath import mono_key

    consequences: list[Poly] = [p for p in system if not p.is_zero()]
    for f in branch.equalities:
        bound = max_degree - f.degree()
        if bound < 0:
            continue
        for mu in monomials_up_to(nvars, bound):
            consequences.append(f * Poly({mu: 1}))
    consequences = [p for p in consequences
                    if not p.is_zero() and p.degree() <= max_degree]
    support = sorted({m for p in consequences for m in p.terms}, key=mono_key)
    if not support:
        return None
    col = {m: i for i, m in enumerate(support)}
    zmat = RatMatrix([[p.terms.get(m, Fraction(0)) for m in support]
                      for p in consequences])
    zrank = rank(zmat)
    rows = [list(r) for r in zmat.entries]

    def in_z(p: Poly) -> bool:
        if p.degree() > max_degree or any(m not in col for m in p.terms):
            return False
        vec = [p.terms.get(m, Fraction(0)) for m in support]
        return rank(RatMatrix(rows + [vec])) == zrank

    ineqs = [f for f, _ in branch.inequalities]
    # (a) products of inequality polynomials up to total degree 2
    candidates: list[tuple[Poly, str]] = []
    for i, f in enumerate(ineqs):
        candidates.append((f, f"ineq{i + 1}"))
        if f.degree() == 1:
            candidates.append((f * f, f"ineq{i + 1}^2"))
        for j in range(i + 1, len(ineqs)):
            g = ineqs[j]
            if f.degree() + g.degree() <= max_degree:
                candidates.append((f * g, f"ineq{i + 1}*ineq{j + 1}"))
    for p, tag in candidates:
        if in_z(p):
            return f"forced zero: {tag} = {p.text()}"
    # (b) PSD form z with z - c*q^2 still PSD for a linear inequality q
    basis_polys = _z_basis(consequences, support)
    for z in basis_polys:
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


def _z_basis(consequences, support):
    mat = RatMatrix([[p.terms.get(m, Fraction(0)) for m in support]
                     for p in consequences])
    red, pivots = rref(mat)
    return [Poly({support[j]: red[i, j] for j in range(len(support))
                  if red[i, j]}) for i in range(len(pivots))]


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
    """Exact positive-semidefiniteness via recursive pivoting."""
    a = [list(r) for r in m.entries]
    n = m.rows
    for k in range(n):
        if a[k][k] < 0:
            return False
        if a[k][k] == 0:
            if any(a[k][j] for j in range(n)):
                return False
            continue
        piv = a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / piv
            for j in range(k, n):
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


def verify_branch(g: LieAlgebra, fields: Sequence[LinearVectorField],
                  branch: TreeBranch, samples: Sequence[Sequence],
                  cofactor_degree_bound: int = 2,
                  flow_order: int = 8,
                  family_cache: Optional[dict] = None) -> BranchReport:
    """Full branch check: the equalities form a Darboux family on the
    branch's open set, the field rank is constant across samples and equals
    the expected stratum dimension (when recorded), every sample solves the
    mCYBE, and the truncated-flow invariance holds to the given order."""
    pts = [tuple(rat(x) for x in p) for p in samples]
    for p in pts:
        if not locus_contains(branch, p):
            raise BranchInvalid(f"{branch.label}: sample {p} not in locus")
    if not pts:
        raise BranchInvalid(f"{branch.label}: no sample points")
    if branch.equalities:
        key = None
        if family_cache is not None:
            key = (tuple(X.matrix for X in fields),
                   tuple(branch.equalities))
        fam = family_cache.get(key) if key is not None else None
        if fam is None:
            fam = verify_family_auto(fields, branch.equalities,
                                     cofactor_degree_bound)
            if key is not None and fam is not None:
                family_cache[key] = fam
    else:
        fam = DarbouxFamily([], [], True, tuple(fields))
    if fam is None:
        raise BranchInvalid(f"{branch.label}: equalities are not a Darboux "
                            f"family at bound {cofactor_degree_bound}")
    ranks = [rank_at(fields, p) for p in pts]
    rank_constant = len(set(ranks)) == 1
    dim_matches = None
    if branch.expected_dim is not None:
        dim_matches = rank_constant and ranks[0] == branch.expected_dim
    solves = [is_mcybe_solution(g, p) for p in pts]
    if not any(solves):
        raise BranchInvalid(f"{branch.label}: no mCYBE points")
    mcybe_ok = all(solves)
    for p in pts[:4]:
        for X in fields:
            if not flow_invariance(fam, X, p, order=flow_order):
                raise BranchInvalid(
                    f"{branch.label}: flow invariance fails at {p}")
    return BranchReport(
        label=branch.label, family_verified=True, linear=fam.linear,
        ranks=ranks, rank_constant=rank_constant,
        expected_dim=branch.expected_dim, dim_matches=dim_matches,
        samples_checked=len(pts), mcybe_ok=mcybe_ok)


def flow_invariance(family: DarbouxFamily, X: LinearVectorField,
                    p: Sequence, order: int = 8) -> bool:
    """Finite-order flow check: with p(t) = sum_{k<=K} t^k A^k p / k!, every
    generator satisfies f(p(t)) = O(t^{K - deg f + 1}) whenever f(p) = 0
    for all generators."""
    p = [rat(x) for x in p]
    A = X.matrix
    n = len(p)
    # p(t) as a vector of univariate polynomials in t (coefficient lists)
    curves = [[Fraction(0)] * (order + 1) for _ in range(n)]
    vec = list(p)
    fact = Fraction(1)
    for k in range(order + 1):
        if k:
            fact *= k
            vec = list(A.matvec(vec))
        for i in range(n):
            curves[i][k] = vec[i] / fact
    for f in family.generators:
        # expand f(p(t)) exactly up to degree `order` in t
        acc = [Fraction(0)] * (order + 1)
        for mono, c in f.terms.items():
            term = [c] + [Fraction(0)] * order
            for v, e in mono:
                for _ in range(e):
                    term = _poly1d_mul(term, curves[v], order)
            for k in range(order + 1):
                acc[k] += term[k]
        cutoff = order - f.degree() + 1
        if any(acc[k] for k in range(min(cutoff, order + 1))):
            return False
    return True


def _poly1d_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if i + j > order:
                break
            if bj:
                out[i + j] += ai * bj
    return out
