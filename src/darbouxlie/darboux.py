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

Bricks are found in ``int`` arithmetic: each field matrix M as the ints
D·M, its eigenvalues as the integer roots of one monic characteristic
polynomial, and the candidate subspaces as integer rows.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, isqrt
from typing import Callable, NamedTuple, Optional, Sequence

from .derivations import (LinearVectorField, _rank_at_ints, field_columns,
                          vf_apply)
from .exactmath import (MissingVariable, Poly, _in_row_space, _int_rref,
                        _reduced, _rref_polys, clear_denominators,
                        ideal_memberships, int_echelon, int_kernel_basis,
                        mono_key, mono_mul, monomials_up_to, normalize_poly,
                        poly_rref, rat)
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


class DarbouxFamily(NamedTuple):
    """Verified family: generators plus the cofactor witness table
    cofactors[j][k] with X_k f_j = sum_i cofactors[j][k][i] * f_i."""

    generators: list[Poly]
    cofactors: list[list[list[Poly]]]
    linear: bool
    fields: tuple[LinearVectorField, ...] = ()


class Brick(NamedTuple):
    """One-dimensional linear Darboux family: a common eigenvector of all
    lifted derivations, with its eigenvalue per basis field."""

    poly: Poly
    eigenvalues: tuple[Fraction, ...]


class _TreeBranch(NamedTuple):
    label: str
    equalities: tuple[Poly, ...]
    inequalities: tuple[tuple[Poly, str], ...] = ()
    expected_dim: Optional[int] = None


class TreeBranch(_TreeBranch):
    """One branch of a classification tree: equalities cut the locus,
    inequalities restrict the open set.  Inequality ops: '!=', '>', '<'.
    Immutable: both are stored as tuples."""

    __slots__ = ()

    def __new__(cls, label, equalities, inequalities=(), expected_dim=None):
        return super().__new__(cls, label, tuple(equalities),
                               tuple(inequalities), expected_dim)


def verify_family(fields: Sequence[LinearVectorField], gens: Sequence[Poly],
                  cofactor_degree_bound: int = 0) -> Optional[DarbouxFamily]:
    """Check the closure X f_j in <f_1..f_s> for every field, returning the
    witnessed family or None when the generators are dependent or some
    membership fails within the bound.  All the targets X_k f_j share one
    elimination (``ideal_memberships``); each cofactor list is the one that
    the target alone would get."""
    gens, fields = list(gens), tuple(fields)
    if not _independent(gens):
        return None
    return _family_at_bound(fields, gens, _targets(fields, gens),
                            cofactor_degree_bound)


def verify_family_auto(fields: Sequence[LinearVectorField],
                       gens: Sequence[Poly]) -> Optional[DarbouxFamily]:
    """verify_family with the cofactor degree bound escalated on demand up
    to COFACTOR_DEGREE_BOUND (constant cofactors suffice for most
    families, so try those first).  The independence check and the
    targets X_k f_j are made once, and each bound is tried on them."""
    gens, fields = list(gens), tuple(fields)
    if not _independent(gens):
        return None
    targets = _targets(fields, gens)
    for bound in range(COFACTOR_DEGREE_BOUND + 1):
        fam = _family_at_bound(fields, gens, targets, bound)
        if fam is not None:
            return fam
    return None


def _independent(gens: Sequence[Poly]) -> bool:
    """Whether there are generators and they are linearly independent: the
    rank of their integer coefficient rows (``Poly._integer_form``)."""
    col: dict = {}
    rows = ({col.setdefault(m, len(col)): c
             for c, m, _ in g._integer_form()[1]} for g in gens)
    return bool(gens) and len(int_echelon(rows)) == len(gens)


def _targets(fields: tuple[LinearVectorField, ...],
             gens: Sequence[Poly]) -> list[Poly]:
    """The targets X_k f_j of the closure check, j-major."""
    return [vf_apply(X, f) for f in gens for X in fields]


def _family_at_bound(fields: tuple[LinearVectorField, ...],
                     gens: list[Poly], targets: Sequence[Poly],
                     bound: int) -> Optional[DarbouxFamily]:
    """The family with cofactors of degree <= bound for the targets of
    ``_targets(fields, gens)``, or None when one has none."""
    cofs = ideal_memberships(targets, gens, bound)
    if None in cofs:
        return None
    q = len(fields)
    table = [cofs[j * q:(j + 1) * q] for j in range(len(gens))]
    linear = bound == 0 or all(c.degree() == 0 for hs in cofs for c in hs)
    return DarbouxFamily(generators=gens, cofactors=table, linear=linear,
                         fields=fields)


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

def _char_poly(rows: Sequence[Sequence[tuple[int, int]]]) -> list[int]:
    """Characteristic polynomial coefficients [c_0..c_n] of det(tI - M) for
    the integer matrix M with the given sparse rows (``(column, int)``
    pairs, as in ``RatMatrix.ints``), by the Faddeev-LeVerrier
    recursion in ``int`` arithmetic: from M_0 = I, step k forms
    A_k = M·M_{k-1}, c_{n-k} = -tr(A_k)/k and M_k = A_k + c_{n-k}·I.  Each
    M_k is an integer polynomial in M, and c_{n-k} is a coefficient of the
    monic integer polynomial det(tI - M), so every division by k is
    exact.  Row i of A_k is summed over the nonzero entries of row i of M
    only (the lifted field matrices are sparse)."""
    n = len(rows)
    coeffs = [0] * n + [1]
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        ak = []
        for r in rows:
            row = [0] * n
            for j, x in r:
                row = [a + x * y for a, y in zip(row, mk[j])]
            ak.append(row)
        mk = ak
        c = -sum(mk[i][i] for i in range(n)) // k
        coeffs[n - k] = c
        for i in range(n):
            mk[i][i] += c
    return coeffs


def _integer_eigenvalues(rows: Sequence[Sequence[tuple[int, int]]]
                         ) -> list[int]:
    """The integer roots, sorted, of the characteristic polynomial of the
    integer matrix with the given sparse rows.

    The polynomial is monic with integer coefficients (``_char_poly``), so
    its rational roots are integers mu: 0, or divisors of the lowest nonzero
    coefficient with |mu| at most the largest absolute row sum (the
    spectral radius is at most the infinity norm).  For D·M with D the lcm
    of the denominators of M, the rational eigenvalues of M are the mu/D."""
    coeffs = _char_poly(rows)
    bound = max((sum(abs(x) for _, x in r) for r in rows), default=0)
    k = next(i for i, c in enumerate(coeffs) if c)
    roots = {0} if k else set()
    low = abs(coeffs[k])
    for d in range(1, min(isqrt(low), bound) + 1):
        if low % d == 0:
            for mu in (d, -d, low // d, -(low // d)):
                if (abs(mu) <= bound
                        and not sum(c * mu ** i for i, c in enumerate(coeffs))):
                    roots.add(mu)
    return sorted(roots)


def find_bricks(fields: Sequence[LinearVectorField]) -> list[Brick]:
    """Common eigenvectors (as linear polynomials, rational eigenvalues) of
    all transposed field matrices: X f = lambda_X f for every basis field.

    Computed by refining candidate subspaces through the rational
    eigenspaces of each field in turn; complete for fields with rational
    common spectra, which covers every catalog family.

    Each field matrix M is taken as its integer form, D and the ints D·M;
    D·Mᵀ has the eigenvalues mu of
    ``_integer_eigenvalues`` (M and Mᵀ share their characteristic
    polynomial), and M has the mu/D.  A candidate subspace is kept as
    integer rows S, and refined to the vectors Sᵀk with (D·Mᵀ - mu)·Sᵀk = 0,
    each kernel vector k cleared to ints.  The bricks are the rows of the
    integer RREF of the final S (``_int_rref``), each normalized: they
    depend only on its span."""
    if not fields:
        return []
    n = fields[0].rows
    subspaces = [[[int(i == j) for j in range(n)] for i in range(n)]]
    eigrecords: list[tuple[Fraction, ...]] = [()]
    for X in fields:
        den, rows = X.den, X.ints
        mus = _integer_eigenvalues(rows)
        new_spaces, new_recs = [], []
        for space, rec in zip(subspaces, eigrecords):
            # prod[b][s] = (D·Mᵀ·Sᵀ)[b][s] = sum_a (D·M)[a][b] S[s][a]
            prod = [[0] * len(space) for _ in range(n)]
            for s, v in enumerate(space):
                for a, va in enumerate(v):
                    if va:
                        for b, x in rows[a]:
                            prod[b][s] += x * va
            for mu in mus:
                system = [{s: x - mu * v[b] for s, (x, v)
                           in enumerate(zip(prod[b], space))
                           if x != mu * v[b]} for b in range(n)]
                vecs = []
                for k in int_kernel_basis(system, len(space)):
                    _, ks = clear_denominators(k)
                    vec = [sum(kj * v[b] for kj, v in zip(ks, space) if kj)
                           for b in range(n)]
                    g = gcd(*vec)
                    vecs.append([x // g for x in vec])
                if vecs:
                    new_spaces.append(vecs)
                    new_recs.append(rec + (Fraction(mu, den),))
        subspaces, eigrecords = new_spaces, new_recs
        if not subspaces:
            return []
    bricks = []
    for space, rec in zip(subspaces, eigrecords):
        red, _ = _int_rref({j: x for j, x in enumerate(v) if x}
                           for v in space)
        for r in red:
            poly = Poly({((j, 1),): x for j, x in sorted(r.items())})
            bricks.append(Brick(poly=normalize_poly(poly), eigenvalues=rec))
    bricks.sort(key=lambda b: min(v for m in b.poly.terms for v, _ in m))
    return bricks


# ---------------------------------------------------------------------------
# branch loci and verification
# ---------------------------------------------------------------------------

def locus_contains(branch: TreeBranch, p: Sequence) -> bool:
    """All equalities vanish at p and all sign constraints hold at p.

    Tested in ``int`` arithmetic (``Poly.eval_int``): p is q/den for the
    ints q and the lcm den > 0 of its denominators, and each polynomial's
    ``eval_int(q, den)`` is a positive multiple of its value at p.
    A point too short for a polynomial raises ``MissingVariable``."""
    den, q = clear_denominators(rat(x) for x in p)
    return locus_contains_ints(branch, q, den)


def locus_contains_ints(branch: TreeBranch, q: Sequence[int],
                        den: int) -> bool:
    """``locus_contains`` at the point q/den, given as ints q and den > 0."""
    for f in branch.equalities:
        if f.eval_int(q, den):
            return False
    for f, op in branch.inequalities:
        v = f.eval_int(q, den)
        if op == "!=" and v == 0:
            return False
        if op == ">" and v <= 0:
            return False
        if op == "<" and v >= 0:
            return False
    return True


def locus_sampler(branch: TreeBranch):
    """An empty dict of sample points and the function that adds a point
    when it is new and lies on the branch's locus.  ``push`` takes the
    point in any exact form, or as ``push(q, den)`` when it is cleared
    already, and keeps it as ``clear_denominators`` gives it, (den, q)
    with q a tuple of ints: canonical, because den is the lcm of the
    reduced denominators (1 for a point of ints).  The points are the
    dict's keys, in the order they were accepted, so a repeat skips the
    locus test."""
    out: dict[tuple[int, tuple[int, ...]], None] = {}

    def push(pt: Sequence, den: Optional[int] = None) -> None:
        if den is None:
            if all(type(x) is int for x in pt):
                den = 1
            else:
                den, pt = clear_denominators(
                    x if isinstance(x, (int, Fraction)) else rat(x)
                    for x in pt)
        key = (den, tuple(pt))
        if key not in out and locus_contains_ints(branch, pt, den):
            out[key] = None

    return out, push


def rational_point(den: int, q: Sequence[int]) -> tuple[Fraction, ...]:
    """The sample point (den, q) as the tuple of Fractions q/den, for the
    messages that print it."""
    return tuple(Fraction(x, den) for x in q)


def linear_solver(f: Poly, v: int
                  ) -> Optional[Callable[[Sequence], Optional[Fraction]]]:
    """f split once as a*x_v + b with a and b free of x_v: the function
    that gives -b(p)/a(p) at a point p, or None where a(p) = 0.  None in
    place of the function when f does not involve x_v or is not linear in
    it.  When f has degree 1, a is a nonzero constant and the function is
    a constant plus a dot product with p's other coordinates."""
    a, b = {}, {}
    for m, c in f.terms.items():
        e = dict(m).get(v)
        if e is None:
            b[m] = c
        elif e == 1:
            a[tuple(t for t in m if t[0] != v)] = c
        else:
            return None
    if not a:
        return None
    if f.degree() == 1:
        coef = a[()]
        const = -b.pop((), 0) / coef
        terms = [(m[0][0], -c / coef) for m, c in b.items()]

        def solve(p: Sequence) -> Fraction:
            x = const
            for u, c in terms:
                try:
                    x += c * rat(p[u])
                except (IndexError, KeyError):
                    raise MissingVariable(f"x{u + 1}") from None
            return x
        return solve
    pa, pb = Poly(a), Poly(b)

    def solve(p: Sequence) -> Optional[Fraction]:
        coef = pa.eval(p)
        return -pb.eval(p) / coef if coef else None
    return solve


def branch_samples(branch: TreeBranch, nvars: int,
                   extra: Sequence[Sequence] = ()
                   ) -> list[tuple[int, tuple[int, ...]]]:
    """Sample grid: one point per sign pattern of the inequality
    polynomials, coordinates drawn from {-2,-1,1,2} on constrained
    coordinates and {0,1} on free ones, filtered through the locus.  Each
    point is given as (den, q) (``locus_sampler``)."""
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
    solve_for: list[tuple[int, Callable]] = []
    for f in linear_eqs:
        vs = sorted(f.variables(), reverse=True)
        pick = next((v for v in vs
                     if v not in ineq_vars and v not in solved_vars), None)
        if pick is None:
            pick = next((v for v in vs if v not in solved_vars), vs[0])
        solved_vars.append(pick)
        solve = linear_solver(f, pick)
        if solve is not None:
            solve_for.append((pick, solve))
    free = (set(range(nvars)) - eq_vars) - ineq_vars
    active = (sorted(v for v in ineq_vars if v not in solved_vars)
              + sorted(v for v in free if v not in solved_vars))
    active = [v for v in active if v < nvars]
    for combo in itertools.product([-1, 1, 2, -2, 0], repeat=min(len(active), 4)):
        base = [0] * nvars
        for v, val in zip(active[:4], combo):
            base[v] = val
        for v0, solve in solve_for:
            x = solve(base)
            if x is not None:
                base[v0] = x
        push(base)
        if len(out) >= 2 ** min(len(branch.inequalities), 4) + 4:
            break
    return list(out)


def certify_no_solutions(branch: TreeBranch, system: Sequence[Poly],
                         nvars: int) -> Optional[str]:
    """Certificate that the branch meets no point of the system's locus.

    Searches the degree-<=2 (COFACTOR_DEGREE_BOUND) consequences Z of
    {equalities, system} for either (a) a product of powers of inequality
    polynomials, or (b) a positive-semidefinite quadratic form dominating
    the square of an inequality polynomial.  Returns a human-readable
    certificate or None (reported as "unconfirmed", never asserted).

    The consequences are integer rows over their monomials (each an
    equality f times a monomial mu is f's integer form shifted by mu), and
    their span is the integer echelon (``int_echelon``), built once: a
    candidate of (a) is tested against its pivot rows.  The basis that (b)
    reads, ``poly_rref`` of the consequences, is reduced from the echelon
    (in place) only when (a) finds no certificate.
    """
    consequences = [{m: c for c, m, _ in p._integer_form()[1]}
                    for p in system if p.degree() <= COFACTOR_DEGREE_BOUND]
    for f in branch.equalities:
        bound = COFACTOR_DEGREE_BOUND - f.degree()
        if bound < 0:
            continue
        _, terms = f._integer_form()
        for mu in monomials_up_to(nvars, bound):
            consequences.append({mono_mul(m, mu): c for c, m, _ in terms})
    support = sorted({m for r in consequences for m in r}, key=mono_key)
    col = {m: j for j, m in enumerate(support)}
    pivots = int_echelon({col[m]: c for m, c in r.items()}
                         for r in consequences)
    if not pivots:
        return None

    def in_span(p: Poly) -> bool:
        row = {}
        for c, m, _ in p._integer_form()[1]:
            j = col.get(m)
            if j is None:
                return False
            row[j] = c
        return _in_row_space(pivots, row)

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
        if in_span(p):
            return f"forced zero: {tag} = {p.text()}"
    # (b) PSD form z with z - c*q^2 still PSD for a linear inequality q
    for z in _rref_polys(support, *_reduced(pivots)):
        gram = _gram(z, nvars)
        if gram is None or not _psd(gram):
            continue
        for i, q in enumerate(ineqs):
            if q.degree() != 1:
                continue
            q2 = _gram(q * q, nvars)
            for c in (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(1, 4)):
                if _psd([[x - c * y for x, y in zip(r, r2)]
                         for r, r2 in zip(gram, q2)]):
                    return (f"PSD domination: {z.text()} = 0 forces "
                            f"ineq{i + 1} = {q.text()} = 0")
    return None


def _gram(p: Poly, nvars: int) -> Optional[list[list[Fraction]]]:
    """Symmetric matrix (rows) of a quadratic form, or None if p is not one."""
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
    return m


def _psd(m: Sequence[Sequence[Fraction]]) -> bool:
    """Exact positive-semidefiniteness of a symmetric matrix (its rows,
    left unchanged) by symmetric elimination: a positive pivot a_kk is
    replaced by its Schur complement on the rows and columns after k,
    a_ij -= a_ik a_kj / a_kk for j >= i > k (mirrored to a_ji).  A
    negative pivot, or a zero pivot with a nonzero entry after it in its
    row, makes the matrix indefinite."""
    a = [list(r) for r in m]
    n = len(a)
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


class BranchReport(NamedTuple):
    label: str
    linear: bool
    ranks: list[int]
    rank_constant: bool
    expected_dim: Optional[int]
    dim_matches: Optional[bool]
    samples_checked: int
    mcybe_ok: bool

    @property
    def passed(self) -> bool:
        ok = self.rank_constant and self.mcybe_ok
        if self.dim_matches is not None:
            ok = ok and self.dim_matches
        return ok


def verify_branch(ctx: AlgebraContext, fields: Sequence[LinearVectorField],
                  branch: TreeBranch,
                  samples: Sequence[tuple[int, Sequence[int]]],
                  family_cache: Optional[dict] = None) -> BranchReport:
    """Full branch check: the equalities form a Darboux family (cofactors
    of degree <= COFACTOR_DEGREE_BOUND) on the branch's open set, the field
    rank is constant across samples and equals the expected stratum
    dimension (when recorded), and every sample solves the mCYBE
    (``ctx._is_mcybe_ints``).  Each sample is the point q/den given as
    (den, q), ints with den > 0, as ``branch_samples`` gives it; the three
    point checks read those ints, and ``family_cache`` is keyed by the
    fields and the equalities (a field compares by its canonical integer
    form).

    The cofactors make the ideal of the equalities invariant under every
    field, so every X^k f_j lies in it and vanishes at each sample, which
    lies on the zero set: the flow check of flow_invariance cannot fail
    there, and is not repeated."""
    for den, q in samples:
        if not locus_contains_ints(branch, q, den):
            raise BranchInvalid(f"{branch.label}: sample "
                                f"{rational_point(den, q)} not in locus")
    if not samples:
        raise BranchInvalid(f"{branch.label}: no sample points")
    if branch.equalities:
        key = None
        if family_cache is not None:
            key = (tuple(fields), branch.equalities)
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
    cols = field_columns(fields)
    ranks = [_rank_at_ints(cols, q) for _, q in samples]
    rank_constant = len(set(ranks)) == 1
    dim_matches = None
    if branch.expected_dim is not None:
        dim_matches = rank_constant and ranks[0] == branch.expected_dim
    solves = [ctx._is_mcybe_ints(q) for _, q in samples]
    if not any(solves):
        raise BranchInvalid(f"{branch.label}: no mCYBE points")
    return BranchReport(
        label=branch.label, linear=fam.linear,
        ranks=ranks, rank_constant=rank_constant,
        expected_dim=branch.expected_dim, dim_matches=dim_matches,
        samples_checked=len(samples), mcybe_ok=all(solves))


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
