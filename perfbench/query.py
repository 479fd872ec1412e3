"""The ``query`` workload: a seeded stream of single-algebra queries.

One client sends the queries in a closed loop through the public API: the
next query starts when the previous one has returned.  The stream is cut
into blocks of ``BLOCK`` queries.  Every block has the same composition
(``MIX``: which query, on which kind of algebra, of which dimension) in a
seeded order; the seed draws the algebras, parameters and points.  Fixing
the composition keeps the latency percentiles comparable across seeds.

Algebras come in three kinds, all written as inputs before any query runs:

* catalog families at random in-range rational parameters, accepted by
  rejection through ``catalog``'s own range check;
* almost-abelian algebras R x_A R^(n-1) with a small integer matrix A (the
  Jacobi identity holds for every A), emitted as bracket-table text;
* so(3) + R^k in a random unimodular basis, also emitted as text, so that
  the stream holds almost no repeated algebra.

Text algebras are read back with ``liealg.parse_algebra`` inside the timed
query.  Every answer is cross-checked by an independent route after its
block, outside the timed region (``check``).

``bricks`` queries are drawn only for dimension <= 5, because
``find_bricks`` has a cliff above that.  Measured on a 2-core machine with
this generator: on dimension-6 almost-abelian algebras one call took 1.9 s
to 7.5 s for four of generator seeds 0-5 and returned nothing within 60 s
for the other two; on dimension 7 (seed 0) nothing returned within 300 s.
Almost-abelian algebras of dimension 5 already spread from 0.15 s to 2.0 s
over 25 seeds, so there the stream draws bricks on so(3) + R^2 only
(0.28-0.52 s).  The likely cause is the trial-division divisor enumeration
in ``darboux._rational_eigenvalues``.
"""

from __future__ import annotations

import random
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction

from darbouxlie import (MultiVector, RatMatrix, ad_action, bracket, build_rep,
                        catalog, derivation_basis, find_bricks,
                        fundamental_fields, invariants, is_mcybe_solution,
                        orbit_dim, parse_algebra, rank, rank_at, schouten,
                        solve_grading, validate, vf_apply, yb_system)
from darbouxlie.grassmann import indices_of
from darbouxlie.liealg import FAMILIES, FAMILY_PARAMS, ParamOutOfRange

KINDS = ("validate", "derivations", "inv2", "inv3", "schouten", "ybe",
         "orbit_dim", "rank_at", "bricks", "center_ext")

#: (algebra kind, dimension) -> queries per block, in ``KINDS`` order.
#: Three slow queries per block (find_bricks on so(3) + R^2, yb_system on
#: an almost-abelian algebra of dimension 7, derivation_basis on one of
#: dimension 8), each 0.2-0.6 s, form the tail around p99; dimensions 6-8
#: are otherwise drawn only for cheaper queries.  center_ext stops at
#: dimension 7 because the graded extension of a dimension-8 algebra
#: exceeds the package's dimension limit.
MIX = {
    ("catalog", 4):        (7, 6, 6, 6, 7, 4, 4, 4, 1, 2),
    ("almost_abelian", 3): (3, 3, 3, 3, 3, 3, 3, 3, 3, 3),
    ("almost_abelian", 4): (2, 2, 2, 2, 2, 2, 2, 2, 0, 2),
    ("almost_abelian", 5): (2, 2, 2, 2, 2, 2, 1, 1, 0, 2),
    ("almost_abelian", 6): (1, 1, 1, 0, 1, 1, 1, 0, 0, 0),
    ("almost_abelian", 7): (1, 0, 0, 0, 1, 1, 0, 0, 0, 0),
    ("almost_abelian", 8): (1, 1, 0, 0, 1, 0, 0, 0, 0, 0),
    ("so3", 3):            (3, 3, 3, 3, 3, 3, 3, 3, 3, 3),
    ("so3", 4):            (3, 2, 3, 3, 3, 2, 2, 2, 1, 2),
    ("so3", 5):            (2, 2, 2, 2, 2, 2, 1, 1, 1, 2),
    ("so3", 6):            (1, 0, 0, 0, 1, 1, 0, 0, 0, 1),
    ("so3", 7):            (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),
}

#: queries per block
BLOCK = sum(sum(counts) for counts in MIX.values())


@dataclass
class Query:
    kind: str
    source: tuple          # ("catalog", family, params) or ("text", text)
    dim: int
    point: tuple = ()      # bivector coordinates, for the point queries


# ---------------------------------------------------------------------------
# input generation (single process, seeded)
# ---------------------------------------------------------------------------

def _rand_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 6))


def _catalog_source(rng: random.Random):
    family = rng.choice(FAMILIES)
    while True:
        params = {k: _rand_rational(rng)
                  for k in FAMILY_PARAMS.get(family, ())}
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                catalog(family, **params)
        except ParamOutOfRange:
            continue
        return ("catalog", family, params)


def bracket_text(dim: int, c: dict) -> str:
    """Bracket-table text for structure constants {(i, j): vector}, i < j
    0-based, written 1-based."""
    lines = [f"dim {dim}"]
    for (i, j), vec in sorted(c.items()):
        rhs = "".join(f"{'-' if x < 0 else '+'}"
                      f"{'' if abs(x) == 1 else f'{abs(x)}*'}e{k + 1}"
                      for k, x in enumerate(vec) if x)
        if rhs:
            lines.append(f"[{i + 1},{j + 1}] = {rhs.lstrip('+')}")
    return "\n".join(lines) + "\n"


def almost_abelian(rng: random.Random, n: int) -> dict:
    """Structure constants of R x_A R^(n-1): [e_n, e_i] = sum_j A[j][i] e_j,
    with a fixed share (3/5) of the entries of A nonzero.  Jacobi holds for
    every A because R^(n-1) is an abelian ideal."""
    m = n - 1
    cells = rng.sample(range(m * m), round(0.6 * m * m))
    a = [[0] * m for _ in range(m)]
    for cell in cells:
        a[cell // m][cell % m] = rng.choice((-2, -1, 1, 1, 2))
    c = {}
    for i in range(m):
        vec = [Fraction(0)] * n
        for j in range(m):
            vec[j] = Fraction(-a[j][i])      # [e_i, e_n] = -A e_i
        c[(i, n - 1)] = vec
    return c


def _unimodular(rng: random.Random, n: int) -> list[list[Fraction]]:
    """A random integer matrix of determinant +-1: a permutation of a unit
    upper-triangular matrix with entries in {-1, 0, 1}."""
    u = [[Fraction(1 if i == j else (rng.choice((-1, 0, 0, 1)) if j > i else 0))
          for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return [u[perm[i]] for i in range(n)]


def _inverse(p: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(p)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(p)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def change_basis(n: int, c: dict, p: list[list[Fraction]]) -> dict:
    """Structure constants in the basis f_i = sum_a p[a][i] e_a."""
    full = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j), vec in c.items():
        for k in range(n):
            full[i][j][k] = Fraction(vec[k])
            full[j][i][k] = -Fraction(vec[k])
    pinv = _inverse(p)
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = [Fraction(0)] * n
            for a in range(n):
                if not p[a][i]:
                    continue
                for b in range(n):
                    if not p[b][j]:
                        continue
                    w = p[a][i] * p[b][j]
                    for k in range(n):
                        if full[a][b][k]:
                            v[k] += w * full[a][b][k]
            out[(i, j)] = [sum((pinv[r][k] * v[k] for k in range(n)),
                               Fraction(0)) for r in range(n)]
    return out


def so3_plus_abelian(rng: random.Random, n: int) -> dict:
    """so(3) + R^(n-3) in a random unimodular basis."""
    c = {(0, 1): [0, 0, 1] + [0] * (n - 3),
         (1, 2): [1, 0, 0] + [0] * (n - 3),
         (0, 2): [0, -1, 0] + [0] * (n - 3)}
    return change_basis(n, c, _unimodular(rng, n))


ALGEBRAS = {"almost_abelian": almost_abelian, "so3": so3_plus_abelian}


def _point(rng: random.Random, dim: int) -> tuple:
    return tuple(Fraction(rng.choice((-2, -1, 0, 1, 1, 2)))
                 for _ in range(dim * (dim - 1) // 2))


def generate_block(seed: int, index: int) -> list[Query]:
    """Block ``index`` of the stream drawn from ``seed``: the queries of
    ``MIX`` in a seeded order."""
    rng = random.Random(f"{seed}:{index}")
    block = []
    for (alg, dim), counts in MIX.items():
        for kind, count in zip(KINDS, counts):
            for _ in range(count):
                source = (_catalog_source(rng) if alg == "catalog" else
                          ("text", bracket_text(dim, ALGEBRAS[alg](rng, dim))))
                block.append(Query(kind, source, dim, _point(rng, dim)))
    rng.shuffle(block)
    return block


# ---------------------------------------------------------------------------
# answering (the timed part) and checking (outside it)
# ---------------------------------------------------------------------------

def answer(q: Query):
    """Run one query through the public API; returns (algebra, result)."""
    if q.source[0] == "catalog":
        g = catalog(q.source[1], **q.source[2])
    else:
        g = parse_algebra(q.source[1], name="query")
    k = q.kind
    if k == "validate":
        return g, validate(g)
    if k == "derivations":
        return g, derivation_basis(g)
    if k in ("inv2", "inv3"):
        return g, invariants(g, int(k[-1]))
    if k == "schouten":
        w = MultiVector.from_coords(g.dim, 2, q.point)
        return g, schouten(g, w, w)
    if k == "ybe":
        return g, yb_system(g)
    if k == "orbit_dim":
        return g, orbit_dim(g, MultiVector.from_coords(g.dim, 2, q.point))
    if k == "rank_at":
        return g, rank_at(fundamental_fields(g, 2), q.point)
    if k == "bricks":
        return g, find_bricks(fundamental_fields(g, 2))
    if k == "center_ext":
        sol = solve_grading(g)
        return g, (sol, build_rep(g, sol) if sol is not None else None)
    raise ValueError(f"unknown query kind {k!r}")


def _basis(n: int, i: int) -> list[Fraction]:
    return [Fraction(int(k == i)) for k in range(n)]


def _independent(vectors) -> bool:
    vectors = [list(v) for v in vectors]
    return not vectors or rank(RatMatrix(vectors)) == len(vectors)


def _sort_sign(idx) -> int:
    """Sign of the permutation sorting ``idx``; 0 if an index repeats."""
    if len(set(idx)) < len(idx):
        return 0
    inv = sum(a > b for i, a in enumerate(idx) for b in idx[i + 1:])
    return -1 if inv % 2 else 1


def _bracket_of_bivectors(g, w) -> dict:
    """[w, w] as {sorted index triple: coefficient}, from liealg.bracket and
    [x^y, u^v] = [x,u]^y^v - [x,v]^y^u - [y,u]^x^v + [y,v]^x^u."""
    n = g.dim
    terms = [(tuple(i for i in range(n) if m >> i & 1), c)
             for m, c in w.terms.items()]
    out: dict = {}
    for (x, y), ca in terms:
        for (u, v), cb in terms:
            for s, a, b, c, d in ((1, x, u, y, v), (-1, x, v, y, u),
                                  (-1, y, u, x, v), (1, y, v, x, u)):
                br = bracket(g, _basis(n, a), _basis(n, b))
                for k, ck in enumerate(br):
                    sign = _sort_sign((k, c, d)) if ck else 0
                    if sign:
                        key = tuple(sorted((k, c, d)))
                        out[key] = out.get(key, 0) + sign * s * ca * cb * ck
    return {key: c for key, c in out.items() if c}


def check(q: Query, g, result) -> bool:
    """Cross-check one answer by a route independent of the one that
    produced it."""
    n = g.dim
    k = q.kind
    rng = random.Random(str(q.point))
    if k == "validate":
        return result == []          # every generated algebra is a Lie algebra
    if k == "derivations":
        # Leibniz d[x,y] = [dx,y] + [x,dy] on two seeded random pairs
        for _ in range(2):
            x, y = ([Fraction(rng.randint(-3, 3)) for _ in range(n)]
                    for _ in range(2))
            for d in result:
                lhs = d.matvec(bracket(g, x, y))
                rhs = [a + b for a, b in zip(bracket(g, d.matvec(x), y),
                                             bracket(g, x, d.matvec(y)))]
                if list(lhs) != rhs:
                    return False
        return _independent(d.flat() for d in result)
    if k in ("inv2", "inv3"):
        return (all(ad_action(g, _basis(n, i), w).is_zero()
                    for w in result for i in range(n))
                and _independent(w.coords() for w in result))
    if k == "schouten":
        got = {indices_of(m): c for m, c in result.terms.items()}
        return got == _bracket_of_bivectors(
            g, MultiVector.from_coords(n, 2, q.point))
    if k == "ybe":
        m = len(q.point)
        unit = [tuple(Fraction(int(a == b)) for a in range(m))
                for b in (0, m - 1)]
        for p in [tuple(Fraction(0) for _ in range(m)), q.point] + unit:
            vanish = all(poly.eval(p) == 0 for poly in result.mcybe)
            if vanish != is_mcybe_solution(g, p):
                return False
        return True
    if k == "orbit_dim":
        return result == rank_at(fundamental_fields(g, 2), q.point)
    if k == "rank_at":
        return result == orbit_dim(g, MultiVector.from_coords(n, 2, q.point))
    if k == "bricks":
        fields = fundamental_fields(g, 2)
        for b in result:
            if len(b.eigenvalues) != len(fields):
                return False
            for X, lam in zip(fields, b.eigenvalues):
                if vf_apply(X, b.poly) != b.poly * lam:
                    return False
        return True
    if k == "center_ext":
        sol, rep = result
        if sol is None:
            return rep is None
        # the grading must scale each bracket: alpha_i + alpha_j = alpha_k
        for i in range(n):
            for j in range(i + 1, n):
                for kk in range(n):
                    if g.c[i][j][kk] and (sol.alphas[i] + sol.alphas[j]
                                          != sol.alphas[kk]):
                        return False
        # build_rep re-verifies fidelity and faithfulness itself
        return len(rep.matrices) == n
    return False


def run_block(block: list[Query], clock=time.perf_counter,
              cpu_clock=time.process_time):
    """Answer a block in a closed loop; returns (latencies in s, results,
    wall s, cpu s), all read from ``clock`` and ``cpu_clock``.  Exceptions
    are results too, and fail their check."""
    results = []
    lat = []
    w0, c0 = clock(), cpu_clock()
    for q in block:
        t0 = clock()
        try:
            res = answer(q)
        except Exception as e:    # a failed query is counted, not fatal
            res = e
        lat.append(clock() - t0)
        results.append(res)
    wall, cpu = clock() - w0, cpu_clock() - c0
    return lat, results, wall, cpu


def check_block(block: list[Query], results) -> int:
    """Number of failed queries in an answered block."""
    failed = 0
    for q, res in zip(block, results):
        if isinstance(res, Exception):
            failed += 1
            continue
        try:
            ok = check(q, *res)
        except Exception:
            ok = False
        failed += not ok
    return failed
