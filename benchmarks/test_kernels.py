"""Layer microbenchmarks for the exact kernels (pytest-benchmark).

    PYTHONPATH=src python -m pytest benchmarks

Outside the tier-1 ``testpaths``, so the test suite does not run them.
Each benchmark first checks the answer it times.
"""

from fractions import Fraction

import pytest

from darbouxlie import darboux, derivations, exprparse
from darbouxlie.classify import (FAMILY_FILES, TREE_FILES,
                                 _component_merge_gaps, expand_rows,
                                 load_automorphisms, load_family, loci_agree,
                                 verify_tree)
from darbouxlie.darboux import (find_bricks, flow_invariance, locus_contains,
                                rational_point, verify_family)
from darbouxlie.derivations import (_rank_at_ints, derivation_basis,
                                    fundamental_fields, lift, rank_at,
                                    vf_apply)
from darbouxlie.exactmath import (Poly, RatMatrix, ideal_membership,
                                  int_kernel_basis, kernel_basis,
                                  monomials_up_to, normalize_poly, rank,
                                  solve)
from darbouxlie.exprparse import parse_poly
from darbouxlie.grassmann import MultiVector, blades, generic_rr, wedge
from darbouxlie.liealg import bracket, catalog, parse_algebra
from darbouxlie.yangbaxter import (AlgebraContext, is_mcybe_solution,
                                   necessary_checks, yb_system)

#: the largest ideal-membership system that the s3, s9 and n1 family-bundle
#: checks solve: x6 against four quadrics with cofactors of degree <= 2
TARGET = "x6"
GENERATORS = ["2*x1*x5 + 3*x1*x6 - 3*x2*x5 + 2*x2*x6 + 2*x3*x4 + 2*x4^2",
              "x3*x5 - 2*x3*x6 - 2*x4*x5", "2*x3*x5 + x3*x6 - 2*x4*x6",
              "x5^2 + x6^2"]
BOUND = 2


def coefficient_system(target: Poly, gens: list[Poly], bound: int):
    """The dense matrix and right-hand side that ideal_membership solves:
    one column per (generator, cofactor monomial), one row per monomial."""
    monos = monomials_up_to(6, bound)
    columns = [g * Poly({mu: 1}) for g in gens for mu in monos]
    support = sorted({m for p in columns + [target] for m in p.terms})
    mat = RatMatrix([[p.terms.get(m, Fraction(0)) for p in columns]
                     for m in support])
    return mat, [target.terms.get(m, Fraction(0)) for m in support]


@pytest.fixture(scope="module")
def system():
    return parse_poly(TARGET, 6), [parse_poly(g, 6) for g in GENERATORS]


def test_solve_ideal_membership_system(benchmark, system):
    mat, rhs = coefficient_system(*system, BOUND)
    assert (mat.rows, mat.cols) == (163, 112)
    assert benchmark(solve, mat, rhs) is None


def test_ideal_membership(benchmark, system):
    target, gens = system
    assert benchmark(ideal_membership, target, gens, BOUND) is None


S3 = dict(alpha=Fraction(1, 2), beta=Fraction(1, 3))


@pytest.fixture(scope="module")
def fields():
    g = catalog("s3", **S3)
    return [lift(d, 2) for d in derivation_basis(g)]


def test_rank_at(benchmark, fields):
    assert benchmark(rank_at, fields, [1, 2, 0, 3, 0, 1]) == 4


def field_matrix_at(fields, p) -> RatMatrix:
    """M(p): row i holds the coefficients of field i at the point p."""
    return RatMatrix([X.matvec(p) for X in fields])


@pytest.fixture(scope="module")
def s3_orbit_points():
    """The s3 algebra's context and its orbit-table sample points at S3, as
    the samplers give them, (den, q), and as Fractions, with the integer
    forms ``is_mcybe_at`` and the rank count use (the context's column map)
    already built."""
    ctx = AlgebraContext(catalog("s3", **S3))
    samples = [s for rec in expand_rows(load_family("s3"), S3)
               for s in rec.samples]
    points = [rational_point(*s) for s in samples]
    ctx.is_mcybe_at(points[0]), ctx.field_columns
    return ctx, samples, points


def test_field_matrix_rank_s3_orbit_points(benchmark, s3_orbit_points):
    """``rank`` of the matrix M(p), built from the field matrices with
    ``matvec``: the reference ``rank_at``."""
    ctx, _, points = s3_orbit_points
    want = [rank_at(ctx.fields, p) for p in points]
    assert benchmark(lambda: [rank(field_matrix_at(ctx.fields, p))
                              for p in points]) == want


def test_rank_at_s3_orbit_points(benchmark, s3_orbit_points):
    """The rank count of the orbit-table check: each point's ints on the
    context's column map."""
    ctx, samples, points = s3_orbit_points
    want = [rank(field_matrix_at(ctx.fields, p)) for p in points]
    assert benchmark(lambda: [_rank_at_ints(ctx.field_columns, q)
                              for _, q in samples]) == want


def test_is_mcybe_solution_s3_orbit_points(benchmark, s3_orbit_points):
    ctx, _, points = s3_orbit_points
    assert all(ctx.is_mcybe_at(p) for p in points)
    assert benchmark(lambda: [is_mcybe_solution(ctx.g, p)
                              for p in points]) == [True] * len(points)


def test_context_is_mcybe_at(benchmark, s3_orbit_points):
    ctx, _, points = s3_orbit_points
    assert all(is_mcybe_solution(ctx.g, p) for p in points)
    assert benchmark(lambda: [ctx.is_mcybe_at(p)
                              for p in points]) == [True] * len(points)


def test_rank_and_mcybe_s3_orbit_points(benchmark, s3_orbit_points):
    """The orbit-table check of each sample point: the rank count and the
    mCYBE test on the ints q of its (den, q)."""
    ctx, samples, points = s3_orbit_points
    want = [(rank_at(ctx.fields, p), ctx.is_mcybe_at(p)) for p in points]
    assert all(ok for _, ok in want) and len({k for k, _ in want}) > 1

    def per_point():
        return [(_rank_at_ints(ctx.field_columns, q), ctx._is_mcybe_ints(q))
                for _, q in samples]
    assert per_point() == want
    assert benchmark(per_point) == want


@pytest.fixture(scope="module")
def s3_merge_rows():
    """The s3 orbit records at S3, with their samples (den, q) and integer
    forms built, and the lifts Λ²T of the shipped automorphisms."""
    fam = load_family("s3")
    ctx = AlgebraContext(catalog("s3", **S3))
    lifted = [ctx.lift_automorphism(T)
              for _, T in load_automorphisms(fam, S3, ctx)]
    records = expand_rows(fam, S3)
    for rec in records:
        rec.samples
    return lifted, records


def _fraction_merge_gaps(lifted, rec):
    """The merge walk on Fraction points, each lift applied by ``matvec``
    and read with ``Poly.eval``: the reference
    ``_component_merge_gaps``."""
    strict = [f for f, op in rec.branch.inequalities
              if op == "!=" and f.degree() == 1]

    def signature(p):
        return tuple(1 if f.eval(p) > 0 else -1 for f in strict)
    comps = dict.fromkeys(signature(rational_point(*s)) for s in rec.samples)
    if not strict or len(comps) <= 1:
        return []
    start = rec.rep.coords()
    reached, frontier = {signature(start)}, [start]
    while frontier:
        p = frontier.pop()
        for L in lifted:
            q = L.matvec(p)
            if _poly_eval_locus(rec.branch, q) and signature(q) not in reached:
                reached.add(signature(q))
                frontier.append(q)
    return [s for s in comps if s not in reached]


def test_merge_walk_s3_rows(benchmark, s3_merge_rows):
    """The walk on integer points over every s3 row at S3: all the sign
    components are joined, and without the lifts the rows of several
    components miss the same ones as the reference."""
    lifted, records = s3_merge_rows

    def walk(lifts):
        return [_component_merge_gaps(lifts, rec) for rec in records]
    bare = walk([])
    assert bare == [_fraction_merge_gaps([], rec) for rec in records]
    assert sum(map(bool, bare)) >= 10
    want = [_fraction_merge_gaps(lifted, rec) for rec in records]
    assert walk(lifted) == want == [[]] * len(records)
    assert benchmark(walk, lifted) == want


@pytest.fixture(scope="module")
def s3_char_poly_rows(fields):
    """The sparse integer rows D·M (``RatMatrix.ints``) that
    ``find_bricks`` hands to ``_integer_eigenvalues`` for each s3 lifted
    field matrix M (D the lcm of its denominators), with D·M as a
    RatMatrix and its characteristic polynomial from the Fraction
    recursion."""
    out = []
    for X in fields:
        scaled = X.scale(X.den)
        out.append((X.ints, scaled, _fraction_char_poly(scaled)))
    return out


def _fraction_char_poly(m: RatMatrix) -> list[Fraction]:
    """Faddeev-LeVerrier on a RatMatrix, in Fraction arithmetic."""
    n = m.rows
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    mk = RatMatrix.identity(n)
    for k in range(1, n + 1):
        mk = m.matmul(mk)
        c = -sum((mk[i, i] for i in range(n)), Fraction(0)) / k
        coeffs[n - k] = c
        mk = mk + RatMatrix.identity(n).scale(c)
    return coeffs


def test_fraction_char_poly_s3_fields(benchmark, s3_char_poly_rows):
    """The recursion on RatMatrix: the reference ``_char_poly``."""
    mats = [m for _, m, _ in s3_char_poly_rows]
    want = [c for _, _, c in s3_char_poly_rows]
    assert benchmark(lambda: [_fraction_char_poly(m) for m in mats]) == want


def test_char_poly_s3_fields(benchmark, s3_char_poly_rows):
    want = [c for _, _, c in s3_char_poly_rows]
    rows = [r for r, _, _ in s3_char_poly_rows]
    assert [darboux._char_poly(r) for r in rows] == want
    assert benchmark(lambda: [darboux._char_poly(r) for r in rows]) == want


@pytest.fixture(scope="module")
def s3_locus_candidates():
    """Every (branch, point) that the s3 orbit-row samplers test at S3,
    candidates off the locus included, each with the answer of
    ``Poly.eval`` at the point; the branches' integer forms are built."""
    calls = []
    real = darboux.locus_contains_ints

    def recorded(branch, q, den):
        calls.append((branch, tuple(Fraction(v, den) for v in q)))
        return real(branch, q, den)
    with pytest.MonkeyPatch.context() as mp:
        # the name that the samplers' push (darboux.locus_sampler) calls
        mp.setattr(darboux, "locus_contains_ints", recorded)
        for rec in expand_rows(load_family("s3"), S3):
            rec.samples
    out = [(b, p, _poly_eval_locus(b, p)) for b, p in calls]
    assert {w for _, _, w in out} == {True, False}
    return out


def _poly_eval_locus(branch, p):
    """``locus_contains`` by ``Poly.eval`` at the rational point."""
    if any(f.eval(p) for f in branch.equalities):
        return False
    for f, op in branch.inequalities:
        v = f.eval(p)
        if {"!=": v == 0, ">": v <= 0, "<": v >= 0}[op]:
            return False
    return True


def test_poly_eval_locus_s3_sample_candidates(benchmark, s3_locus_candidates):
    """The sign tests by ``Poly.eval``: the reference ``locus_contains``."""
    want = [w for _, _, w in s3_locus_candidates]
    assert benchmark(lambda: [_poly_eval_locus(b, p) for b, p, _
                              in s3_locus_candidates]) == want


def test_locus_contains_s3_sample_candidates(benchmark, s3_locus_candidates):
    want = [w for _, _, w in s3_locus_candidates]
    assert True in want and False in want
    assert [locus_contains(b, p) for b, p, _ in s3_locus_candidates] == want
    assert benchmark(lambda: [locus_contains(b, p) for b, p, _
                              in s3_locus_candidates]) == want


def test_matvec_lifted_field(benchmark, fields):
    A = fields[0]
    p = [Fraction(k, 3) for k in range(1, 7)]
    assert benchmark(A.matvec, p) == tuple(
        sum((A[i, j] * p[j] for j in range(6)), Fraction(0))
        for i in range(6))


def test_lift_s3_derivation(benchmark):
    d = derivation_basis(catalog("s3", **S3))[0]
    X = benchmark(lift, d, 2)
    # Λ²d (e_i ∧ e_j) = d e_i ∧ e_j + e_i ∧ d e_j on every blade
    for k, mask in enumerate(blades(4, 2)):
        i, j = (b for b in range(4) if mask & (1 << b))
        ei, ej = MultiVector.blade(4, [i]), MultiVector.blade(4, [j])
        want = (wedge(MultiVector.vector(4, d.col(i)), ej)
                + wedge(ei, MultiVector.vector(4, d.col(j))))
        assert X.col(k) == want.coords()


def test_schouten_generic_bivector_s3(benchmark):
    g = catalog("s3", **S3)
    rr = benchmark(generic_rr, g)
    # the [r,r] displayed in the s3 family file, at a = 1/2, b = 1/3
    golden = ["2*((1+a)*x1*x6-(1+b)*x2*x5+(a+b)*x3*x4)", "2*(a-1)*x3*x5",
              "2*(b-1)*x3*x6", "2*(b-a)*x5*x6"]
    env = {"a": S3["alpha"], "b": S3["beta"]}
    assert rr == [parse_poly(e, 6, env) for e in golden]


def test_necessary_checks_s3(benchmark):
    g = catalog("s3", **S3)
    e12 = MultiVector.from_coords(4, 2, [1, 0, 0, 0, 0, 0])
    e12_13_23 = MultiVector.from_coords(4, 2, [1, 1, 0, 1, 0, 0])
    report = benchmark(necessary_checks, g, e12, e12_13_23)
    assert (report.rank1, report.rank2) == (2, 2)
    assert (report.orbit_dim1, report.orbit_dim2) == (1, 3)
    assert report.reasons == ["orbit dimensions differ: 1 vs 3"]


def test_flow_invariance_s1_mcybe(benchmark):
    g = catalog("s1")
    fields = fundamental_fields(g, 2)
    family = verify_family(fields, [p for p in yb_system(g).mcybe
                                    if not p.is_zero()], 0)
    point = [1, 2, 0, 1, 0, 0]          # on the mCYBE locus of s1

    def every_field():
        return [flow_invariance(family, X, point) for X in fields]

    assert every_field() == [True] * 6
    assert benchmark(every_field) == [True] * 6


@pytest.fixture(scope="module")
def largest_tree_family():
    """The branch family with the most generators times fields among those
    that the shipped trees check: (fields, generators, bound)."""
    calls = []
    real = darboux.verify_family

    def recorded(fields, gens, bound=0):
        calls.append((fields, list(gens), bound))
        return real(fields, gens, bound)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(darboux, "verify_family", recorded)
        for stem in TREE_FILES:
            verify_tree(stem)
    return max(calls, key=lambda c: len(c[0]) * len(c[1]))


def test_verify_family_tree_branch(benchmark, largest_tree_family):
    """Branch 0 of the s311 tree: seven generators under twelve fields, 84
    targets X f with constant cofactors."""
    fields, gens, bound = largest_tree_family
    assert (len(fields), len(gens), bound) == (12, 7, 0)
    want = [[ideal_membership(vf_apply(X, f), gens, bound) for X in fields]
            for f in gens]
    assert verify_family(fields, gens, bound).cofactors == want
    fam = benchmark(verify_family, fields, gens, bound)
    assert fam.cofactors == want and fam.linear


@pytest.fixture(scope="module")
def s3_tree_branches():
    """The solution branches of the s3 tree at its first parameter sample:
    the ``branch_samples`` arguments and the ``verify_branch`` arguments
    (context, fields, branch, points, family cache) of each, recorded from
    a passing ``verify_tree`` run, so the cache holds every branch family
    and each branch's equalities have their integer forms."""
    import darbouxlie.classify as classify
    sampled, checked = [], []
    real_samples, real_verify = classify.branch_samples, classify.verify_branch

    def sampling(branch, nvars, extra=()):
        sampled.append((branch, nvars, extra))
        return real_samples(branch, nvars, extra)

    def verifying(ctx, fields, branch, pts, family_cache=None):
        checked.append((ctx, fields, branch, pts, family_cache))
        return real_verify(ctx, fields, branch, pts, family_cache=family_cache)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify, "branch_samples", sampling)
        mp.setattr(classify, "verify_branch", verifying)
        assert verify_tree("s3").passed
    first = [c for c in checked if c[0] is checked[0][0]]
    return sampled[:len(first)], first


def test_branch_samples_s3_tree(benchmark, s3_tree_branches):
    """The sample grids of the s3 tree's branches at one parameter sample,
    each linear equality split once per branch."""
    sampled, checked = s3_tree_branches
    want = [pts for _, _, _, pts, _ in checked]
    assert (len(want), sum(map(len, want))) == (11, 67)
    assert all(locus_contains(b, rational_point(*p))
               for (b, _, _), pts in zip(sampled, want) for p in pts)

    def every_branch():
        return [darboux.branch_samples(*c) for c in sampled]
    assert every_branch() == want
    assert benchmark(every_branch) == want


def test_verify_branch_s3_tree(benchmark, s3_tree_branches):
    """The branch checks of the s3 tree at one parameter sample, with every
    family in the cache: the locus test, the rank and the mCYBE test on the
    ints of each point's (den, q)."""
    _, checked = s3_tree_branches
    want = [[rank_at(fields, rational_point(*p)) for p in pts]
            for _, fields, _, pts, _ in checked]
    assert all(is_mcybe_solution(ctx.g, rational_point(*p))
               for ctx, _, _, pts, _ in checked for p in pts)

    def every_branch():
        return [darboux.verify_branch(*c[:4], family_cache=c[4]).ranks
                for c in checked]
    assert every_branch() == want
    assert benchmark(every_branch) == want


def test_verify_tree_s1(benchmark):
    """The branch layer end to end on one tree: families, ranks and mCYBE
    at every branch sample, and the no-solution certificates."""
    assert verify_tree("s1").passed
    assert benchmark(verify_tree, "s1").passed


def test_loci_agree_s3_mcybe(benchmark):
    env = {"a": S3["alpha"], "b": S3["beta"]}
    golden = next(polys for cond, polys in load_family("s3").mcybe
                  if cond(env))
    golden = [normalize_poly(e.poly(env)) for e in golden]
    computed = [p for p in yb_system(catalog("s3", **S3)).mcybe
                if not p.is_zero()]
    assert loci_agree(computed, golden)
    assert benchmark(loci_agree, computed, golden)


#: the almost-abelian algebra of dimension 6 that the query workload's
#: generator draws from random.Random(1); its one brick is x15
ALMOST_ABELIAN_6 = """dim 6
[1,6] = 2*e1-2*e4
[2,6] = 2*e1+2*e2+e3
[3,6] = -e1-2*e2+2*e3-e4
[4,6] = e1-e2+2*e4
[5,6] = -2*e1+2*e3-e4
"""


#: the almost-abelian algebras of dimension 7 and 8 that the query
#: workload's generator (``perfbench.query.almost_abelian``) draws from
#: random.Random(0)
ALMOST_ABELIAN_7 = """dim 7
[1,7] = -e2+2*e3-e4+2*e5
[2,7] = -e5-2*e6
[3,7] = -e1+2*e2-2*e4+2*e5-2*e6
[4,7] = 2*e1-2*e2+e3+2*e5
[5,7] = -e1-e3+2*e5-e6
[6,7] = -2*e2-e4-e5
"""
ALMOST_ABELIAN_8 = """dim 8
[1,8] = e4+2*e6-e7
[2,8] = 2*e2-e4+2*e5
[3,8] = 2*e1+2*e2-e3-2*e5-e6-e7
[4,8] = e1+e2-2*e3-e4-e5-e7
[5,8] = -e1-2*e3-2*e4-e5-e6-2*e7
[6,8] = e3-2*e4
[7,8] = 2*e1-2*e2+e6
"""


def test_kernel_basis_derivation_system_dim8(benchmark):
    """The Leibniz system that ``derivation_basis`` solves for the
    dimension-8 almost-abelian algebra: integer rows on its 64 unknowns
    (the 224 equations less those that vanish), 14 independent kernel
    vectors, the first three checked to be derivations on every bracket."""
    g = parse_algebra(ALMOST_ABELIAN_8)
    systems = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(derivations, "int_kernel_basis",
                   lambda rows, ncols: systems.append((rows, ncols))
                   or int_kernel_basis(rows, ncols))
        derivation_basis(g)
    (rows, ncols), = systems
    assert ncols == 64 and 0 < len(rows) <= 224
    assert all(type(x) is int and 0 <= j < 64
               for r in rows for j, x in r.items())
    basis = int_kernel_basis(rows, ncols)
    assert len(basis) == 14
    # independent: each vector is 1 at a column where the others are 0
    assert all(any(v[u] == 1 and not any(w[u] for w in basis if w is not v)
                   for u in range(64)) for v in basis)
    assert all(not sum(x * v[j] for j, x in r.items())
               for r in rows for v in basis)
    e = [[int(k == i) for k in range(8)] for i in range(8)]
    for v in basis[:3]:
        d = RatMatrix([v[r * 8:(r + 1) * 8] for r in range(8)])
        for i in range(8):
            for j in range(i + 1, 8):
                lhs = d.matvec(bracket(g, e[i], e[j]))
                rhs = [a + b for a, b in zip(bracket(g, d.col(i), e[j]),
                                             bracket(g, e[i], d.col(j)))]
                assert list(lhs) == rhs
    assert benchmark(int_kernel_basis, rows, ncols) == basis


def test_yb_system_dim7(benchmark):
    """``yb_system`` of the dimension-7 almost-abelian algebra (derivations,
    invariants, [r, r] and the reduced system, from a new context each
    call): 35 mCYBE polynomials, which vanish exactly at the points where
    ``is_mcybe_solution`` holds on the 3-vector."""
    g = parse_algebra(ALMOST_ABELIAN_7)
    ys = yb_system(g)
    assert (len(ys.cybe), len(ys.mcybe), len(ys.inv3)) == (35, 35, 0)
    # bivectors inside the abelian ideal spanned by e1..e6 solve the CYBE
    inside = [1 if 7 - 1 not in pair else 0 for pair in
              ((i, j) for i in range(7) for j in range(i + 1, 7))]
    points = [inside, [1] * 21, [k % 3 - 1 for k in range(21)],
              [int(k in (5, 6)) for k in range(21)]]
    verdicts = [all(not f.eval(p) for f in ys.mcybe) for p in points]
    assert verdicts == [is_mcybe_solution(g, p) for p in points]
    assert True in verdicts and False in verdicts
    got = benchmark(yb_system, g)
    assert (got.cybe, got.mcybe, got.reduced) == (ys.cybe, ys.mcybe,
                                                  ys.reduced)


@pytest.mark.parametrize("algebra, brick, eigenvalues", [
    ("s5", "x3", [1, 0, 0, 0, 0, 0]),
    ("almost_abelian_6", "x15", [0] * 8 + [1, 0])],
    ids=["s5", "almost_abelian_6"])
def test_find_bricks(benchmark, algebra, brick, eigenvalues):
    g = (catalog("s5", alpha=1, beta=1) if algebra == "s5"
         else parse_algebra(ALMOST_ABELIAN_6))
    fields = fundamental_fields(g, 2)
    want = [(brick, tuple(map(Fraction, eigenvalues)))]

    def texts(bricks):
        return [(b.poly.text(), b.eigenvalues) for b in bricks]
    assert texts(find_bricks(fields)) == want
    assert texts(benchmark(find_bricks, fields)) == want


def test_load_family_all(benchmark):
    """Read and compile all family files, with the compile memo cleared
    before each round, so that every expression is parsed again."""
    def load_all():
        exprparse.compile_expr.cache_clear()
        exprparse.compile_condition.cache_clear()
        return [load_family(s) for s in FAMILY_FILES]

    fams = load_all()
    assert len(fams) == 18
    assert sum(len(f.orbits) for f in fams) == 161
    assert sum(len(f.classes) for f in fams) == 48
    assert sum(len(f.automorphisms) for f in fams) == 58
    assert len(benchmark(load_all)) == 18
