"""Yang-Baxter systems, solution predicates, cocommutators, quotients."""

import hashlib
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import darbouxlie.classify as classify
import darbouxlie.derivations as derivations
import darbouxlie.yangbaxter as yangbaxter
from darbouxlie.darboux import rational_point
from darbouxlie.derivations import derivation_basis, orbit_dim
from darbouxlie.exactmath import Poly, clear_denominators, rref, solve
from darbouxlie.grassmann import MultiVector, blades, invariants, schouten
from darbouxlie.liealg import (FAMILIES, DimensionMismatch, abelian, bracket,
                               catalog, from_brackets, parse_algebra)
from darbouxlie.yangbaxter import (AlgebraContext, NecessaryReport,
                                   NotAnAutomorphism, cocommutator,
                                   is_automorphism, is_cybe_solution,
                                   is_mcybe_solution, necessary_checks,
                                   quotient_class, same_coboundary,
                                   yb_system)
from darbouxlie.exactmath import RatMatrix
from oracles import bilinear_matrix, cocycle_defect, span_contains

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench.query import (almost_abelian, bracket_text,  # noqa: E402
                             so3_plus_abelian)

x = Poly.var
PARAMS = {
    "s3": dict(alpha=Fraction(1, 2), beta=Fraction(1, 3)),
    "s4": dict(alpha=Fraction(3)),
    "s5": dict(alpha=Fraction(1), beta=Fraction(-1, 2)),
    "s8": dict(alpha=Fraction(1, 2)),
    "s9": dict(alpha=Fraction(2)),
}


def bv(*coords):
    return MultiVector.from_coords(4, 2, [Fraction(c) for c in coords])


def test_yb_system_s1():
    ybs = yb_system(catalog("s1"))
    assert sorted(p.text() for p in ybs.reduced) == \
        ["x3*x4", "x3*x6", "x5"]
    assert ybs.inv3 == []


def test_yb_system_s7():
    ybs = yb_system(catalog("s7"))
    assert [v.text() for v in ybs.inv3] == ["e123"]
    assert sorted(p.text() for p in ybs.mcybe) == \
        sorted(["x3*x6 + x4*x5", "x3*x5 - x4*x6", "x5^2 + x6^2"])
    assert sorted(p.text() for p in ybs.reduced) == ["x5", "x6"]


def test_yb_system_abelian():
    ybs = yb_system(abelian(4))
    assert all(p.is_zero() for p in ybs.cybe)


def test_mcybe_solutions_s1():
    g = catalog("s1")
    assert is_mcybe_solution(g, bv(1, 0, 0, 0, 0, 1))
    assert not is_mcybe_solution(g, bv(0, 0, 0, 0, 1, 0))
    assert is_mcybe_solution(g, bv(0, 0, 0, 0, 0, 0))


def test_cybe_vs_mcybe_s7():
    g = catalog("s7")
    r = bv(0, 0, 0, 1, 0, 0)  # e23
    assert is_mcybe_solution(g, r)
    assert not is_cybe_solution(g, r)
    assert is_cybe_solution(g, bv(0, 0, 0, 0, 0, 0))


def test_consistency_predicate_vs_polynomials():
    rng = random.Random(2024)
    for fam in FAMILIES:
        g = catalog(fam, **PARAMS.get(fam, {}))
        ybs = yb_system(g)
        polys = [p for p in ybs.mcybe if not p.is_zero()]
        for _ in range(1000):
            pt = [Fraction(0)] * 6
            for i in rng.sample(range(6), rng.randint(0, 6)):
                pt[i] = Fraction(rng.randint(-3, 3))
            via_polys = all(p.eval(pt) == 0 for p in polys)
            assert via_polys == is_mcybe_solution(g, bv(*pt)), (fam, pt)


def test_cocommutator_values():
    g = catalog("s1")
    v = [0, 0, 0, 1]
    assert cocommutator(g, bv(0, 0, 0, 0, 0, 1), v) == \
        MultiVector.blade(4, [2, 3])             # [e4, e34] = e34
    assert cocommutator(g, bv(0, 0, 0, 0, 0, 0), v).is_zero()
    # invariant bivector gives the zero cocommutator
    for v0 in ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]):
        assert cocommutator(g, bv(1, 0, 0, 0, 0, 0), v0).is_zero()
    # a vector needs all four coordinates: e1 is not [1]
    for v1 in ([1], [0, 0, 0, 1, 0]):
        with pytest.raises(DimensionMismatch):
            cocommutator(g, bv(0, 0, 0, 0, 0, 1), v1)


def test_cocommutator_warns_for_nonsolution():
    g = catalog("s1")
    with pytest.warns(UserWarning):
        cocommutator(g, bv(0, 0, 0, 0, 1, 0), [0, 1, 0, 0])


def test_cocycle_identity_for_solutions():
    for fam, kw, coords in [
        ("s1", {}, (1, 0, 0, 1, 0, 1)),
        ("s6", {}, (0, 0, 0, 1, 0, 0)),
        ("s7", {}, (0, 0, 1, 2, 0, 0)),
        ("n1", {}, (0, 0, 1, 1, 1, 0)),
    ]:
        g = catalog(fam, **kw)
        r = bv(*coords)
        assert is_mcybe_solution(g, r)
        for i in range(4):
            for j in range(i + 1, 4):
                assert cocycle_defect(g, r, i, j).is_zero(), (fam, i, j)


def test_quotient_class():
    s1 = catalog("s1")
    assert quotient_class(s1, bv(1, 0, 0, 0, 0, 0)) == \
        quotient_class(s1, bv(0, 0, 0, 0, 0, 0))
    s2 = catalog("s2")
    assert quotient_class(s2, bv(1, 0, 0, 0, 0, 0)) != \
        quotient_class(s2, bv(0, 0, 0, 0, 0, 0))
    # shifting by an invariant never changes the class
    r = bv(0, 2, 0, 1, 0, 0)
    shifted = r + bv(5, 0, 0, 0, 0, 0)
    assert quotient_class(s1, r) == quotient_class(s1, shifted)


def test_same_coboundary_and_automorphisms():
    g = catalog("s1")
    T = RatMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert same_coboundary(g, bv(0, 1, 0, 0, 0, 0), bv(1, 1, 0, 0, 0, 0), T)
    assert is_automorphism(g, RatMatrix(
        [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    bad = RatMatrix([[0, 1, 0, 0], [1, 0, 0, 0],
                     [0, 0, 1, 0], [0, 0, 0, 1]])
    assert not is_automorphism(g, bad)
    with pytest.raises(NotAnAutomorphism):
        same_coboundary(g, bv(1, 0, 0, 0, 0, 0), bv(1, 0, 0, 0, 0, 0), bad)


def test_context_checks_each_automorphism_once(monkeypatch):
    """A context checks and lifts a matrix that passed only once; a matrix
    that fails raises on every call, also after a valid one."""
    calls, lifts = [], []
    original, compound = yangbaxter.is_automorphism, yangbaxter.compound

    def counting(g, T):
        calls.append(T)
        return original(g, T)

    def lifting(T, m):
        lifts.append(T)
        return compound(T, m)

    monkeypatch.setattr(yangbaxter, "is_automorphism", counting)
    monkeypatch.setattr(yangbaxter, "compound", lifting)
    ctx = AlgebraContext(catalog("s1"))
    T = RatMatrix([[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    bad = RatMatrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    r1, r2 = bv(1, 0, 0, 0, 0, 0), bv(0, 1, 0, 0, 0, 0)
    for _ in range(2):
        with pytest.raises(NotAnAutomorphism):
            ctx.same_coboundary(r1, r2, bad)
    answers = [ctx.same_coboundary(r1, r2, T),
               ctx.same_coboundary(r1, r1, RatMatrix(T.entries))]
    assert answers == [False, True]
    with pytest.raises(NotAnAutomorphism):
        ctx.same_coboundary(r1, r2, bad)
    assert calls == [bad, bad, T, bad] and lifts == [T]
    assert ctx.lift_automorphism(T) == _diag(1, -1, -1, -1, -1, 1)


def _fraction_rank(m: RatMatrix) -> int:
    """Rank by Gaussian elimination on the Fraction entries."""
    rows = [list(r) for r in m.entries]
    k = 0
    for c in range(m.cols):
        p = next((i for i in range(k, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[k], rows[p] = rows[p], rows[k]
        for i in range(k + 1, len(rows)):
            f = rows[i][c] / rows[k][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
        k += 1
    return k


def _fraction_is_automorphism(g, T: RatMatrix) -> bool:
    """T[e_i, e_j] = [Te_i, Te_j] in Fraction arithmetic on ``T.entries``
    and by ``bracket``, and T invertible: the reference for the integer
    ``is_automorphism``, which reads T's integer form instead."""
    if (T.rows, T.cols) != (g.dim, g.dim) or _fraction_rank(T) != g.dim:
        return False
    return all(tuple(sum((x * y for x, y in zip(r, g.c[i][j])), Fraction(0))
                     for r in T.entries) == bracket(g, T.col(i), T.col(j))
               for i in range(g.dim) for j in range(i + 1, g.dim))


def _diag(*xs) -> RatMatrix:
    n = len(xs)
    return RatMatrix([[Fraction(xs[i]) if i == j else 0 for j in range(n)]
                      for i in range(n)])


def _non_integer_automorphisms() -> list:
    """(algebra, T) with T an automorphism whose entries have pairwise
    coprime denominators: diagonal scalings along a grading, and their
    products with integer automorphisms, on catalog algebras and on
    almost-abelian algebras with fractional constants."""
    f = Fraction
    cases = [
        (catalog("s1"), _diag(f(3, 11), f(3, 11), f(-7, 5), 1)),
        (catalog("n1"), _diag(f(2, 3) * f(5, 7) ** 2, f(2, 3) * f(5, 7),
                              f(2, 3), f(5, 7))),
        (catalog("s3", **PARAMS["s3"]), _diag(f(2, 3), f(-5, 7), f(11, 13),
                                              1)),
    ]
    flip = RatMatrix([[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0],
                      [0, 0, 0, 1]])
    cases.append((catalog("s1"), flip.matmul(cases[0][1])))
    rng = random.Random("automorphisms")
    for n in range(3, 7):
        g = from_brackets(n, {k: [x * Fraction(3, 13) for x in v] for k, v
                              in almost_abelian(rng, n).items()})
        cases.append((g, _diag(*[f(5, 7)] * (n - 1), 1)))
    return cases


def _assert_automorphism_checks_match(cases):
    """``is_automorphism`` equals the Fraction reference on each case, and
    on copies of it with one entry moved by a rational, which mostly fail;
    returns the answers seen."""
    rng = random.Random(5)
    seen = set()
    for g, T in cases:
        assert is_automorphism(g, T) == _fraction_is_automorphism(g, T), T
        seen.add(is_automorphism(g, T))
        for _ in range(3):
            e = [list(r) for r in T.entries]
            i, j = rng.randrange(T.rows), rng.randrange(T.cols)
            e[i][j] += Fraction(rng.choice([-1, 1]), rng.choice([1, 2, 7]))
            bent = RatMatrix(e)
            assert (is_automorphism(g, bent)
                    == _fraction_is_automorphism(g, bent)), bent
            seen.add(is_automorphism(g, bent))
    return seen


def test_is_automorphism_matches_the_fraction_reference_on_shipped_matrices():
    """Every shipped automorphism at every qualifying parameter sample is
    one, by both checks, and the bent copies agree with the reference."""
    cases = []
    for stem in classify.FAMILY_FILES:
        fam = classify.load_family(stem)
        for ps, _, g in classify.qualifying_samples(fam):
            sp = classify._short_params(ps)
            for _, rows in fam.automorphisms:
                cases.append((g, RatMatrix([[e(sp) for e in r]
                                            for r in rows])))
    assert len(cases) > 50
    assert all(_fraction_is_automorphism(g, T) for g, T in cases)
    assert _assert_automorphism_checks_match(cases) == {True, False}


def test_is_automorphism_on_non_integer_automorphisms():
    cases = _non_integer_automorphisms()
    assert all(T.den > 1 for _, T in cases)
    assert all(is_automorphism(g, T) for g, T in cases)
    assert _assert_automorphism_checks_match(cases) == {True, False}


def test_is_automorphism_refuses_singular_and_non_square_matrices():
    s1 = catalog("s1")
    # brackets preserved, but singular
    assert not is_automorphism(abelian(3), RatMatrix.zero(3, 3))
    assert not is_automorphism(abelian(3), _diag(1, 0, Fraction(1, 2)))
    assert not is_automorphism(s1, _diag(0, 0, 1, 1))
    assert not _fraction_is_automorphism(s1, _diag(0, 0, 1, 1))
    # wrong shapes
    assert not is_automorphism(s1, RatMatrix.identity(3))
    assert not is_automorphism(s1, RatMatrix.zero(4, 3))
    assert not is_automorphism(s1, RatMatrix.zero(3, 4))
    assert not is_automorphism(s1, RatMatrix([], 4))
    assert is_automorphism(abelian(0), RatMatrix([], 0))


def test_dropping_the_scale_of_t_is_caught():
    """With d_T replaced by 1 (T's integer form read as T itself, seeded
    on the case matrices only), the non-integer automorphisms are refused,
    and the reference check above fails: the scale is checked.  With their
    true forms they are all accepted, so a check that ignores d_T fails
    here too."""
    cases = _non_integer_automorphisms()
    assert all(is_automorphism(g, T) for g, T in cases)
    for _, T in cases:
        T._den = 1
    assert not any(is_automorphism(g, T) for g, T in cases)
    with pytest.raises(AssertionError):
        _assert_automorphism_checks_match(cases)


def test_necessary_checks():
    s7 = catalog("s7")
    rep = necessary_checks(s7, bv(1, 0, 0, 0, 0, 0), bv(0, 0, 1, 1, 0, 0))
    assert rep.rank1 == 2 and rep.rank2 == 4
    assert rep.provably_inequivalent
    same = necessary_checks(s7, bv(1, 0, 0, 0, 0, 0), bv(1, 0, 0, 0, 0, 0))
    assert not same.provably_inequivalent
    s6 = catalog("s6")
    rep6 = necessary_checks(s6, bv(0, 0, 0, 1, 0, 0), bv(1, 0, 0, 0, 0, 0))
    assert rep6.provably_inequivalent
    assert rep6.rr1_zero is False and rep6.rr2_zero is True


def test_bilinear_rank_even():
    rng = random.Random(1)
    g = catalog("s9", alpha=2)
    for _ in range(50):
        r = bv(*[rng.randint(-3, 3) for _ in range(6)])
        assert rank(bilinear_matrix(g, r)) % 2 == 0


from darbouxlie.exactmath import rank  # noqa: E402


def test_same_coboundary_false_without_invariants():
    # s2 has no invariant bivectors: e12 and e13 classes never merge under
    # the shipped component representatives
    g = catalog("s2")
    for T in (RatMatrix.identity(4),
              RatMatrix([[-1, 0, 0, 0], [0, -1, 0, 0],
                         [0, 0, -1, 0], [0, 0, 0, 1]])):
        assert not same_coboundary(g, bv(1, 0, 0, 0, 0, 0),
                                   bv(0, 1, 0, 0, 0, 0), T)


# ---------------------------------------------------------------------------
# the per-algebra context against independent routes to the same data
# ---------------------------------------------------------------------------

SO3 = "dim 3\n[1,2] = e3\n[2,3] = e1\n[3,1] = e2\n"
CONTEXT_ALGEBRAS = [("s1", lambda: catalog("s1")),
                    ("s3", lambda: catalog("s3", **PARAMS["s3"])),
                    ("s7", lambda: catalog("s7")),
                    ("n1", lambda: catalog("n1")),
                    ("so3", lambda: parse_algebra(SO3, "so3")),
                    ("almost_abelian_7", lambda: parse_algebra(bracket_text(
                        7, almost_abelian(random.Random(7), 7)))),
                    ("so3_plus_abelian_8", lambda: parse_algebra(bracket_text(
                        8, so3_plus_abelian(random.Random(8), 8))))]


def random_bivectors(g, seed: int, count: int = 12) -> list[MultiVector]:
    """The zero bivector and seeded sparse random ones with small entries."""
    rng = random.Random(seed)
    n = len(blades(g.dim, 2))
    out = [MultiVector.from_coords(g.dim, 2, [0] * n)]
    for _ in range(count):
        out.append(MultiVector.from_coords(g.dim, 2, [
            rng.choice((0, 0, 0, 1, -1, 2, Fraction(1, 2)))
            for _ in range(n)]))
    return out


def reference_quotient_class(g, r):
    """r - sum c_i v_i over the invariant bivectors v_i, with the c_i solved
    so that it vanishes at the pivot columns of their span; the class is the
    rest of its coordinates."""
    inv = [v.coords() for v in invariants(g, 2)]
    coords = r.coords()
    pivots = rref(RatMatrix(inv))[1] if inv else []
    c = solve(RatMatrix([[v[p] for v in inv] for p in pivots]),
              [coords[p] for p in pivots]) if pivots else []
    rest = [x - sum((ci * v[j] for ci, v in zip(c, inv)), Fraction(0))
            for j, x in enumerate(coords)]
    return tuple(x for j, x in enumerate(rest) if j not in pivots)


def reference_signature(g, r):
    """Bilinear rank, [r,r] = 0, [r,r] in (Λ³g)^g and orbit dimension,
    each computed from scratch."""
    rr = schouten(g, r, r)
    inv3 = [v.coords() for v in invariants(g, 3)]
    return (rank(bilinear_matrix(g, r)), rr.is_zero(),
            span_contains(inv3, rr.coords()), orbit_dim(g, r))


@pytest.mark.parametrize("name,make", CONTEXT_ALGEBRAS)
def test_context_agrees_with_public_functions(name, make):
    g = make()
    ctx = AlgebraContext(g)
    rs = random_bivectors(g, seed=len(name) * 101 + g.dim)
    sigs = []
    for r in rs:
        assert ctx.orbit_dim(r) == orbit_dim(g, r)
        assert ctx.quotient_class(r) == quotient_class(g, r) == \
            reference_quotient_class(g, r)
        sig = ctx.signature(r)
        assert sig == reference_signature(g, r)
        assert sig[2] == is_mcybe_solution(g, r)
        sigs.append(sig)
    for i in range(len(rs)):
        for j in range(i, len(rs)):
            report = NecessaryReport.compare(sigs[i], sigs[j])
            assert report == necessary_checks(g, rs[i], rs[j])
            assert (report.rank1, report.rr1_zero, report.rr1_invariant,
                    report.orbit_dim1) == sigs[i]
            assert (report.rank2, report.rr2_zero, report.rr2_invariant,
                    report.orbit_dim2) == sigs[j]
            assert len(report.reasons) == sum(
                a != b for a, b in zip(sigs[i], sigs[j]))
            assert report.provably_inequivalent == (sigs[i] != sigs[j])
    # at least two signatures, so some pairs are separated
    assert len(set(sigs)) > 1


def test_context_computes_each_piece_once():
    g = catalog("s3", **PARAMS["s3"])
    ctx = AlgebraContext(g)
    assert ctx.fields is ctx.fields and ctx.inv2 is ctx.inv2
    assert ctx.yb_system.inv3 is ctx.inv3[0]
    assert [v.text() for v in ctx.yb_system.inv3] == \
        [v.text() for v in yb_system(g).inv3]
    assert ctx.yb_system.reduced == yb_system(g).reduced
    # an explicit derivation basis is used as given
    ders = derivation_basis(g)[:2]
    assert AlgebraContext(g, ders).ders is ders
    assert len(AlgebraContext(g, ders).fields) == 2


def test_classes_compute_derivations_once_per_sample(monkeypatch):
    calls = []
    original = derivations.derivation_basis

    def counting(g):
        calls.append(g)
        return original(g)

    for mod in (derivations, yangbaxter, classify):
        monkeypatch.setattr(mod, "derivation_basis", counting, raising=False)
    reports = classify.verify_coboundary_classes("s3")
    processed = [rep for rep in reports if not rep.skipped]
    assert processed and all(rep.separations for rep in processed)
    assert 0 < len(calls) <= len(processed)


def _random_rational(rng):
    """A nonzero rational of either sign whose numerator and denominator
    run from one digit to about twelve."""
    num = rng.randint(1, 10 ** rng.randint(0, 12))
    den = rng.choice((1, 2, 3, 4, 7, 9, 10 ** 6, 2 ** 40 + 15))
    return Fraction(rng.choice((-1, 1)) * num, den)


def _rational_points(rng, m, count):
    """The zero vector and seeded points of Λ² with random zero patterns,
    mixed and large denominators and negative entries."""
    pts = [(Fraction(0),) * m]
    for _ in range(count):
        pt = [Fraction(0)] * m
        for i in rng.sample(range(m), rng.randint(1, m)):
            pt[i] = _random_rational(rng)
        pts.append(tuple(pt))
    return pts


def _scaled(rng, p):
    c = _random_rational(rng)
    return tuple(c * v for v in p)


def field_matrix_at(fields, p) -> RatMatrix:
    """M(p): row i holds the coefficients of field i at the point p, by
    Fraction ``matvec``."""
    return RatMatrix([X.matvec(p) for X in fields])


def _assert_integer_checks_match_oracles(ctx, points):
    """ctx.is_mcybe_at and the integer derivations.rank_at (and the rank
    count on the context's column map) against is_mcybe_solution and
    sympy's rank of the matrix M(p) (and ``rank``, which runs the same
    elimination kernel as ``rank_at``); returns the
    mCYBE answers and ranks seen.  Skipped when sympy is absent."""
    sp = pytest.importorskip("sympy")
    seen_mcybe, seen_ranks = set(), set()
    for p in points:
        ok = ctx.is_mcybe_at(p)
        assert ok == is_mcybe_solution(ctx.g, p), p
        k = derivations.rank_at(ctx.fields, p)
        _, q = clear_denominators(p)
        assert derivations._rank_at_ints(ctx.field_columns, q) == k, p
        m = field_matrix_at(ctx.fields, p)
        assert k == rank(m) == sp.Matrix(
            m.rows, m.cols, [sp.Rational(x.numerator, x.denominator)
                             for x in m.flat()]).rank(), p
        seen_mcybe.add(ok)
        seen_ranks.add(k)
    return seen_mcybe, seen_ranks


@pytest.mark.parametrize("stem", classify.FAMILY_FILES)
def test_integer_point_checks_match_oracles_on_family_samples(stem):
    fam = classify.load_family(stem)
    rng = random.Random(stem)
    seen_mcybe, seen_ranks = set(), set()
    for ps, _, g in classify.qualifying_samples(fam):
        ctx = AlgebraContext(g)
        # orbit representatives and sample points (rescaled, which changes
        # neither answer) carry the special ranks and the mCYBE solutions
        points = _rational_points(rng, 6, 8)
        for rec in classify.expand_rows(fam, ps):
            points += [_scaled(rng, p) for p in [
                rec.rep.coords(),
                *(rational_point(*s) for s in rec.samples[:4])]]
        mc, ranks = _assert_integer_checks_match_oracles(ctx, points)
        seen_mcybe |= mc
        seen_ranks |= ranks
    assert seen_mcybe == {True, False}
    assert len(seen_ranks) >= 2


@pytest.mark.parametrize("make", [almost_abelian, so3_plus_abelian])
def test_integer_point_checks_match_oracles_on_generated_algebras(make):
    rng = random.Random(make.__name__)
    seen_mcybe, seen_ranks = set(), set()
    for n in range(3, 7):
        ctx = AlgebraContext(parse_algebra(bracket_text(n, make(rng, n))))
        m = n * (n - 1) // 2
        units = [tuple(Fraction(int(k == i)) for k in range(m))
                 for i in range(m)]
        points = _rational_points(rng, m, 12)
        points += [_scaled(rng, u) for u in units]
        points += [_scaled(rng, tuple(a + b for a, b in zip(u, v)))
                   for u, v in zip(units, units[1:])]
        mc, ranks = _assert_integer_checks_match_oracles(ctx, points)
        seen_mcybe |= mc
        seen_ranks |= ranks
    assert seen_mcybe == {True, False}
    assert len(seen_ranks) >= 2


def test_integer_point_checks_reject_a_point_of_the_wrong_length():
    ctx = AlgebraContext(catalog("s1"))
    with pytest.raises(DimensionMismatch):
        ctx.is_mcybe_at([1, 2, 3])
    with pytest.raises(ValueError, match="size mismatch"):
        derivations.rank_at(ctx.fields, [1, 2, 3])


def test_orbit_table_calls_no_oracle(monkeypatch):
    """No Schouten-bracket mCYBE test and no Fraction matrix M(p) per
    sample point (no ``RatMatrix.matvec``, by which a field's matrix is
    evaluated at a point): both are answered on the integer forms."""
    calls = []

    def counting(original):
        def wrapped(*args):
            calls.append(original.__name__)
            return original(*args)
        return wrapped

    mcybe = counting(yangbaxter.is_mcybe_solution)
    for mod in (yangbaxter, classify):
        monkeypatch.setattr(mod, "is_mcybe_solution", mcybe, raising=False)
    monkeypatch.setattr(RatMatrix, "matvec", counting(RatMatrix.matvec))
    report = classify.verify_orbit_table("s1")
    assert report.passed and sum(r.dims_checked for r in report.rows) > 0
    assert calls == []


def _reduce_system_by_rounds(polys):
    """``reduce_system`` and its witnesses as the loop that restricts the
    whole working list in every round, normalizes it and eliminates it
    again, also after its last round: the reference for the loop that
    carries only its span basis.  Self-contained: its basis is the
    normalized ``poly_rref`` of the list."""
    from darbouxlie.exactmath import normalize_poly, poly_rref
    from darbouxlie.yangbaxter import _pure_square_vars

    def span_basis(ps):
        return [normalize_poly(p) for p in poly_rref(ps, reverse=True)]
    work = [normalize_poly(p) for p in polys if not p.is_zero()]
    killed = []
    witnesses = []
    changed = True
    while changed:
        changed = False
        for p in span_basis(work):
            vs = _pure_square_vars(p)
            if vs and not all(v in killed for v in vs):
                witnesses.append((vs, p))
                for v in vs:
                    if v not in killed:
                        killed.append(v)
                work = [normalize_poly(Poly({
                    m: c for m, c in q.terms.items()
                    if not any(v in killed for v, _ in m)})) for q in work]
                work = [q for q in work if not q.is_zero()]
                changed = True
                break
    gens = [Poly.var(v) for v in sorted(killed)] + span_basis(work)
    gens = [normalize_poly(p) for p in gens if not p.is_zero()]
    return sorted(gens, key=lambda p: (p.degree(), p.text())), witnesses


def _sparse_almost_abelian(rng, n):
    """R x_A R^(n-1) with a fifth of the entries of A nonzero: sparse
    enough that the mCYBE span often holds sums of squares."""
    m = n - 1
    a = [[0] * m for _ in range(m)]
    for cell in rng.sample(range(m * m), max(1, round(0.2 * m * m))):
        a[cell // m][cell % m] = rng.choice((-2, -1, 1, 1, 2))
    return {(i, n - 1): [Fraction(-a[j][i]) for j in range(m)] + [Fraction(0)]
            for i in range(m)}


def test_reduce_system_matches_the_elimination_by_rounds():
    """The display reduction and its witnesses, for every catalog family at
    its golden samples and for seeded sparse almost-abelian algebras and
    so(3) + R^k of dimensions 3-7, equal those of the loop that restricts
    and eliminates the whole system in every round."""
    systems = []
    for stem in classify.FAMILY_FILES:
        fam = classify.load_family(stem)
        systems += [(g.dim, AlgebraContext(g).mcybe)
                    for _, _, g in classify.qualifying_samples(fam)]
    rng = random.Random("reduce_system")
    for n in range(3, 8):
        for _ in range(4):
            g = parse_algebra(bracket_text(n, _sparse_almost_abelian(rng, n)))
            systems.append((n, AlgebraContext(g).mcybe))
    rng = random.Random("reduce_system so3")
    for n in range(3, 8):
        g = parse_algebra(bracket_text(n, so3_plus_abelian(rng, n)))
        systems.append((n, AlgebraContext(g).mcybe))
    killing = set()
    for n, mcybe in systems:
        want, want_witnesses = _reduce_system_by_rounds(mcybe)
        assert yangbaxter._reduce_with_witnesses(mcybe) == (want,
                                                            want_witnesses)
        assert yangbaxter.reduce_system(mcybe) == want
        if want_witnesses:
            killing.add(n)
    assert {4, 5, 6, 7} <= killing


def test_yb_system_display_is_pinned():
    """The display text of ``yb_system`` (the CYBE and mCYBE components,
    the reduced system and its witnesses) for every qualifying catalog
    sample and 20 seeded algebras of dimensions 3-7 hashes to the recorded
    digest, so a faster reduction cannot change a byte of it."""
    algebras = []
    for stem in classify.FAMILY_FILES:
        fam = classify.load_family(stem)
        algebras += [g for _, _, g in classify.qualifying_samples(fam)]
    rng = random.Random("yb_system display")
    for n in range(3, 8):
        for gen in (almost_abelian, so3_plus_abelian, _sparse_almost_abelian,
                    _sparse_almost_abelian):
            algebras.append(parse_algebra(bracket_text(n, gen(rng, n))))
    h = hashlib.sha256()
    for g in algebras:
        ybs = yb_system(g)
        for label, ps in (("cybe", ybs.cybe), ("mcybe", ybs.mcybe),
                          ("reduced", ybs.reduced)):
            h.update(f"{label}: {'; '.join(p.text() for p in ps)}\n".encode())
        h.update(("witnesses: " + "; ".join(
            f"{[v + 1 for v in vs]} {p.text()}" for vs, p in ybs.witnesses)
            + "\n").encode())
    assert len(algebras) == 56
    assert h.hexdigest() == ("eaefcca95b90cdb16f0ddbb660c49387"
                             "a403d60f24304365943949c11ae7d2e7")
