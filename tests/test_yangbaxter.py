"""Yang-Baxter systems, solution predicates, cocommutators, quotients."""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import darbouxlie.classify as classify
import darbouxlie.derivations as derivations
import darbouxlie.yangbaxter as yangbaxter
from darbouxlie.derivations import derivation_basis, orbit_dim
from darbouxlie.exactmath import Poly, rref, solve, span_contains
from darbouxlie.grassmann import MultiVector, blades, invariants, schouten
from darbouxlie.liealg import (FAMILIES, DimensionMismatch, abelian, catalog,
                               parse_algebra)
from darbouxlie.yangbaxter import (AlgebraContext, NecessaryReport,
                                   NotAnAutomorphism, bilinear_matrix,
                                   cocommutator, cocycle_defect,
                                   is_automorphism, is_cybe_solution,
                                   is_mcybe_solution, necessary_checks,
                                   quotient_class, same_coboundary,
                                   yb_system)
from darbouxlie.exactmath import RatMatrix

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
    """A context checks a matrix that passed only once; a matrix that
    fails raises on every call, also after a valid one."""
    calls = []
    original = yangbaxter.is_automorphism

    def counting(g, T):
        calls.append(T)
        return original(g, T)

    monkeypatch.setattr(yangbaxter, "is_automorphism", counting)
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
    assert calls == [bad, bad, T, bad]


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
                    ("so3", lambda: parse_algebra(SO3, "so3"))]


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


def _assert_integer_checks_match_oracles(ctx, points):
    """ctx.is_mcybe_at and the integer derivations.rank_at against
    is_mcybe_solution and sympy's rank of the matrix M(p) (and ``rank``,
    which runs the same elimination kernel as ``rank_at``); returns the
    mCYBE answers and ranks seen.  Skipped when sympy is absent."""
    sp = pytest.importorskip("sympy")
    seen_mcybe, seen_ranks = set(), set()
    for p in points:
        ok = ctx.is_mcybe_at(p)
        assert ok == is_mcybe_solution(ctx.g, p), p
        k = derivations.rank_at(ctx.fields, p)
        m = derivations.field_matrix_at(ctx.fields, p)
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
            points += [_scaled(rng, p) for p in [rec.rep.coords(),
                                                 *rec.samples[:4]]]
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
    sample point: both are answered on the integer forms."""
    calls = []

    def counting(original):
        def wrapped(*args):
            calls.append(original.__name__)
            return original(*args)
        return wrapped

    mcybe = counting(yangbaxter.is_mcybe_solution)
    for mod in (yangbaxter, classify):
        monkeypatch.setattr(mod, "is_mcybe_solution", mcybe, raising=False)
    monkeypatch.setattr(derivations, "field_matrix_at",
                        counting(derivations.field_matrix_at))
    report = classify.verify_orbit_table("s1")
    assert report.passed and sum(r.dims_checked for r in report.rows) > 0
    assert calls == []
