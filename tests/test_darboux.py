"""Darboux families, bricks, branch loci and flow invariance."""

import random
from fractions import Fraction

import pytest

from darbouxlie.darboux import (BranchInvalid, DarbouxFamily,
                                IncompatibleFields, TreeBranch,
                                _rational_eigenvalues, branch_samples,
                                certify_no_solutions, family_sum, find_bricks,
                                flow_invariance, locus_contains,
                                locus_sampler, solve_linear,
                                verify_branch, verify_family,
                                verify_family_auto)
from darbouxlie import darboux
from darbouxlie.classify import TREE_FILES, verify_tree
from darbouxlie.derivations import fundamental_fields, vf_apply
from darbouxlie.exactmath import (MissingVariable, Poly, RatMatrix,
                                  ideal_membership, monomials_up_to,
                                  poly_rref)
from darbouxlie.liealg import catalog
from darbouxlie.yangbaxter import AlgebraContext, yb_system

x = Poly.var


@pytest.fixture(scope="module")
def s1_fields():
    return fundamental_fields(catalog("s1"), 2)


def test_verify_family_mcybe_s1(s1_fields):
    # The induced family of the construction is the span of the [r, r]
    # coefficient polynomials; it is linear (constant cofactors).  The
    # hand-simplified display {x3 x4, x3 x6, x5^2} of the same locus is NOT
    # closed under the fields (X = x4 d2 + x5 d3 sends x3 x4 to x4 x5), so
    # verify_family must reject it at any cofactor bound.
    gens = [p for p in yb_system(catalog("s1")).mcybe if not p.is_zero()]
    fam = verify_family(s1_fields, gens, 0)
    assert fam is not None and fam.linear
    # cofactor witness really reproduces X f_j
    from darbouxlie.derivations import vf_apply
    for j, f in enumerate(fam.generators):
        for k, X in enumerate(s1_fields):
            total = Poly.zero()
            for i, gi in enumerate(fam.generators):
                total = total + fam.cofactors[j][k][i] * gi
            assert total == vf_apply(X, f)
    simplified = [x(2) * x(3), x(2) * x(5), x(4) ** 2]
    assert verify_family(s1_fields, simplified, 2) is None


def test_verify_family_rejects(s1_fields):
    assert verify_family(s1_fields, [x(0)], 2) is None


def test_full_coordinate_family(s1_fields):
    fam = verify_family(s1_fields, [x(i) for i in range(6)], 0)
    assert fam is not None and fam.linear


def test_verify_family_without_fields():
    fam = verify_family((), [x(0), x(1) ** 2], 0)
    assert fam.cofactors == [[], []] and fam.linear and fam.fields == ()
    assert verify_family((), [x(0), 2 * x(0)], 0) is None
    assert verify_family((), [], 0) is None


def _one_target_at_a_time(fields, gens, bound):
    """The closure check with one ideal_membership solve per target X f:
    (cofactor table, linear) or None."""
    if not gens or len(poly_rref(gens)) != len(gens):
        return None
    table = [[ideal_membership(vf_apply(X, f), gens, bound) for X in fields]
             for f in gens]
    if any(cofs is None for row in table for cofs in row):
        return None
    return table, all(c.degree() == 0 for row in table for cofs in row
                      for c in cofs)


def test_verify_family_matches_one_target_at_a_time_on_tree_families(
        monkeypatch):
    """Every family that the shipped trees check, at every bound tried,
    gets the cofactor table and the linear flag of one solve per target."""
    calls = []
    real = darboux.verify_family

    def recorded(fields, gens, bound=0):
        fam = real(fields, gens, bound)
        calls.append((fields, list(gens), bound, fam))
        return fam
    monkeypatch.setattr(darboux, "verify_family", recorded)
    for stem in TREE_FILES:
        assert verify_tree(stem).passed, stem
    assert len(calls) == 179
    assert sum(fam is None for *_, fam in calls) == 22
    assert {fam.linear for *_, fam in calls if fam} == {True, False}
    for fields, gens, bound, fam in calls:
        want = _one_target_at_a_time(fields, gens, bound)
        got = None if fam is None else (fam.cofactors, fam.linear)
        assert got == want, [g.text() for g in gens]


def test_bricks_catalog_statements():
    expected = {
        "s1": ["x5", "x6"], "s2": ["x6"], "s5": ["x3"], "s6": ["x5", "x6"],
        "s7": [], "s10": ["x6"], "s11": ["x5", "x6"], "s12": ["x6"],
        "n1": ["x6"],
    }
    params = {"s5": dict(alpha=1, beta=1)}
    for fam, want in expected.items():
        g = catalog(fam, **params.get(fam, {}))
        got = [b.poly.text() for b in find_bricks(fundamental_fields(g, 2))]
        assert got == want, fam


def test_bricks_are_one_dim_families():
    g = catalog("s1")
    fields = fundamental_fields(g, 2)
    for b in find_bricks(fields):
        fam = verify_family(fields, [b.poly], 0)
        assert fam is not None and fam.linear
        # recorded eigenvalues match the witnessed cofactors
        for k in range(len(fields)):
            assert fam.cofactors[0][k][0] == Poly.const(b.eigenvalues[k])


def _planted_matrix(rng, n):
    """c * E T E^-1 for a product E of elementary integer matrices (so
    unimodular), a rational c with a large denominator, and T upper
    triangular with small rational diagonal entries, except that T may
    carry a 2x2 block [[0, 2], [1, 0]] with the irrational eigenvalues
    +-sqrt(2) on its diagonal."""
    t = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        t[i][i] = Fraction(rng.choice([0, 1, -1, 2, -3]), rng.choice([1, 2, 3]))
        for j in range(i + 1, n):
            t[i][j] = Fraction(rng.randint(-1, 1))
    if n >= 2 and rng.random() < 0.5:
        i = rng.randrange(n - 1)
        t[i][i] = t[i + 1][i + 1] = Fraction(0)
        t[i][i + 1], t[i + 1][i] = Fraction(2), Fraction(1)
    m = RatMatrix(t, n)

    def elementary(i, j, k):
        return RatMatrix([[k if (a, b) == (i, j) else int(a == b)
                           for b in range(n)] for a in range(n)])
    for _ in range(n if n >= 2 else 0):
        i, j = rng.sample(range(n), 2)
        k = rng.choice([-1, 1])
        m = elementary(i, j, k).matmul(m).matmul(elementary(i, j, -k))
    return m.scale(Fraction(rng.choice([-7, -1, 1, 5]), rng.choice([101, 1009])))


@pytest.mark.parametrize("seed", range(4))
def test_rational_eigenvalues_match_sympy(seed):
    """The distinct rational eigenvalues, sorted, are the rational keys of
    sympy's eigenvals, for n = 0..8 with planted rational eigenvalues."""
    sp = pytest.importorskip("sympy")
    rng = random.Random(seed)
    for n in range(9):
        m = _planted_matrix(rng, n)
        eigs = sp.Matrix(n, n, [sp.Rational(q.numerator, q.denominator)
                                for q in m.flat()]).eigenvals()
        want = sorted(Fraction(int(k.p), int(k.q))
                      for k in eigs if k.is_rational)
        assert _rational_eigenvalues(m) == want, (seed, n)


def test_family_sum(s1_fields):
    b5 = verify_family(s1_fields, [x(4)], 0)
    b6 = verify_family(s1_fields, [x(5)], 0)
    both = family_sum(b5, b6)
    assert [p.text() for p in both.generators] == ["x5", "x6"]
    mcybe_gens = [p for p in yb_system(catalog("s1")).mcybe
                  if not p.is_zero()]
    mc = verify_family(s1_fields, mcybe_gens, 0)
    five = family_sum(mc, b6)
    assert len(five.generators) == 5
    again = family_sum(five, five)
    assert len(again.generators) == 5
    other = fundamental_fields(catalog("s2"), 2)
    b6_other = verify_family(other, [x(5)], 0)
    with pytest.raises(IncompatibleFields):
        family_sum(b5, b6_other)


def test_locus_contains():
    branch = TreeBranch("VIII", [x(4), x(2)],
                        [(x(5), "!="), (x(0), ">")])
    assert locus_contains(branch, [1, 0, 0, 2, 0, 1])
    assert not locus_contains(branch, [0, 0, 0, 0, 0, 0])
    assert not locus_contains(branch, [-1, 0, 0, 0, 0, 1])
    assert not locus_contains(branch, [1, 0, 1, 0, 0, 1])


def test_locus_sampler_tells_points_apart_by_their_denominator():
    """Points whose cleared numerators agree but whose denominators differ
    are different points; a repeat, in any exact spelling, is skipped, and
    a point off the locus is dropped."""
    out, push = locus_sampler(TreeBranch("c", [x(4)], [(x(0), ">")]))
    third = Fraction(1, 3)
    for pt in ([1, 2, 0, 0, 0, 0], [third, 2 * third, 0, 0, 0, 0],
               ["1", Fraction(4, 2), 0, 0, 0, 0], [-1, 2, 0, 0, 0, 0],
               [Fraction(2, 6), Fraction(2, 3), 0, 0, 0, 0],
               [1, 2, 0, 0, 1, 0], [1, 2, 0, 0, 0, 3]):
        push(pt)
    assert out == [(1, 2, 0, 0, 0, 0), (third, 2 * third, 0, 0, 0, 0),
                   (1, 2, 0, 0, 0, 3)]
    assert all(isinstance(v, Fraction) for pt in out for v in pt)


def test_verify_branch_s1(s1_fields):
    g = catalog("s1")
    branch = TreeBranch("I", [x(4), x(5), x(2), x(3), x(1)],
                        [(x(0), "!=")], expected_dim=1)
    pts = branch_samples(branch, 6)
    rep = verify_branch(AlgebraContext(g), s1_fields, branch, pts)
    assert rep.passed and rep.ranks[0] == 1
    branch7 = TreeBranch("VII", [x(4), x(2), x(0)],
                         [(x(5), "!=")], expected_dim=3)
    rep7 = verify_branch(AlgebraContext(g), s1_fields, branch7,
                         branch_samples(branch7, 6))
    assert rep7.passed and rep7.ranks[0] == 3


def test_verify_branch_rejects_bad_sample(s1_fields):
    g = catalog("s1")
    branch = TreeBranch("I", [x(4)], [(x(0), "!=")])
    with pytest.raises(BranchInvalid):
        verify_branch(AlgebraContext(g), s1_fields, branch,
                      [[0, 0, 0, 0, 1, 0]])


def test_certify_no_solutions_s1(s1_fields):
    mc = [p for p in yb_system(catalog("s1")).mcybe if not p.is_zero()]
    branch = TreeBranch("NS", [x(4)], [(x(5), "!="), (x(2), "!=")])
    cert = certify_no_solutions(branch, mc, 6)
    assert cert is not None and "forced zero" in cert
    # the root-level x5 != 0 region dies on the square x5^2
    cert2 = certify_no_solutions(TreeBranch("NS2", [], [(x(4), "!=")]), mc, 6)
    assert cert2 is not None
    # a branch that does meet the locus has no certificate
    ok_branch = TreeBranch("I", [x(4), x(5), x(2), x(3), x(1)],
                           [(x(0), "!=")])
    assert certify_no_solutions(ok_branch, mc, 6) is None


def test_certify_psd_pattern():
    mc = [p for p in yb_system(catalog("s7")).mcybe if not p.is_zero()]
    branch = TreeBranch("NS", [], [(x(5), "!=")])
    cert = certify_no_solutions(branch, mc, 6)
    assert cert is not None


def test_flow_invariance(s1_fields):
    gens = [p for p in yb_system(catalog("s1")).mcybe if not p.is_zero()] \
        + [x(5)]
    fam = verify_family_auto(s1_fields, gens)
    assert fam is not None
    for p in ([1, 0, 0, 0, 0, 0], [1, 2, 0, 1, 0, 0]):  # locus points
        for X in s1_fields:
            assert flow_invariance(fam, X, p, order=8)
    # a point off the locus is detected immediately
    assert not flow_invariance(fam, s1_fields[0], [0, 0, 0, 0, 0, 1])
    # a non-invariant function family fails the check: x1 alone is not
    # Darboux, and its flow leaves the zero set
    fake = verify_family(s1_fields, [x(0) + x(2)], 2)
    assert fake is None


def _flow_coefficients(sp, f, A, p, K):
    """The t-coefficients 0..K of f(sum_{k<=K} t^k A^k p / k!), expanded
    by sympy."""
    t = sp.Symbol("t")
    M = sp.Matrix([[sp.Rational(x.numerator, x.denominator) for x in row]
                   for row in A.entries])
    vec = sp.Matrix([sp.Rational(x.numerator, x.denominator) for x in p])
    curve = sp.zeros(len(p), 1)
    for k in range(K + 1):
        curve += t ** k * vec / sp.factorial(k)
        vec = M * vec
    value = sum(sp.Rational(c.numerator, c.denominator)
                * sp.Mul(*(curve[v] ** e for v, e in mono))
                for mono, c in f.terms.items())
    coeffs = sp.Poly(sp.expand(value), t).all_coeffs()[::-1]
    return (coeffs + [0] * (K + 1))[:K + 1]


def _oracle(coeffs, gens, order):
    """The flow check read off the expansions: for every generator, the
    coefficients of t^k with k <= order - deg f vanish."""
    return all(not c for f, cs in zip(gens, coeffs)
               for c in cs[:max(0, order - f.degree() + 1)])


MONOS = [Poly({mu: 1}) for mu in monomials_up_to(6, 2)]


def _vanishing_generator(sp, rng, table, degree, m):
    """A generator of degree `degree` whose flow coefficients vanish exactly
    below t^m, from the table of the monomials' coefficients; None when the
    field allows none."""
    cols = [i for i, mu in enumerate(MONOS) if mu.degree() <= degree]
    sub = table[:, cols]
    kernel = sub[:m, :].nullspace() if m else [
        sp.eye(len(cols))[:, i] for i in range(len(cols))]
    for _ in range(4):
        comb = sum((rng.randint(-2, 2) * v for v in kernel),
                   sp.zeros(len(cols), 1))
        if (sub[m, :] * comb)[0]:
            f = sum((Fraction(int(sp.numer(c)), int(sp.denom(c))) * MONOS[i]
                     for c, i in zip(comb, cols)), Poly.zero())
            if f.degree() == degree:
                return f
    return None


def test_flow_invariance_matches_sympy_expansion():
    sp = pytest.importorskip("sympy")
    rng = random.Random(5)
    fields = (fundamental_fields(catalog("s1"), 2)
              + fundamental_fields(catalog("s3", alpha=Fraction(1, 2),
                                           beta=Fraction(1, 3)), 2))
    seen = set()
    for X in fields:
        p = [Fraction(rng.randint(-2, 2), rng.randint(1, 2))
             for _ in range(6)]
        table = sp.Matrix([_flow_coefficients(sp, mu, X.matrix, p, 3)
                           for mu in MONOS]).T
        for degree in (1, 2):
            for m in range(4):
                f = _vanishing_generator(sp, rng, table, degree, m)
                if f is None:
                    continue
                # a generator of the other degree that vanishes at p; the
                # family is not closed under the fields
                g = _vanishing_generator(sp, rng, table, 3 - degree, 1)
                for gens in [[f]] + ([[f, g]] if g is not None else []):
                    fam = DarbouxFamily(gens, [], False)
                    on_locus = all(not h.eval(p) for h in gens)
                    coeffs = [_flow_coefficients(sp, h, X.matrix, p, 8)
                              for h in gens]
                    for order in range(9):
                        want = _oracle(coeffs, gens, order)
                        assert flow_invariance(fam, X, p, order) == want
                        seen.add((want, on_locus, m))
    # every verdict occurs on the locus (a failure at some k > 0) and off
    # it, and the first nonvanishing coefficient ranges over t^0..t^3
    assert {(w, o) for w, o, _ in seen} == {(True, True), (False, True),
                                           (True, False), (False, False)}
    assert {m for w, o, m in seen if not w} == {0, 1, 2, 3}


def test_branch_samples_leaves_constant_equalities_to_the_locus():
    """A constant equality has no variable to solve for: 0 leaves the
    samples as they are, and a nonzero constant leaves none."""
    eqs = [x(4), x(5), x(2), x(3), x(1)]
    ineqs = [(x(0), "!=")]
    plain = branch_samples(TreeBranch("I", eqs, ineqs), 6)
    assert plain
    zero = TreeBranch("I", eqs + [Poly.const(0)], ineqs)
    assert branch_samples(zero, 6) == plain
    one = TreeBranch("I", eqs + [Poly.const(1)], ineqs)
    assert branch_samples(one, 6) == []


def test_verify_branch_no_mcybe_points(s1_fields):
    g = catalog("s1")
    # x5 = 0 with x3, x6 both nonzero misses the solution set entirely
    dead = TreeBranch("NS", [x(4)], [(x(2), "!="), (x(5), "!=")])
    pts = branch_samples(dead, 6)
    assert pts
    with pytest.raises(BranchInvalid, match="no mCYBE points"):
        verify_branch(AlgebraContext(g), s1_fields, dead, pts)


def _random_poly(rng, nvars, skip, degree=2):
    """A seeded polynomial of degree <= degree, free of the variable skip."""
    return Poly({m: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for m in monomials_up_to(nvars, degree)
                 if rng.random() < 0.4 and skip not in dict(m)})


@pytest.mark.parametrize("seed", range(8))
def test_solve_linear_matches_sympy(seed):
    """f = a*x_v + b (+ a power of x_v), with a made to vanish at the point
    in some draws: the value sympy solves for x_v, or None exactly when
    x_v is absent, appears to a power, or has a coefficient zero there."""
    sp = pytest.importorskip("sympy")
    rng = random.Random(seed)
    seen = set()
    for _ in range(25):
        nvars = rng.randint(1, 6)
        v = rng.randrange(nvars)
        pt = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
              for _ in range(nvars)]
        kind = rng.choice(["linear", "power", "absent", "vanishing"])
        a = _random_poly(rng, nvars, v)
        if kind == "vanishing":
            a = a - a.eval(pt)
        b = _random_poly(rng, nvars, v)
        f = b if kind == "absent" else a * x(v) + b
        if kind == "power":
            f = f + x(v) ** rng.randint(2, 3) * (a + 1)
        syms = sp.symbols(f"x1:{nvars + 2}")[:nvars]
        expr = sp.Add(*(sp.Rational(c.numerator, c.denominator)
                        * sp.Mul(*(syms[w] ** e for w, e in m))
                        for m, c in f.terms.items()))
        others = {syms[w]: sp.Rational(q.numerator, q.denominator)
                  for w, q in enumerate(pt) if w != v}
        got = solve_linear(f, v, pt)
        deg = sp.degree(expr, syms[v])
        if deg != 1:
            seen.add("absent" if deg == 0 else "power")
            assert got is None
        elif sp.diff(expr, syms[v]).subs(others) == 0:
            seen.add("vanishing")
            assert got is None
        else:
            seen.add("value")
            [want] = sp.solve(expr.subs(others), syms[v])
            assert got == Fraction(int(want.p), int(want.q))
            assert f.eval(pt[:v] + [got] + pt[v + 1:]) == 0
    assert seen == {"value", "absent", "power", "vanishing"}


def test_psd_rejects_an_indefinite_matrix():
    """[[1, 2], [2, 1]] has the eigenvalues 3 and -1: its Schur complement
    at the first pivot is 1 - 2^2/1 = -3."""
    assert not darboux._psd(RatMatrix([[1, 2], [2, 1]]))
    assert darboux._psd(RatMatrix([[1, 1], [1, 1]]))
    assert darboux._psd(RatMatrix([[4, 2], [2, 1]]))
    # a zero pivot with a nonzero entry after it: [[0, 1], [1, c]] has
    # determinant -1
    assert not darboux._psd(RatMatrix([[0, 1], [1, 5]]))
    assert darboux._psd(RatMatrix([[0, 0], [0, 5]]))


def test_certify_no_solutions_no_psd_certificate_for_an_indefinite_form():
    """x1^2 + 4*x1*x2 + x2^2 = 0 has real points with x1 != 0 (x2 =
    (-2 +- sqrt 3) x1), so nothing forces x1 = 0."""
    form = x(0) ** 2 + 4 * x(0) * x(1) + x(1) ** 2
    assert certify_no_solutions(TreeBranch("t", [form], [(x(0), "!=")]),
                                [], 3) is None
    # x1^2 + 2*x1*x2 + 2*x2^2 = (x1 + x2)^2 + x2^2 is positive definite,
    # so it does force x1 = 0
    definite = x(0) ** 2 + 2 * x(0) * x(1) + 2 * x(1) ** 2
    cert = certify_no_solutions(TreeBranch("t", [definite], [(x(0), "!=")]),
                                [], 3)
    assert cert is not None and cert.startswith("PSD domination")


def _random_symmetric(rng, n):
    """A seeded symmetric rational matrix: B Bᵀ for a random B of rank at
    most n (positive semidefinite, often singular), minus c·v vᵀ for a
    random v in some draws (often indefinite), with zero rows and columns
    planted in some draws."""
    k = rng.randint(0, n)
    b = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)]
         for _ in range(n)]
    m = [[sum((b[i][t] * b[j][t] for t in range(k)), Fraction(0))
          for j in range(n)] for i in range(n)]
    if rng.random() < 0.5:
        v = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        c = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        m = [[m[i][j] - c * v[i] * v[j] for j in range(n)] for i in range(n)]
    for i in range(n):
        if rng.random() < 0.2:
            for j in range(n):
                m[i][j] = m[j][i] = Fraction(0)
    return m


@pytest.mark.parametrize("seed", range(4))
def test_psd_matches_sympy(seed):
    sp = pytest.importorskip("sympy")
    rng = random.Random(seed)
    seen = set()
    for _ in range(40):
        n = rng.randint(1, 5)
        m = _random_symmetric(rng, n)
        want = sp.Matrix([[sp.Rational(q.numerator, q.denominator) for q in r]
                          for r in m]).is_positive_semidefinite
        assert darboux._psd(RatMatrix(m)) == want, m
        seen.add(want)
    assert seen == {True, False}


@pytest.mark.parametrize("seed", range(4))
def test_char_poly_matches_sympy(seed):
    """The integer Faddeev-LeVerrier coefficients [c_0..c_n] against
    sympy's charpoly on seeded integer matrices, n = 0..8, some of them
    singular."""
    sp = pytest.importorskip("sympy")
    rng = random.Random(seed)
    for n in range(9):
        rows = [[rng.choice([0, 0, rng.randint(-9, 9), rng.randint(-10**6,
                                                                  10**6)])
                 for _ in range(n)] for _ in range(n)]
        if n >= 2 and rng.random() < 0.5:
            rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
        want = ([1] if n == 0 else
                [int(c) for c in reversed(sp.Matrix(rows).charpoly().all_coeffs())])
        assert darboux._char_poly(rows) == want, (seed, n)
        assert all(type(c) is int for c in darboux._char_poly(rows))


def _locus_reference(branch, p):
    """``locus_contains`` as ``Poly.eval`` at the rational point."""
    for f in branch.equalities:
        if f.eval(p):
            return False
    for f, op in branch.inequalities:
        v = f.eval(p)
        if {"!=": v == 0, ">": v <= 0, "<": v >= 0}[op]:
            return False
    return True


@pytest.mark.parametrize("seed", range(6))
def test_locus_contains_matches_poly_eval(seed):
    """Branches with constant terms, non-homogeneous polynomials and all of
    '!=', '>', '<', at seeded rational points with mixed denominators.
    Polynomials shifted by their own value at a point vanish there, so
    equalities hold and inequality values of exactly 0 occur."""
    rng = random.Random(seed)
    seen = set()
    ops = set()
    for _ in range(60):
        nvars = rng.randint(1, 6)
        pts = [[Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 4, 7]))
                for _ in range(nvars)] for _ in range(4)]
        eqs = [_random_poly(rng, nvars, None, 3) for _ in range(rng.randint(0, 2))]
        eqs = [f - f.eval(pts[0]) if rng.random() < 0.7 else f for f in eqs]
        ineqs = []
        for _ in range(rng.randint(0, 3)):
            f = _random_poly(rng, nvars, None, 2)
            if rng.random() < 0.3:
                f = f - f.eval(rng.choice(pts))
            op = rng.choice(["!=", ">", "<"])
            ineqs.append((f, op))
        branch = TreeBranch("b", eqs, ineqs)
        for p in pts:
            got = locus_contains(branch, p)
            assert got == _locus_reference(branch, p), (eqs, ineqs, p)
            seen.add(got)
            ops |= {(op, f.eval(p) == 0) for f, op in ineqs}
    assert seen == {True, False}
    assert {("!=", True), (">", True), ("<", True)} <= ops


def test_locus_contains_short_point_raises_missing_variable():
    """A point too short for a branch polynomial raises at the same
    polynomial and for the same variable as ``Poly.eval``; a polynomial
    that already fails before it returns False."""
    branch = TreeBranch("b", [x(0), x(3) * x(1) + x(4)],
                        [(x(1) + x(6), ">")])
    with pytest.raises(MissingVariable, match="x4"):
        locus_contains(branch, [0, 1])
    with pytest.raises(MissingVariable) as want:
        (x(3) * x(1) + x(4)).eval([0, 1])
    assert str(want.value) == "'x4'"
    assert not locus_contains(branch, [1, 1])
    with pytest.raises(MissingVariable, match="x7"):
        locus_contains(branch, [0, 1, 0, 0, 0])
    assert not locus_contains(TreeBranch("c", [], [(x(0), "<"), (x(5), ">")]),
                              [Fraction(1, 2)])


def test_tree_branch_int_forms_follow_its_polynomials():
    """A branch stores its polynomial lists as tuples, so changing the lists
    it was built from does not change it, and assigning new ones drops the
    cached ``int_forms``: ``locus_contains`` always tests the branch's
    current polynomials."""
    eqs, ineqs = [x(0)], [(x(1), ">")]
    branch = TreeBranch("b", eqs, ineqs)
    assert branch.equalities == (x(0),)
    assert branch.inequalities == ((x(1), ">"),)
    assert locus_contains(branch, [0, 1])
    eqs.append(x(1) - 1)
    ineqs[0] = (x(1), "<")
    assert locus_contains(branch, [0, 1])
    branch.equalities = [x(0), x(1) - 2]
    assert branch.equalities == (x(0), x(1) - 2)
    assert not locus_contains(branch, [0, 1])
    assert locus_contains(branch, [0, 2])
    branch.inequalities = [(x(1), "<")]
    assert not locus_contains(branch, [0, 2])
    assert locus_contains(TreeBranch("c", [x(1) - 2], [(x(0), "<")]),
                          [-1, 2])
