"""Exact linear algebra and polynomial substrate."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darbouxlie import exactmath
from darbouxlie.exactmath import (MissingVariable, Poly, RatMatrix,
                                  clear_denominators, ideal_membership,
                                  ideal_memberships, kernel_basis, mono_key,
                                  monomials_up_to,
                                  normalize_poly, poly_rref,
                                  poly_rref_contains, poly_rref_normalized,
                                  rank, rref,
                                  row_space_equal, solve)
from oracles import span_contains

x = Poly.var


def test_rref_identity():
    m = RatMatrix.identity(3)
    red, pivots = rref(m)
    assert red == m
    assert pivots == [0, 1, 2]


def test_rref_zero():
    m = RatMatrix.zero(2, 4)
    red, pivots = rref(m)
    assert red == m
    assert pivots == []


def test_rref_rank_one():
    red, pivots = rref(RatMatrix([[2, 4], [1, 2]]))
    assert red == RatMatrix([[1, 2], [0, 0]])
    assert pivots == [0]


def test_zero_matrix_without_rows_keeps_its_width():
    m = RatMatrix.zero(0, 5)
    assert (m.rows, m.cols) == (0, 5)
    assert m.matvec([1, 2, 3, 4, 5]) == ()
    assert kernel_basis(m) == [tuple(Fraction(int(i == j)) for j in range(5))
                               for i in range(5)]
    assert m != RatMatrix.zero(0, 4)
    assert rref(m) == (m, [])
    assert row_space_equal(m, RatMatrix.zero(3, 5))
    assert not row_space_equal(m, RatMatrix.zero(0, 4))
    assert m.transpose() == RatMatrix([()] * 5)
    assert m.transpose().transpose() == m


def test_arithmetic_without_rows_keeps_the_width():
    m = RatMatrix.zero(0, 5)
    for out in (m + m, m - m, -m, m.scale(2)):
        assert (out.rows, out.cols) == (0, 5)
        assert out == m
    a = RatMatrix([[1, 2], [3, 4]])
    assert a + a == a.scale(2) and a - a == RatMatrix.zero(2, 2)
    assert -a == RatMatrix([[-1, -2], [-3, -4]])


def test_add_and_sub_reject_mismatched_shapes():
    # no silent truncation: [[1,2],[3,4]] + [[1]] is not [[2]]
    a = RatMatrix([[1, 2], [3, 4]])
    for other in (RatMatrix([[1]]), RatMatrix([[1, 2]]), RatMatrix([[1], [2]]),
                  RatMatrix.zero(0, 2), RatMatrix.zero(3, 2)):
        with pytest.raises(ValueError, match="size mismatch"):
            a + other
        with pytest.raises(ValueError, match="size mismatch"):
            a - other
    with pytest.raises(ValueError, match="size mismatch"):
        RatMatrix.zero(0, 5) + RatMatrix.zero(0, 4)


def test_kernel_identity_empty():
    assert kernel_basis(RatMatrix.identity(4)) == []


def test_kernel_zero_full():
    ker = kernel_basis(RatMatrix.zero(2, 3))
    assert len(ker) == 3


def test_kernel_plane():
    ker = kernel_basis(RatMatrix([[1, 1, 0]]))
    assert len(ker) == 2
    for v in ker:
        assert v[0] + v[1] == 0


def test_poly_eval_examples():
    assert (x(2) * x(3)).eval({2: 1, 3: 0}) == 0
    assert (x(4) ** 2).eval({4: 3}) == 9
    p = 2 * x(0) * x(5) + 3 * x(2) * x(3)
    assert p.eval({0: 1, 5: 1, 2: 2, 3: 1}) == 8


def test_poly_eval_missing_variable():
    with pytest.raises(MissingVariable):
        (x(0) + x(3)).eval({0: 1})


def test_ideal_membership_trivial():
    f1, f2, f3 = x(2) * x(3), x(2) * x(5), x(4) ** 2
    cofs = ideal_membership(f1, [f1, f2, f3], 0)
    assert cofs == [Poly.const(1), Poly.zero(), Poly.zero()]


def test_ideal_membership_infeasible():
    assert ideal_membership(x(4) ** 2, [x(2) * x(3)], 2) is None


def test_ideal_membership_combination():
    target = 2 * x(2) * x(3) + x(4) ** 2
    cofs = ideal_membership(target, [x(2) * x(3), x(4) ** 2], 0)
    assert cofs == [Poly.const(2), Poly.const(1)]


def test_ideal_membership_nonconstant_cofactor():
    # x5^2 = x5 * x5 needs a degree-1 cofactor
    assert ideal_membership(x(4) ** 2, [x(4)], 0) is None
    cofs = ideal_membership(x(4) ** 2, [x(4)], 1)
    assert cofs is not None and cofs[0] == x(4)


def test_ideal_memberships_edge_cases():
    gens = [x(0) * x(1), x(2)]
    assert ideal_memberships([], gens, 1) == []
    # without generators only the zero polynomial is a member
    assert ideal_memberships([Poly.zero(), x(0), Poly.const(2)], [], 2) == \
        [[], None, None]
    # x6 is in no generator: x6 * x3 needs the cofactor x6, x6 has none
    assert ideal_memberships([x(5) * x(2), x(5)], gens, 1) == \
        [[Poly.zero(), x(5)], None]
    for bound in (-1, -3):
        with pytest.raises(ValueError):
            ideal_memberships([x(0)], gens, bound)
        with pytest.raises(ValueError):
            ideal_membership(x(0), gens, bound)


def test_ideal_memberships_inconsistent_rows_stay_apart():
    """The row of x2 has no unknown, and is nonzero for the first two
    targets only: both are refuted, and the third keeps its own value
    (back substitution against that row would give x2 the cofactor -2)."""
    targets = [2 * x(0) + x(1), x(1), x(0)]
    assert ideal_memberships(targets, [x(0)], 0) == \
        [None, None, [Poly.const(1)]]


def test_ratmatrix_hash_is_equal_for_equal_matrices():
    a = RatMatrix([[1, Fraction(1, 2)], [0, 3]])
    b = RatMatrix([["1", "1/2"], [0, Fraction(6, 2)]])
    assert a == b and hash(a) == hash(b) == hash(
        RatMatrix.from_ints(a.den, a.ints, a.cols))
    assert hash(a) == hash(a) and {a: 1}[b] == 1
    assert hash(RatMatrix.zero(0, 3)) == hash(RatMatrix.zero(0, 3))
    assert {(a, b): 2}[(b, RatMatrix(a.entries))] == 2


def test_integer_form_is_the_matrix_times_one_positive_integer():
    m = RatMatrix([[Fraction(1, 2), 0, Fraction(-2, 3)], [0, 0, 0],
                   [4, Fraction(5, 6), 0]])
    den, rows = m.den, m.ints
    assert den == 6
    assert rows == (((0, 3), (2, -4)), (), ((0, 24), (1, 5)))
    assert m.ints is m.ints
    z = RatMatrix.zero(2, 2)
    assert (z.den, z.ints) == (1, ((), ()))


def _has_dense_view(m: RatMatrix) -> bool:
    """Whether m holds its Fractions, read without building them."""
    try:
        RatMatrix._entries.__get__(m)
    except AttributeError:
        return False
    return True


def test_matrix_from_ints_is_the_matrix_from_fractions():
    """A matrix given by its integer form equals, and hashes like, the same
    matrix given by Fractions; a non-canonical form is reduced by the gcd of
    den and all the ints, and the dense view is built only when read."""
    a = RatMatrix([[Fraction(1, 2), 0, Fraction(-2, 3)], [0, 0, 0]])
    for den, rows in ((6, [[(0, 3), (2, -4)], []]),
                      (12, [[(0, 6), (2, -8)], []]),
                      (-6 * -7, [((0, 21), (2, -28)), ()])):
        b = RatMatrix.from_ints(den, rows, 3)
        assert (b.den, b.ints) == (6, (((0, 3), (2, -4)), ()))
        assert not _has_dense_view(b)
        assert b.matvec([6, 1, 3]) == a.matvec([6, 1, 3]) == (1, 0)
        assert not _has_dense_view(b)
        assert b == a and hash(b) == hash(a) and {a: 1}[b] == 1
        assert b.entries == a.entries and _has_dense_view(b)
    z = RatMatrix.from_ints(6, [(), ()], 3)
    assert (z.den, z.ints) == (1, ((), ())) and z == RatMatrix.zero(2, 3)
    assert RatMatrix.from_ints(1, [], 3) == RatMatrix.zero(0, 3)
    assert RatMatrix.from_ints(1, [], 3) != RatMatrix.zero(0, 4)
    assert RatMatrix.from_ints(2, [[(0, 1)]], 1) != RatMatrix([[1]])
    assert RatMatrix([[1]]).den == 1 and RatMatrix([[Fraction(2, 4)]]).den == 2


small_rats = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 7))


def polys(max_terms=4):
    mono = st.lists(st.tuples(st.integers(0, 3), st.integers(1, 2)),
                    max_size=2).map(
        lambda ps: tuple(sorted(dict(ps).items())))
    term = st.tuples(mono, small_rats)
    return st.lists(term, max_size=max_terms).map(Poly)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_distributivity(p, q, r):
    assert (p + q) * r == p * r + q * r


@settings(max_examples=60, deadline=None)
@given(polys())
def test_canonical_zero(p):
    assert (p - p).terms == {}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small_rats, min_size=4, max_size=4),
                min_size=1, max_size=5))
def test_rref_idempotent_and_kernel(rows):
    m = RatMatrix(rows)
    red, pivots = rref(m)
    again, pivots2 = rref(red)
    assert again == red and pivots == pivots2
    assert rank(red) == rank(m) == len(pivots)
    ker = kernel_basis(m)
    assert len(ker) == m.cols - rank(m)
    for v in ker:
        assert all(c == 0 for c in m.matvec(v))


@settings(max_examples=30, deadline=None)
@given(polys(max_terms=3), polys(max_terms=3))
def test_ideal_membership_roundtrip(g1, g2):
    target = g1 * 2 - g2
    cofs = ideal_membership(target, [g1, g2], 0)
    if cofs is not None:
        total = Poly.zero()
        for c, g in zip(cofs, [g1, g2]):
            total = total + c * g
        assert total == target


def test_solve_consistency():
    m = RatMatrix([[1, 2], [3, 4]])
    sol = solve(m, [5, 6])
    assert sol is not None
    assert list(m.matvec(sol)) == [Fraction(5), Fraction(6)]
    assert solve(RatMatrix([[1, 1], [1, 1]]), [0, 1]) is None


def test_size_mismatch_and_coercion():
    with pytest.raises(ValueError, match="matvec size mismatch"):
        RatMatrix.identity(2).matvec([1, 2, 3])
    with pytest.raises(ValueError, match="solve size mismatch"):
        solve(RatMatrix.identity(2), [1])
    assert RatMatrix([[1, 2]]).matvec(["1/2", 1]) == (Fraction(5, 2),)
    assert solve(RatMatrix([[2, 0]]), ["1/3"]) == (Fraction(1, 6), 0)


def test_normalize_poly():
    p = Fraction(2, 3) * x(0) - Fraction(4, 3) * x(1)
    n = normalize_poly(p)
    assert n == x(0) - 2 * x(1)


@pytest.mark.parametrize("p, want", [
    (x(0) ** 2 - x(0) * x(1), x(0) * x(1) - x(0) ** 2),
    (x(0) ** 2 - x(0) * x(2), x(0) * x(2) - x(0) ** 2),
    (x(1) ** 2 - x(0) ** 2, x(0) ** 2 - x(1) ** 2),
    (x(0) ** 2 * x(1) - x(0) * x(1) ** 2, x(0) * x(1) ** 2 - x(0) ** 2 * x(1)),
    (x(2) * x(3) - x(1) ** 2, x(1) ** 2 - x(2) * x(3)),
    (x(3) ** 2 - 2 * x(0), x(3) ** 2 - 2 * x(0)),
])
def test_normalize_poly_sign_follows_the_leading_term(p, want):
    """The leading term is of highest degree, then of the least list of
    (variable, exponent) pairs: x1*x2 leads x1^2, which leads x2^2.  The
    sign of every displayed polynomial follows it."""
    assert normalize_poly(p) == want
    assert want.leading()[1] > 0


def scale(p: Poly) -> int:
    """The positive integer that ``Poly.eval_int`` multiplies p by."""
    return clear_denominators(p.terms.values())[0]


def test_int_poly_clears_denominators_with_a_positive_scale():
    p = x(0) / 2 - x(1) / 3
    assert scale(p) == 6
    assert p.eval_int([2, 3]) == 0 and p.eval_int([1, 0]) == 3
    assert p.eval_int([0, 1]) == -2 and p.eval_int([1, 1], 2) == 1
    assert (-Fraction(3, 4) * x(2) ** 2).eval_int([0, 0, 2]) == -12
    assert (scale(Poly.zero()), Poly.zero().eval_int([1, 2])) == (1, 0)


def test_eval_int_clears_the_coefficients_once(monkeypatch):
    """Repeated ``eval_int`` calls on one Poly clear its coefficients on
    the first call only; another Poly clears its own."""
    calls = []
    real = exactmath.clear_denominators

    def counting(xs):
        calls.append(1)
        return real(xs)

    monkeypatch.setattr(exactmath, "clear_denominators", counting)
    p, q = x(0) / 2 - x(1) / 3, x(0) ** 2 / 5
    assert [p.eval_int(pt, den) for pt in ([2, 3], [1, 0], [0, 1])
            for den in (1, 4)] == [0, 0, 3, 3, -2, -2]
    assert len(calls) == 1
    assert q.eval_int([5]) == 25 and q.eval_int([5], 3) == 25
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# differential tests against sympy (skipped when sympy is absent)
# ---------------------------------------------------------------------------

SHAPES = [(7, 4, 0.1), (7, 4, 0.9), (4, 9, 0.1), (4, 9, 0.9),
          (12, 12, 0.1), (6, 6, 1.0), (3, 5, 0.0), (0, 5, 0.0)]


@pytest.fixture(scope="module")
def sp():
    return pytest.importorskip("sympy")


def random_rows(seed, nrows, ncols, density):
    """Seeded rational matrix; every other seed repeats a combination of
    two rows so that rank deficiency is exercised too."""
    rng = random.Random(seed)
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5))
             if rng.random() < density else Fraction(0)
             for _ in range(ncols)] for _ in range(nrows)]
    if seed % 2 and nrows > 2:
        rows[-1] = [a - 3 * b for a, b in zip(rows[0], rows[1])]
    return rows


def cases():
    return [pytest.param(seed, r, c, d, id=f"{r}x{c}-d{d}-s{seed}")
            for r, c, d in SHAPES for seed in range(4)]


def to_fraction(x):
    return Fraction(int(x.p), int(x.q))


def mat(rows, ncols):
    """RatMatrix of the rows, keeping the width when there are none."""
    return RatMatrix(rows) if rows else RatMatrix.zero(0, ncols)


def sym(sp, rows, ncols):
    """The sympy twin of ``mat(rows, ncols)``."""
    return sp.Matrix(rows) if rows else sp.zeros(0, ncols)


@pytest.mark.parametrize("seed,nrows,ncols,density", cases())
def test_rref_rank_kernel_match_sympy(sp, seed, nrows, ncols, density):
    rows = random_rows(seed, nrows, ncols, density)
    m = mat(rows, ncols)
    s = sym(sp, rows, ncols)
    red, pivots = rref(m)
    sred, spivots = s.rref()
    assert pivots == list(spivots)
    assert [list(r) for r in red.entries] == [
        [to_fraction(x) for x in r] for r in sred.tolist()]
    assert rank(m) == s.rank()
    assert kernel_basis(m) == [tuple(to_fraction(x) for x in v)
                               for v in s.nullspace()]


@pytest.mark.parametrize("seed,nrows,ncols,density", cases())
def test_solve_matches_sympy(sp, seed, nrows, ncols, density):
    rows = random_rows(seed, nrows, ncols, density)
    m = mat(rows, ncols)
    s = sym(sp, rows, ncols)
    rng = random.Random(seed + 100)
    # one right-hand side in the column space, one almost surely outside it
    x = [Fraction(rng.randint(-4, 4)) for _ in range(ncols)]
    for b in (list(m.matvec(x)),
              [Fraction(rng.randint(-4, 4), 3) for _ in range(nrows)]):
        sol = solve(m, b)
        try:
            ssol, params = s.gauss_jordan_solve(sp.Matrix(nrows, 1, b))
        except ValueError:
            assert sol is None
            continue
        want = ssol.subs({t: 0 for t in params})
        assert sol == tuple(to_fraction(v) for v in want)


@pytest.mark.parametrize("seed,nrows,ncols,density", cases())
def test_spans_and_matvec_match_sympy(sp, seed, nrows, ncols, density):
    rows = random_rows(seed, nrows, ncols, density)
    m = mat(rows, ncols)
    s = sym(sp, rows, ncols)
    rng = random.Random(seed + 200)
    inside = [sum((rows[i][j] * (i + 1) for i in range(nrows)), Fraction(0))
              for j in range(ncols)]
    outside = [Fraction(rng.randint(-4, 4)) for _ in range(ncols)]
    for v in (inside, outside):
        want = s.rank() == sp.Matrix(rows + [v]).rank()
        assert span_contains(rows, v) == want
    other = random_rows(seed + 1, nrows, ncols, density)
    for b in (other, [list(r) for r in rref(m)[0].entries] or other):
        mb = mat(b, ncols)
        sb = sym(sp, b, ncols)
        want = s.rank() == sb.rank() == s.col_join(sb).rank()
        assert row_space_equal(m, mb) == want
    v = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(ncols)]
    assert m.matvec(v) == tuple(to_fraction(x)
                                for x in s * sp.Matrix(ncols, 1, v))


def tall_sparse_rows(seed, nrows=224, ncols=64, density=0.04):
    """The shape of the derivation system of an 8-dimensional algebra: a
    seeded sparse matrix whose columns from ncols - 8 on are combinations
    of two earlier ones, so its kernel has dimension at least 8."""
    rng = random.Random(seed)
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5))
             if rng.random() < density else Fraction(0)
             for _ in range(ncols - 8)] for _ in range(nrows)]
    pairs = [rng.sample(range(ncols - 8), 2) for _ in range(8)]
    return [r + [r[a] - 2 * r[b] for a, b in pairs] for r in rows]


def huge_denominator_rows(seed, nrows=9, ncols=7):
    """Seeded dense rows with denominators up to 10^7, rank-deficient."""
    rng = random.Random(seed)
    rows = [[Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 7))
             for _ in range(ncols)] for _ in range(nrows - 3)]
    for k in range(3):
        c = Fraction(rng.randint(1, 10 ** 7), rng.randint(1, 10 ** 7))
        rows.append([x - c * y for x, y in zip(rows[k], rows[k + 1])])
    return rows


@pytest.mark.parametrize("make, seed", [
    (tall_sparse_rows, 0), (tall_sparse_rows, 1),
    (huge_denominator_rows, 0), (huge_denominator_rows, 1)],
    ids=["tall-sparse-s0", "tall-sparse-s1", "huge-denominators-s0",
         "huge-denominators-s1"])
def test_elimination_matches_sympy_on_large_inputs(sp, make, seed):
    """rref, rank, kernel_basis and row_space_equal against sympy on the
    shapes and entry sizes the kernel meets beyond the small cases."""
    rows = make(seed)
    ncols = len(rows[0])
    m, s = mat(rows, ncols), sym(sp, rows, ncols)
    red, pivots = rref(m)
    sred, spivots = s.rref()
    assert pivots == list(spivots) and len(pivots) < ncols
    assert [list(r) for r in red.entries] == [
        [to_fraction(x) for x in r] for r in sred.tolist()]
    assert rank(m) == len(spivots)
    assert kernel_basis(m) == [tuple(to_fraction(x) for x in v)
                               for v in s.nullspace()]
    assert row_space_equal(m, red)
    assert not row_space_equal(m, RatMatrix(red.entries[1:]))


@pytest.mark.parametrize("seed", range(4))
def test_solve_rows_with_several_right_hand_sides_matches_sympy(sp, seed):
    """``_solve_rows`` on one system with four right-hand sides, one of
    them inconsistent: each answer equals sympy's solution of that
    right-hand side alone, free variables 0 (None when sympy finds no
    solution)."""
    rng = random.Random(seed)
    nrows, ncols = 8, 6
    rows = random_rows(2 * seed + 1, nrows, ncols, 0.5)   # rank-deficient
    m = mat(rows, ncols)
    rhs = [list(m.matvec([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                          for _ in range(ncols)])) for _ in range(3)]
    rhs.insert(rng.randrange(4), [Fraction(rng.randint(1, 4), 3)] * nrows)
    aug = [{j: v for j, v in enumerate(r + [b[i] for b in rhs]) if v}
           for i, r in enumerate(rows)]
    got = exactmath._solve_rows(aug, ncols, len(rhs))
    s = sym(sp, rows, ncols)
    inconsistent = 0
    for b, sol in zip(rhs, got):
        try:
            ssol, params = s.gauss_jordan_solve(sp.Matrix(nrows, 1, b))
        except ValueError:
            assert sol is None
            inconsistent += 1
            continue
        want = [to_fraction(v) for v in ssol.subs({t: 0 for t in params})]
        assert sol == {j: v for j, v in enumerate(want) if v}
    assert inconsistent == 1


# ---------------------------------------------------------------------------
# poly_rref: the RREF basis of a span of polynomials
# ---------------------------------------------------------------------------

def random_polys(seed, count, nvars=3, degree=2, density=0.4):
    """Seeded polynomials of degree <= degree; odd seeds make the last one a
    combination of the first two."""
    rng = random.Random(seed)
    out = [Poly({m: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for m in monomials_up_to(nvars, degree)
                 if rng.random() < density})
           for _ in range(count)]
    if seed % 2 and count > 2:
        out[-1] = out[0] * 2 - out[1] * Fraction(1, 3)
    return out


def coefficient_rows(polys, support):
    return [[p.coefficient(m) for m in support] for p in polys]


def test_poly_rref_empty_and_zero():
    assert poly_rref([]) == []
    assert poly_rref([Poly.zero(), Poly.zero()], reverse=True) == []
    assert poly_rref([Poly.zero(), 2 * x(0)]) == [x(0)]


def test_poly_rref_example_orders():
    a = x(0) ** 2 + 2 * x(1)
    b = x(0) ** 2 - x(1) + 3
    # lowest first: the constant and x2 lead; highest first: x1^2 leads
    assert poly_rref([a, b]) == [1 + Fraction(1, 2) * x(0) ** 2,
                                 x(1) + Fraction(1, 2) * x(0) ** 2]
    assert poly_rref([a, b], reverse=True) == [x(0) ** 2 + 2,
                                               x(1) - 1]


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_poly_rref_depends_only_on_the_span(seed, reverse):
    polys = random_polys(seed, 4)
    basis = poly_rref(polys, reverse)
    rng = random.Random(seed + 300)
    shuffled = list(polys)
    rng.shuffle(shuffled)
    assert poly_rref(shuffled, reverse) == basis
    scaled = [p * Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
              for p in polys]
    assert poly_rref(scaled, reverse) == basis
    mixed = [p + polys[0] * (i + 1) for i, p in enumerate(polys[1:])]
    mixed = [polys[0]] + mixed + [Poly.zero(), polys[1] - polys[2]]
    assert poly_rref(mixed, reverse) == basis
    assert poly_rref(basis, reverse) == basis


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_poly_rref_pivots_lead_with_one(seed, reverse):
    basis = poly_rref(random_polys(seed, 5), reverse)
    pick = max if reverse else min
    pivots = [pick(p.terms, key=mono_key) for p in basis]
    assert len(set(pivots)) == len(pivots)
    for p, m in zip(basis, pivots):
        assert p.terms[m] == 1
        assert all(q.coefficient(m) == 0 for q in basis if q is not p)
    # pivots come in the order of the columns
    assert pivots == sorted(pivots, key=mono_key, reverse=reverse)


def _normalize_by_scaling(p):
    """``normalize_poly`` by its former formula: p times den/content, with
    the sign of the leading coefficient."""
    if p.is_zero():
        return p
    den = lcm(*(c.denominator for c in p.terms.values()))
    scale = Fraction(den, gcd(*(c.numerator * (den // c.denominator)
                                for c in p.terms.values())))
    return p * (-scale if p.leading()[1] < 0 else scale)


def kernel_inputs(seed):
    """Seeded polynomials with Fraction coefficients (dependent ones on odd
    seeds), with a zero and a constant polynomial mixed in."""
    polys = random_polys(seed, 3 + seed % 3, nvars=3 + seed % 2,
                         density=0.2 + 0.1 * (seed % 4))
    return polys + [Poly.zero(), Poly.const(Fraction(-4, 3)),
                    polys[0] * Fraction(-5, 2)]


@pytest.mark.parametrize("seed", range(10))
def test_poly_rref_normalized_is_the_normalized_rref(seed):
    polys = kernel_inputs(seed)
    want = [normalize_poly(p) for p in poly_rref(polys, reverse=True)]
    assert poly_rref_normalized(polys) == want
    assert [p.text() for p in poly_rref_normalized(polys)] == \
        [p.text() for p in want]
    assert poly_rref_normalized([]) == []
    assert poly_rref_normalized([Poly.zero()]) == []


@pytest.mark.parametrize("seed", range(10))
def test_normalize_poly_matches_scaling_and_keeps_normalized_input(seed):
    polys = kernel_inputs(seed) + [-x(0) * x(1) + Fraction(1, 2) * x(2)]
    for p in polys + [-p for p in polys]:
        n = normalize_poly(p)
        assert n == _normalize_by_scaling(p)
        assert n.text() == _normalize_by_scaling(p).text()
        assert normalize_poly(n) is n
        assert all(c.denominator == 1 for c in n.terms.values())
    z = Poly.zero()
    assert normalize_poly(z) is z
    v = x(2)
    assert normalize_poly(v) is v


@pytest.mark.parametrize("seed", range(8))
def test_poly_rref_rank_and_span_match_sympy(sp, seed):
    a = random_polys(seed, 1 + seed % 5, density=0.3 + 0.1 * (seed % 4))
    # a[:-1] spans the same space as a on odd seeds with three or more
    for b in (random_polys(seed + 1, len(a)), a[:-1]):
        support = sorted({m for p in a + b for m in p.terms}, key=mono_key)
        sa, sb = (sym(sp, coefficient_rows(q, support), len(support))
                  for q in (a, b))
        want = sa.rank() == sb.rank() == sa.col_join(sb).rank()
        for reverse in (False, True):
            assert len(poly_rref(a, reverse)) == sa.rank()
            assert len(poly_rref(b, reverse)) == sb.rank()
            assert (poly_rref(a, reverse) == poly_rref(b, reverse)) == want


def membership_system(seed):
    """Seeded generators in x1..x3 and targets: combinations of them (in
    the ideal at some bound), random cubics (mostly outside it), targets in
    x4 and x5, which no generator holds, and the zero polynomial."""
    rng = random.Random(seed)
    gens = [g for g in random_polys(seed, 2 + seed % 3, density=0.5)
            if not g.is_zero()]
    monos = [Poly({m: 1}) for m in monomials_up_to(3, 1)]
    inside = [sum((g * rng.choice(monos) * rng.randint(-3, 3) for g in gens),
                  Poly.zero()) for _ in range(2)]
    inside.append(sum((g * rng.randint(1, 3) for g in gens), Poly.zero()))
    outside = random_polys(seed + 100, 3, degree=3, density=0.3)
    extra = [gens[0] * x(3), x(4) * gens[-1] + inside[0], x(3),
             outside[0] + x(4) ** 2]
    targets = inside + outside + extra + [Poly.zero()]
    rng.shuffle(targets)
    return targets, gens


@pytest.mark.parametrize("bound", [0, 1, 2])
@pytest.mark.parametrize("seed", range(6))
def test_ideal_memberships_match_one_target_at_a_time(seed, bound):
    targets, gens = membership_system(seed)
    got = ideal_memberships(targets, gens, bound)
    assert got == [ideal_membership(t, gens, bound) for t in targets]
    assert None in got
    for t, cofs in zip(targets, got):
        if cofs is None:
            continue
        assert len(cofs) == len(gens)
        assert all(c.degree() <= bound for c in cofs)
        assert sum((c * g for c, g in zip(cofs, gens)), Poly.zero()) == t
    assert sum(c is not None for c in got) > 1 + bound


def test_ideal_memberships_make_one_solve(monkeypatch):
    sizes = []
    real = exactmath._solve_rows

    def counted(rows, ncols, nrhs=1):
        sizes.append(nrhs)
        return real(rows, ncols, nrhs)
    monkeypatch.setattr(exactmath, "_solve_rows", counted)
    targets, gens = membership_system(1)
    ideal_memberships(targets, gens, 1)
    assert sizes == [len(targets)]


@pytest.mark.parametrize("seed", range(8))
def test_poly_rref_contains_matches_the_rank(seed):
    polys = random_polys(seed, 1 + seed % 4, density=0.3)
    basis = poly_rref(polys)
    rng = random.Random(seed + 500)
    combos = [sum((p * rng.randint(-3, 3) for p in polys), Poly.zero())
              for _ in range(3)]
    candidates = (combos + [c + x(rng.randrange(3)) ** 2 for c in combos]
                  + random_polys(seed + 50, 3) + [Poly.zero(), x(0) ** 3])
    verdicts = []
    for p in candidates:
        want = len(poly_rref(polys + [p])) == len(basis)
        assert poly_rref_contains(basis, p) == want
        verdicts.append(want)
    assert True in verdicts and False in verdicts
    assert poly_rref_contains([], Poly.zero())
    assert not poly_rref_contains([], x(0))


def sympy_expr(sp, p, syms):
    return sp.Add(*(sp.Rational(c.numerator, c.denominator)
                    * sp.Mul(*(syms[v] ** e for v, e in m))
                    for m, c in p.terms.items()))


@pytest.mark.parametrize("seed", range(6))
def test_int_poly_matches_eval_and_sympy(sp, seed):
    """Same vanishing as ``Poly.eval`` (and sympy), and the same sign, on
    integer points with random zero patterns."""
    rng = random.Random(seed)
    syms = sp.symbols("x1:5")
    polys = random_polys(seed, 5, nvars=4, degree=3)
    # a linear factor through integer points makes zeros off the axes too
    polys += [p * (x(0) + x(1) - 1) for p in polys[:3]]
    polys += [-p for p in polys] + [Poly.zero(), Poly.const(Fraction(-2, 3))]
    assert any(p.leading()[1] < 0 for p in polys)
    signs = set()
    for p in polys:
        assert scale(p) > 0
        expr = sympy_expr(sp, p, syms)
        for _ in range(30):
            pt = [0] * 4
            for i in rng.sample(range(4), rng.randint(0, 4)):
                pt[i] = rng.randint(-3, 3)
            exact = p.eval(pt)
            want = to_fraction(expr.subs(dict(zip(syms, pt))))
            assert exact == want
            got = p.eval_int(pt)
            assert got == scale(p) * exact
            assert (got > 0) - (got < 0) == (want > 0) - (want < 0)
            signs.add((got > 0) - (got < 0))
    assert signs == {-1, 0, 1}


@pytest.mark.parametrize("seed", range(6))
def test_int_poly_homogenized_eval_matches_eval(seed):
    """``p.eval_int(q, den) == scale * den^d * p(q/den)`` for d = deg p
    on non-homogeneous polynomials with constant terms, constants and 0,
    at integer points q with denominators den from 1 to 12."""
    rng = random.Random(seed)
    polys = random_polys(seed, 6, nvars=4, degree=3, density=0.5)
    polys += [Poly.zero(), Poly.const(Fraction(-5, 3)), x(3) / 7 + 2]
    for p in polys:
        for _ in range(20):
            den = rng.randint(1, 12)
            pt = [rng.randint(-9, 9) for _ in range(4)]
            want = scale(p) * den ** p.degree() * p.eval(
                [Fraction(v, den) for v in pt])
            assert p.eval_int(pt, den) == want, (p, pt, den)
            if den == 1:
                assert p.eval_int(pt) == want


def test_int_poly_short_point_raises_missing_variable_like_eval():
    for p in (x(0) + x(5) * x(2), x(2) ** 2 - 1, x(1) * x(4) + x(3)):
        with pytest.raises(MissingVariable) as want:
            p.eval([1, 2])
        for den in (1, 3):
            with pytest.raises(MissingVariable) as got:
                p.eval_int([1, 2], den)
            assert str(got.value) == str(want.value)


@pytest.mark.parametrize("seed,nrows,ncols,density", cases())
def test_int_echelon_matches_rank(sp, seed, nrows, ncols, density):
    """``int_echelon`` on the integer rows of the seeded matrices (each row
    scaled by its own positive multiple, which keeps the rank) has as many
    pivot rows as sympy's rank (and ``rank``, which runs on it), each
    primitive and leading at its pivot column, spanning the input's row
    space by sympy's rank; the input rows are left as they were."""
    rows = random_rows(seed, nrows, ncols, density)
    want = sym(sp, rows, ncols).rank()
    assert rank(mat(rows, ncols)) == want
    ints = []
    for k, r in enumerate(rows):
        d = lcm(*(v.denominator for v in r)) * (k % 3 + 1)
        ints.append({j: int(v * d) for j, v in enumerate(r) if v})
    before = [dict(r) for r in ints]
    pivots = exactmath.int_echelon(ints)
    assert ints == before
    assert len(pivots) == want
    for c, r in pivots.items():
        assert min(r) == c and gcd(*r.values()) == 1
        assert all(type(v) is int for v in r.values())
    dense = [[r.get(j, 0) for j in range(ncols)] for r in pivots.values()]
    assert sym(sp, dense + rows, ncols).rank() == want


def _old_primitive(row):
    g = gcd(*row.values())
    return row if g < 2 else {j: v // g for j, v in row.items()}


def _old_cancel(row, p, c):
    """The cancel step that divides out the content after every step."""
    g = gcd(p[c], row[c])
    a, b = p[c] // g, row[c] // g
    new = {j: a * v for j, v in row.items()}
    for j, y in p.items():
        v = new.get(j, 0) - b * y
        if v:
            new[j] = v
        else:
            del new[j]
    return _old_primitive(new)


def _old_int_echelon(rows, ncols=float("inf"), spilled=None):
    """Forward elimination with every row kept primitive, the reference
    for ``int_echelon``, which makes only its pivot rows primitive."""
    pivots = {}
    for row in rows:
        row = _old_primitive(row)
        while row:
            c = min(row)
            p = pivots.get(c)
            if p is None:
                if c >= ncols:
                    spilled.update(row)
                else:
                    pivots[c] = row
                break
            row = _old_cancel(row, p, c)
    return pivots


def _old_gauss_jordan(rows, ncols=float("inf"), spilled=None):
    pivots = _old_int_echelon(rows, ncols, spilled)
    cols = sorted(pivots)
    for c in reversed(cols):
        row = pivots[c]
        for j in [j for j in row if j != c and j in pivots]:
            row = _old_cancel(row, pivots[j], j)
        pivots[c] = row
    return [{j: Fraction(v, pivots[c][c]) for j, v in pivots[c].items()}
            for c in cols], cols


def big_int_rows(seed):
    """Seeded integer SparseRows, up to 12 x 16 with entries up to 10^6
    in absolute value; every other seed repeats a combination of two rows
    (rank deficiency), and every third scales a row by a common factor."""
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 12), rng.randint(1, 16)
    density = rng.choice([0.15, 0.4, 1.0])
    rows = [{j: rng.randint(-10 ** 6, 10 ** 6) for j in range(ncols)
             if rng.random() < density} for _ in range(nrows)]
    if seed % 2 and nrows > 2:
        rows[-1] = {j: 3 * rows[0].get(j, 0) - 5 * rows[1].get(j, 0)
                    for j in range(ncols)}
    if seed % 3 == 0:
        rows[0] = {j: 12 * v for j, v in rows[0].items()}
    return [{j: v for j, v in r.items() if v} for r in rows], ncols


def test_pivot_only_content_keeps_the_old_pivots():
    """``int_echelon`` and ``_gauss_jordan`` give the same pivot rows, the
    same reduced rows and the same spilled columns as the elimination that
    makes every intermediate row primitive, with and without a column
    limit ``ncols``; so do the same rows scaled by positive factors.  The
    input rows are left as they were."""
    spills = 0
    for seed in range(60):
        rows, ncols = big_int_rows(seed)
        before = [dict(r) for r in rows]
        scaled = [{j: (k % 4 + 1) * v for j, v in r.items()}
                  for k, r in enumerate(rows)]
        for limit in (float("inf"), random.Random(seed).randint(0, ncols)):
            want_spilled = set()
            want = _old_int_echelon(rows, limit, want_spilled)
            for given_rows in (rows, scaled):
                got_spilled = set()
                assert exactmath.int_echelon(given_rows, limit,
                                             got_spilled) == want
                assert got_spilled == want_spilled
                got_spilled = set()
                assert exactmath._gauss_jordan(given_rows, limit,
                                               got_spilled) == \
                    _old_gauss_jordan(rows, limit, set())
                assert got_spilled == want_spilled
            spills += bool(want_spilled)
        assert rows == before
    assert spills >= 10


@pytest.mark.parametrize("seed", range(16))
def test_gauss_jordan_matches_sympy_on_large_entries(sp, seed):
    """The reduced rows and pivot columns of ``_gauss_jordan`` on the
    large-entry integer rows are sympy's rref, zero rows dropped."""
    rows, ncols = big_int_rows(seed)
    red, pivots = exactmath._gauss_jordan(rows)
    sred, spivots = sp.Matrix([[r.get(j, 0) for j in range(ncols)]
                               for r in rows]).rref()
    assert pivots == list(spivots)
    assert [[r.get(j, 0) for j in range(ncols)] for r in red] == [
        [to_fraction(v) for v in sred.row(i)] for i in range(len(pivots))]
