"""Exact linear algebra and polynomial substrate."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darbouxlie.exactmath import (MissingVariable, Poly, RatMatrix,
                                  ideal_membership, kernel_basis,
                                  normalize_poly, poly_eval, rank, rref,
                                  row_space_equal, solve, span_contains)

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
    assert poly_eval(x(2) * x(3), {2: 1, 3: 0}) == 0
    assert poly_eval(x(4) ** 2, {4: 3}) == 9
    p = 2 * x(0) * x(5) + 3 * x(2) * x(3)
    assert poly_eval(p, {0: 1, 5: 1, 2: 2, 3: 1}) == 8


def test_poly_eval_missing_variable():
    with pytest.raises(MissingVariable):
        poly_eval(x(0) + x(3), {0: 1})


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


def sym(sp, rows, ncols):
    """The sympy twin of RatMatrix(rows); a RatMatrix without rows also has
    no columns, so pass its ``cols``."""
    return sp.Matrix(rows) if rows else sp.zeros(0, ncols)


@pytest.mark.parametrize("seed,nrows,ncols,density", cases())
def test_rref_rank_kernel_match_sympy(sp, seed, nrows, ncols, density):
    rows = random_rows(seed, nrows, ncols, density)
    m = RatMatrix(rows)
    s = sym(sp, rows, m.cols)
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
    m = RatMatrix(rows)
    s = sym(sp, rows, m.cols)
    rng = random.Random(seed + 100)
    # one right-hand side in the column space, one almost surely outside it
    x = [Fraction(rng.randint(-4, 4)) for _ in range(ncols)]
    for b in (list(m.matvec(x)) if nrows else [],
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
    m = RatMatrix(rows)
    s = sym(sp, rows, m.cols)
    rng = random.Random(seed + 200)
    inside = [sum((rows[i][j] * (i + 1) for i in range(nrows)), Fraction(0))
              for j in range(ncols)]
    outside = [Fraction(rng.randint(-4, 4)) for _ in range(ncols)]
    for v in (inside, outside):
        want = s.rank() == sp.Matrix(rows + [v]).rank()
        assert span_contains(rows, v) == want
    other = random_rows(seed + 1, nrows, ncols, density)
    for b in (other, [list(r) for r in rref(m)[0].entries] or other):
        mb = RatMatrix(b)
        sb = sym(sp, b, mb.cols)
        want = s.rank() == sb.rank() == s.col_join(sb).rank()
        assert row_space_equal(m, mb) == want
    if nrows:
        v = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
             for _ in range(ncols)]
        assert m.matvec(v) == tuple(to_fraction(x)
                                    for x in s * sp.Matrix(ncols, 1, v))
