"""The per-algebra kernels built on the integer table D·c, against sympy.

``derivation_basis``, ``invariants``, ``center`` and ``generic_rr`` solve
their systems in ``int`` arithmetic after scaling the structure constants
by the lcm D of their denominators.  Here each is compared with sympy on
algebras whose constants have pairwise-coprime denominators, so that D is
large: almost-abelian algebras with a fractional matrix, so(3) + R^k, s3,
s5 and small solvable algebras in rational bases, and abelian algebras,
whose systems have only zero rows.  The oracles build their systems from
the structure constants with sympy expressions and index tuples sorted by
parity, not with the package's bitmask formulas, and sympy's nullspace
normalises each vector to 1 at its free coordinate, as the package does.
"""

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from darbouxlie.derivations import derivation_basis
from darbouxlie.grassmann import MultiVector, generic_rr, invariants, schouten
from darbouxlie.liealg import (LieAlgebra, abelian, catalog, center,
                               from_brackets, validate)

sp = pytest.importorskip("sympy")

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _fraction(x) -> Fraction:
    x = sp.Rational(x)
    return Fraction(int(x.p), int(x.q))


def almost_abelian(seed: int, n: int) -> LieAlgebra:
    """R x_A R^(n-1): [e_i, e_n] = -A e_i, half the entries of A nonzero,
    each over its own prime denominator."""
    rng = random.Random(seed)
    m = n - 1
    cells = rng.sample(range(m * m), max(1, m * m // 2))
    a = [[Fraction(0)] * m for _ in range(m)]
    for t, cell in enumerate(cells):
        a[cell // m][cell % m] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                                          PRIMES[t % len(PRIMES)])
    return from_brackets(n, {(i, m): [-a[j][i] for j in range(m)] + [0]
                             for i in range(m)}, name=f"aa{n}-{seed}")


def in_basis(g: LieAlgebra, seed: int) -> LieAlgebra:
    """g in the basis f_i = sum_a P[a][i] e_a for a seeded unit upper
    triangular P with n entries above the diagonal (fewer for n < 4), each
    over its own prime, and its rows permuted."""
    rng = random.Random(seed)
    n = g.dim
    p = sp.eye(n)
    upper = list(itertools.combinations(range(n), 2))
    for (i, j), prime in zip(rng.sample(upper, min(n, len(upper))), PRIMES):
        p[i, j] = sp.Rational(rng.choice((-2, -1, 1, 2)), prime)
    perm = list(range(n))
    rng.shuffle(perm)
    p = p.extract(perm, list(range(n)))
    pinv = p.inv()
    c = [[[sp.Rational(x.numerator, x.denominator) for x in row]
          for row in plane] for plane in g.c]
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            v = sp.Matrix([sum(p[a, i] * p[b, j] * c[a][b][k]
                               for a in range(n) for b in range(n))
                           for k in range(n)])
            brackets[(i, j)] = [_fraction(x) for x in pinv * v]
    out = from_brackets(n, brackets, name=f"{g.name}@P{seed}")
    assert not validate(out)
    return out


def so3_plus_abelian(n: int, seed: int) -> LieAlgebra:
    so3 = from_brackets(n, {(0, 1): [0, 0, 1] + [0] * (n - 3),
                            (1, 2): [1, 0, 0] + [0] * (n - 3),
                            (0, 2): [0, -1, 0] + [0] * (n - 3)},
                        name=f"so3+R{n - 3}")
    return in_basis(so3, seed)


ALGEBRAS = [
    abelian(1),
    in_basis(from_brackets(2, {(0, 1): [Fraction(3, 7), 0]}, name="r2"), 0),
    so3_plus_abelian(3, 1),
    in_basis(catalog("s3", alpha=Fraction(7, 11), beta=Fraction(-3, 13)), 2),
    in_basis(catalog("s5", alpha=Fraction(5, 7), beta=Fraction(-2, 9)), 3),
    almost_abelian(4, 5),
    abelian(5),
    so3_plus_abelian(6, 5),
    almost_abelian(6, 7),
    so3_plus_abelian(8, 7),
    almost_abelian(8, 8),
]


def test_the_algebras_cover_dims_1_to_8_with_large_denominators():
    assert sorted({g.dim for g in ALGEBRAS}) == list(range(1, 9))
    dens = {g.name: g.int_table[0] for g in ALGEBRAS if g.dim > 2
            and any(x for p in g.c for r in p for x in r)}
    assert len(dens) == 8 and all(d >= 2 * 3 * 5 for d in dens.values()), dens


def test_int_table_is_d_times_the_constants():
    for g in ALGEBRAS:
        d, c = g.int_table
        assert d == lcm(*(x.denominator for p in g.c for r in p for x in r))
        assert all(c[i][j][k] == d * g.c[i][j][k] and type(c[i][j][k]) is int
                   for i, j, k in itertools.product(range(g.dim), repeat=3))


def _constants(g: LieAlgebra):
    return [[[sp.QQ(x.numerator, x.denominator) for x in row] for row in plane]
            for plane in g.c]


def _bracket(c, u, v):
    n = len(u)
    return [sum((u[i] * v[j] * c[i][j][k] for i in range(n) for j in range(n)
                 if u[i] and v[j] and c[i][j][k]), sp.QQ(0))
            for k in range(n)]


def _linear_rows(eqs, ncols):
    """The coefficient rows of linear forms in the generators of a
    ``sympy.ring``, as sympy Rationals."""
    rows = []
    for eq in filter(None, eqs):    # a zero form may be a plain 0
        row = [sp.Integer(0)] * ncols
        for monom, coef in eq.terms():
            row[monom.index(1)] = sp.QQ.to_sympy(coef)
        rows.append(row)
    return rows


def _nullspace(rows, ncols):
    m = sp.Matrix(rows) if rows else sp.zeros(1, ncols)
    return [tuple(_fraction(x) for x in v) for v in m.nullspace()]


def _sorted_blade(idx):
    """(sign, sorted tuple) of a wedge of basis indices; sign 0 on a repeat."""
    if len(set(idx)) < len(idx):
        return 0, None
    inversions = sum(1 for a, b in itertools.combinations(idx, 2) if a > b)
    return (-1) ** inversions, tuple(sorted(idx))


@pytest.mark.parametrize("g", ALGEBRAS, ids=lambda g: g.name)
def test_derivation_basis_matches_sympy(g):
    n = g.dim
    c = _constants(g)
    _, *unknowns = sp.ring(f"d0:{n * n}", sp.QQ)
    d = [unknowns[r * n:(r + 1) * n] for r in range(n)]   # d(e_j) = col j
    e = [[int(k == i) for k in range(n)] for i in range(n)]
    col = [[d[i][j] for i in range(n)] for j in range(n)]
    eqs = []
    for i in range(n):
        for j in range(i + 1, n):
            bij = _bracket(c, e[i], e[j])
            lhs = [sum((d[k][m] * bij[m] for m in range(n) if bij[m]),
                       sp.QQ(0)) for k in range(n)]
            rhs = [a + b for a, b in zip(_bracket(c, col[i], e[j]),
                                         _bracket(c, e[i], col[j]))]
            eqs += [x - y for x, y in zip(lhs, rhs)]
    want = _nullspace(_linear_rows(eqs, n * n), n * n)
    assert [d.flat() for d in derivation_basis(g)] == want


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("g", ALGEBRAS, ids=lambda g: g.name)
def test_invariants_match_sympy(g, m):
    n = g.dim
    if m > n:
        assert invariants(g, m) == []
        return
    c = _constants(g)
    bl = list(itertools.combinations(range(n), m))
    pos = {b: p for p, b in enumerate(bl)}
    rows = []
    for i in range(n):
        # ad e_i on e_J replaces each e_j by [e_i, e_j] (a derivation)
        block = [[sp.QQ(0)] * len(bl) for _ in bl]
        for s, blade in enumerate(bl):
            for t, j in enumerate(blade):
                for k in range(n):
                    sign, key = _sorted_blade(blade[:t] + (k,) + blade[t + 1:])
                    if sign and c[i][j][k]:
                        block[pos[key]][s] += sign * c[i][j][k]
        rows += [[sp.QQ.to_sympy(x) for x in r] for r in block]
    want = _nullspace(rows, len(bl))
    assert [v.coords() for v in invariants(g, m)] == want


@pytest.mark.parametrize("g", ALGEBRAS, ids=lambda g: g.name)
def test_center_matches_sympy(g):
    n = g.dim
    c = _constants(g)
    _, *v = sp.ring(f"v0:{n}", sp.QQ)
    eqs = [x for j in range(n)
           for x in _bracket(c, v, [int(k == j) for k in range(n)])]
    assert center(g) == _nullspace(_linear_rows(eqs, n), n)


def _generic_rr_oracle(g: LieAlgebra, x):
    """[r, r] for r = sum_a x_a e_B(a) by the hat-omission expansion over
    all ordered pairs of terms, as {degree-3 index tuple: ring element}."""
    c = _constants(g)
    bl = list(itertools.combinations(range(g.dim), 2))
    out = {}
    for (a, A), (b, B) in itertools.product(enumerate(bl), repeat=2):
        for p, q in itertools.product(range(2), repeat=2):
            for k in range(g.dim):
                if not c[A[p]][B[q]][k]:
                    continue
                sign, key = _sorted_blade((k, A[1 - p], B[1 - q]))
                if sign:
                    out[key] = (out.get(key, 0) + (-1) ** (p + q) * sign
                                * c[A[p]][B[q]][k] * x[a] * x[b])
    return out


@pytest.mark.parametrize("g", [g for g in ALGEBRAS if g.dim >= 3],
                         ids=lambda g: g.name)
def test_generic_rr_and_schouten_match_sympy(g):
    n = g.dim
    nb = n * (n - 1) // 2
    ring, *x = sp.ring(f"x0:{nb}", sp.QQ)
    want = _generic_rr_oracle(g, x)
    got = generic_rr(g)
    b3 = list(itertools.combinations(range(n), 3))
    assert len(got) == len(b3)
    for key, p in zip(b3, got):
        mine = sum((sp.QQ(coef.numerator, coef.denominator)
                    * ring.mul(*(x[v] ** e for v, e in mono))
                    for mono, coef in p.terms.items()), ring.zero)
        assert mine == want.get(key, ring.zero), key
    # one bivector with a coordinate over each of the first primes
    w = [Fraction(1 + a % 3, PRIMES[a % len(PRIMES)]) for a in range(nb)]
    at = [sp.QQ(y.numerator, y.denominator) for y in w]
    rr = schouten(g, *[MultiVector.from_coords(n, 2, w)] * 2)
    assert rr.coords() == tuple(
        _fraction(sp.QQ.to_sympy(want[k](*at)) if k in want else 0)
        for k in b3)
