"""Derivation algebras, lifts, fundamental fields, orbit dimensions."""

import random
from fractions import Fraction

import pytest

from darbouxlie.derivations import (_rank_at_ints,
                                    derivation_basis, field_columns,
                                    fundamental_fields, lift, orbit_dim,
                                    rank_at, vf_apply)
from darbouxlie.exactmath import Poly, RatMatrix, rank
from darbouxlie.grassmann import MultiVector, blades, wedge
from darbouxlie.liealg import FAMILIES, abelian, catalog
from oracles import commutator, span_contains

x = Poly.var

EXPECTED_DER_DIM = {
    "s1": 6, "s2": 6, "s3": 6, "s4": 6, "s5": 6, "s6": 5, "s7": 5,
    "s8": 5, "s9": 5, "s10": 5, "s11": 5, "s12": 4, "n1": 7,
}

PARAMS = {
    "s3": dict(alpha=Fraction(1, 2), beta=Fraction(1, 3)),
    "s4": dict(alpha=Fraction(3)),
    "s5": dict(alpha=Fraction(1), beta=Fraction(-1, 2)),
    "s8": dict(alpha=Fraction(1, 2)),
    "s9": dict(alpha=Fraction(2)),
}


def test_derivation_dimensions():
    for fam, dim in EXPECTED_DER_DIM.items():
        g = catalog(fam, **PARAMS.get(fam, {}))
        assert len(derivation_basis(g)) == dim, fam
    # enlarged special members
    assert len(derivation_basis(catalog("s8", alpha=1))) == 7
    assert len(derivation_basis(catalog("s3", alpha=1, beta=1))) == 12


def test_derivations_satisfy_leibniz():
    from darbouxlie.liealg import bracket
    for fam in ("s1", "s6", "s12", "n1"):
        g = catalog(fam)
        for d in derivation_basis(g):
            for i in range(4):
                for j in range(i + 1, 4):
                    ei = [1 if k == i else 0 for k in range(4)]
                    ej = [1 if k == j else 0 for k in range(4)]
                    lhs = d.matvec(bracket(g, ei, ej))
                    rhs = [a + b for a, b in zip(
                        bracket(g, d.col(i), ej), bracket(g, ei, d.col(j)))]
                    assert list(lhs) == rhs


def test_abelian_derivations():
    assert len(derivation_basis(abelian(3))) == 9


def test_inner_derivations_in_span():
    for fam in FAMILIES:
        g = catalog(fam, **PARAMS.get(fam, {}))
        basis = [d.flat() for d in derivation_basis(g)]
        for i in range(4):
            # ad e_i: its column j is [e_i, e_j] = sum_k c[i][j][k] e_k
            ad = RatMatrix([[g.c[i][j][k] for j in range(4)]
                            for k in range(4)])
            assert span_contains(basis, ad.flat()), fam


def test_derivation_closure_under_commutator():
    for fam in FAMILIES:
        g = catalog(fam, **PARAMS.get(fam, {}))
        ders = derivation_basis(g)
        basis = [d.flat() for d in ders]
        for a in ders:
            for b in ders:
                assert span_contains(basis, commutator(a, b).flat()), fam


def test_lift_identity_and_zero():
    d = RatMatrix.identity(4)
    X = lift(d, 2)
    assert X == RatMatrix.identity(6).scale(2)
    assert lift(RatMatrix.zero(4, 4), 2).is_zero()


def test_lift_paper_field_s1():
    # the derivation with a single diagonal parameter lifts to the field
    # 2 x1 d1 + x2 d2 + x3 d3 + x4 d4 + x5 d5
    d = RatMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    X = lift(d, 2)
    diag = [X[i, i] for i in range(6)]
    assert diag == [2, 1, 1, 1, 1, 0]
    assert all(X[i, j] == 0 for i in range(6) for j in range(6)
               if i != j)


def test_lift_leibniz_randomized():
    rng = random.Random(13)
    for _ in range(25):
        d = RatMatrix([[rng.randint(-2, 2) for _ in range(4)]
                       for _ in range(4)])
        X = lift(d, 2)
        u = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        w = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        uw = wedge(MultiVector.vector(4, u), MultiVector.vector(4, w))
        lhs = MultiVector.from_coords(4, 2, X.matvec(uw.coords()))
        rhs = wedge(MultiVector.vector(4, d.matvec(u)),
                    MultiVector.vector(4, w)) + \
            wedge(MultiVector.vector(4, u),
                  MultiVector.vector(4, d.matvec(w)))
        assert lhs == rhs


def test_lift_reads_only_the_integer_form():
    """``lift`` works on the integer form of d: for a d given by its ints,
    neither d nor Λ²d builds its Fractions.  With d = diag(1/2, 3/2, -1/2,
    0), Λ²d is diagonal with d_i + d_j at e_ij."""
    d = RatMatrix.from_ints(2, [[(0, 1)], [(1, 3)], [(2, -1)], []], 4)
    X = lift(d, 2)
    for m in (d, X):
        with pytest.raises(AttributeError):
            RatMatrix._entries.__get__(m)
    assert (X.den, X.ints) == (2, (((0, 4),), (), ((2, 1),), ((3, 2),),
                                   ((4, 3),), ((5, -1),)))


def test_fundamental_fields_span_displayed_s1():
    g = catalog("s1")
    fields = fundamental_fields(g, 2)
    assert len(fields) == 6
    displayed = [
        {(0, 0): 2, (1, 1): 1, (2, 2): 1, (3, 3): 1, (4, 4): 1},
        {(1, 3): 1, (2, 4): 1},
        {(0, 4): -1, (1, 5): -1},
        {(0, 2): 1, (3, 5): -1},
        {(1, 1): 1, (3, 3): 1, (5, 5): 1},
        {(1, 2): 1, (3, 4): 1},
    ]
    want = []
    for entries in displayed:
        m = [[Fraction(0)] * 6 for _ in range(6)]
        for (i, j), c in entries.items():
            m[i][j] = Fraction(c)
        want.append(RatMatrix(m).flat())
    got = [X.flat() for X in fields]
    from darbouxlie.exactmath import row_space_equal
    assert row_space_equal(RatMatrix(want), RatMatrix(got))


def test_orbit_dims_s1():
    g = catalog("s1")
    assert orbit_dim(g, MultiVector.blade(4, [0, 1])) == 1
    w = MultiVector.blade(4, [0, 1]) + MultiVector.blade(4, [2, 3])
    assert orbit_dim(g, w) == 4
    assert orbit_dim(g, MultiVector.zero(4, 2)) == 0


def test_vf_apply():
    g = catalog("s1")
    fields = fundamental_fields(g, 2)
    # X with matrix diag(2,1,1,1,1,0) acts on x3 x4 as multiplication by 2
    d = RatMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert vf_apply(lift(d, 2), x(2) * x(3)) == 2 * x(2) * x(3)
    # the paper's X5 = x2 d2 + x4 d4 + x6 d6 kills x5^2
    X5 = next(X for X in fields
              if X[1, 1] == 1 and X[3, 3] == 1
              and X[5, 5] == 1)
    assert vf_apply(X5, x(4) ** 2).is_zero()
    # Euler identity: the identity field scales degree-d by d
    euler = lift(RatMatrix.identity(4), 2)
    assert euler == RatMatrix.identity(6).scale(2)
    f = 3 * x(0) * x(5) - x(2) * x(3)
    assert vf_apply(euler, f) == 4 * f  # Euler scales deg 2 by 2, doubled


def _random_poly(rng, n):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        vs = rng.sample(range(n), rng.randint(0, min(n, 3)))
        mono = tuple(sorted((v, rng.randint(1, 3)) for v in vs))
        terms[mono] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Poly(terms)


@pytest.mark.parametrize("seed", range(4))
def test_vf_apply_matches_sympy(seed):
    # oracle: sum_a (A x)_a df/dx_a expanded by sympy
    sp = pytest.importorskip("sympy")
    rng = random.Random(seed)
    for n in range(1, 9):
        xs = sp.symbols(f"y0:{n}")

        def to_sympy(p):
            return sum((sp.Rational(c.numerator, c.denominator)
                        * sp.Mul(*(xs[v] ** e for v, e in m))
                        for m, c in p.terms.items()), sp.Integer(0))

        A = RatMatrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                        if rng.random() < 0.3 else 0 for _ in range(n)]
                       for _ in range(n)])
        Ax = [sum((sp.Rational(A[a, b].numerator, A[a, b].denominator)
                   * xs[b] for b in range(n)), sp.Integer(0))
              for a in range(n)]
        for f in [Poly.zero(), Poly.const(Fraction(-7, 3))] + [
                _random_poly(rng, n) for _ in range(4)]:
            got = vf_apply(A, f)
            want = sum((Ax[a] * sp.diff(to_sympy(f), xs[a])
                        for a in range(n)), sp.Integer(0))
            assert sp.expand(to_sympy(got) - want) == 0
            # canonical form: no stored zeros, sorted positive exponents
            assert all(got.terms.values())
            assert all(m == tuple(sorted(m)) and all(e > 0 for _, e in m)
                       for m in got.terms)
    # terms that cancel are dropped: a rotation fixes x1^2 + x2^2
    rot = RatMatrix([[0, -1], [1, 0]])
    assert vf_apply(rot, x(0) ** 2 + x(1) ** 2).terms == {}


def field_matrix_at(fields, p) -> RatMatrix:
    """M(p): row i holds the coefficients of field i at the point p, by
    Fraction ``matvec``; the rank oracle for ``rank_at``."""
    return RatMatrix([X.matvec(p) for X in fields])


def test_rank_at_matches_field_matrix():
    g = catalog("s1")
    fields = fundamental_fields(g, 2)
    p = [0, 0, 0, 0, 0, 1]
    assert rank(field_matrix_at(fields, p)) == rank_at(fields, p) == 3


def test_rank_count_edge_cases():
    """The zero point has rank 0, an empty field list has rank 0 at any
    point, and a point of the wrong length is refused with the text of
    ``matvec``, also through the column map."""
    fields = fundamental_fields(catalog("s1"), 2)
    cols = field_columns(fields)
    assert rank_at(fields, [0] * 6) == _rank_at_ints(cols, [0] * 6) == 0
    assert rank(field_matrix_at(fields, [0] * 6)) == 0
    assert rank_at([], [1, 2, 3]) == rank_at([], []) == 0
    assert _rank_at_ints(field_columns([]), [5, 0, 7]) == 0
    for p in ([1, 2, 3], [1] * 7, []):
        msg = f"^matvec size mismatch: 6 vs {len(p)}$"
        with pytest.raises(ValueError, match=msg):
            rank_at(fields, p)
        with pytest.raises(ValueError, match=msg):
            _rank_at_ints(cols, p)
        with pytest.raises(ValueError, match=msg):
            field_matrix_at(fields, p)
    # fields of two widths: the first field whose width differs is named
    mixed = [RatMatrix.identity(2),
             *fields]
    with pytest.raises(ValueError, match="^matvec size mismatch: 2 vs 6$"):
        rank_at(mixed, [1] * 6)
    with pytest.raises(ValueError, match="^matvec size mismatch: 6 vs 2$"):
        rank_at(mixed, [1] * 2)


def test_fundamental_fields_abelian_full_gl_image():
    # oracle: lift each elementary matrix separately and compare spans
    g = abelian(4)
    fields = fundamental_fields(g, 2)
    elementary = []
    for i in range(4):
        for j in range(4):
            m = [[1 if (r, c) == (i, j) else 0 for c in range(4)]
                 for r in range(4)]
            elementary.append(lift(RatMatrix(m), 2).flat())
    got = [X.flat() for X in fields]
    from darbouxlie.exactmath import row_space_equal
    assert row_space_equal(RatMatrix(elementary), RatMatrix(got))
    assert rank(RatMatrix(got)) == 16


def sympy_rank(sp, m: RatMatrix) -> int:
    """Rank of the matrix by sympy: an oracle outside ``exactmath``."""
    return sp.Matrix(m.rows, m.cols, [sp.Rational(x.numerator, x.denominator)
                                      for x in m.flat()]).rank()


@pytest.mark.parametrize("fam", sorted(EXPECTED_DER_DIM))
def test_rank_at_matches_field_matrix_at_mixed_denominators(fam):
    """The integer ``rank_at`` against sympy's rank of the matrix M(p) (and
    ``rank``, which runs the same elimination kernel) at seeded points
    whose coordinates carry different denominators (and random zero
    patterns, where the rank drops), for every catalog algebra and the
    enlarged s3 and s8 members."""
    sp = pytest.importorskip("sympy")
    rng = random.Random(fam)
    algebras = [catalog(fam, **PARAMS.get(fam, {}))]
    if fam in ("s3", "s8"):
        algebras.append(catalog(fam, **{k: 1 for k in PARAMS[fam]}))
    seen = set()
    for g in algebras:
        fields = fundamental_fields(g, 2)
        for _ in range(40):
            p = [Fraction(0)] * 6
            for i in rng.sample(range(6), rng.randint(0, 6)):
                p[i] = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]),
                                rng.choice([1, 2, 3, 4, 7, 9]))
            k = rank_at(fields, p)
            m = field_matrix_at(fields, p)
            assert k == rank(m) == sympy_rank(sp, m), (fam, p)
            seen.add(k)
    assert len(seen) >= 2
