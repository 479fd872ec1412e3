"""Catalog algebras, bracket arithmetic and exact validation."""

import random
from fractions import Fraction

import pytest

from darbouxlie.liealg import (DimensionMismatch, FAMILIES, LieAlgebra,
                               ParamOutOfRange, abelian, bracket, catalog,
                               center, from_brackets, parse_algebra, validate)

E = [[1 if i == j else 0 for j in range(4)] for i in range(4)]


def sample_params(family, rng=None):
    if family == "s3":
        return dict(alpha=Fraction(1, 2), beta=Fraction(1, 3))
    if family == "s4":
        return dict(alpha=Fraction(3))
    if family == "s5":
        return dict(alpha=Fraction(1), beta=Fraction(-1, 2))
    if family == "s8":
        return dict(alpha=Fraction(1, 2))
    if family == "s9":
        return dict(alpha=Fraction(2))
    return {}


def test_catalog_brackets_s1():
    g = catalog("s1")
    assert bracket(g, E[1], E[3]) == (-1, 0, 0, 0)
    assert bracket(g, E[2], E[3]) == (0, 0, -1, 0)
    assert g.c[0][1] == (0, 0, 0, 0)


def test_catalog_brackets_s3_s6_n1():
    g3 = catalog("s3", alpha=1, beta=1)
    for i in range(3):
        assert bracket(g3, E[i], E[3]) == tuple(
            -1 if k == i else 0 for k in range(4))
    g6 = catalog("s6")
    assert bracket(g6, E[1], E[2]) == (1, 0, 0, 0)
    n1 = catalog("n1")
    assert bracket(n1, E[1], E[3]) == (1, 0, 0, 0)
    assert bracket(n1, E[2], E[3]) == (0, 1, 0, 0)


def test_bracket_antisymmetry_on_vectors():
    g = catalog("s7")
    v = [Fraction(1, 2), 3, -2, Fraction(5, 7)]
    assert bracket(g, v, v) == (0, 0, 0, 0)


def test_validate_catalog_and_abelian():
    for fam in FAMILIES:
        g = catalog(fam, **sample_params(fam))
        assert validate(g) == [], fam
    assert validate(abelian(5)) == []


def test_validate_detects_jacobi_failure():
    g = from_brackets(3, {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0]})
    assert validate(g) != []


def _dense_from_brackets(dim, brackets):
    """The structure constants by the dense formula: every entry of every
    given vector written, zeros included."""
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), vec in brackets.items():
        for k, v in enumerate(vec):
            c[i][j][k] = Fraction(v)
            c[j][i][k] = -Fraction(v)
    return tuple(tuple(tuple(row) for row in plane) for plane in c)


@pytest.mark.parametrize("seed", range(4))
def test_from_brackets_matches_the_dense_formula(seed):
    """Sparse bracket vectors of mixed entry types, short vectors, and a
    pair given both ways (the later vector wins, zeros included) give the
    constants of the dense formula."""
    rng = random.Random(seed)
    n = 3 + seed
    brackets = {(i, j): [rng.choice([0, 0, 0, 2, Fraction(-1, 3), "5/2"])
                         for _ in range(rng.randint(1, n))]
                for i in range(n) for j in range(i + 1, n)}
    brackets[(1, 0)] = [0, 1]
    g = from_brackets(n, brackets)
    assert g.c == _dense_from_brackets(n, brackets)
    assert g.c[0][1][:2] == (0, -1)


def test_from_brackets_rejects_bad_entries_and_long_vectors():
    with pytest.raises(TypeError):
        from_brackets(3, {(0, 1): [0, 0.5, 0]})
    with pytest.raises(ValueError):
        from_brackets(3, {(0, 1): ["x", 0, 0]})
    with pytest.raises(ZeroDivisionError):
        from_brackets(3, {(0, 1): [0, "1/0", 0]})
    with pytest.raises(DimensionMismatch, match="4 coordinates"):
        from_brackets(3, {(0, 1): [0, 0, 1, 0]})


def _dense_validate(g):
    """The violation list by the dense formula: every product
    c[i][j][m]*c[m][k][l], zeros included."""
    n, c = g.dim, g.c
    bad = [f"antisymmetry fails at c[{i+1}][{j+1}][{k+1}]"
           for i in range(n) for j in range(n) for k in range(n)
           if c[i][j][k] != -c[j][i][k]]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(n):
                    s = sum((c[i][j][m] * c[m][k][l] + c[j][k][m] * c[m][i][l]
                             + c[k][i][m] * c[m][j][l] for m in range(n)),
                            Fraction(0))
                    if s:
                        bad.append(f"Jacobi fails on (e{i+1},e{j+1},e{k+1}) "
                                   f"in e{l+1}: {s}")
    return bad


@pytest.mark.parametrize("seed", range(5))
def test_validate_matches_the_dense_formula(seed):
    """The full violation list, messages and order, equals the dense
    formula's on random bracket tables of dimension 4..8 (each fails
    Jacobi several times), on such a table made not antisymmetric, and on
    valid catalog algebras."""
    rng = random.Random(seed)
    n = 4 + seed
    brackets = {(i, j): [Fraction(rng.choice([0, 0, 0, 1, -2]),
                                  rng.randint(1, 3)) for _ in range(n)]
                for i in range(n) for j in range(i + 1, n)
                if rng.random() < 0.8}
    g = from_brackets(n, brackets)
    want = _dense_validate(g)
    assert validate(g) == want
    assert len(want) >= 2
    c = [[list(r) for r in plane] for plane in g.c]
    c[0][1][2] += 1                     # no longer antisymmetric
    skew = LieAlgebra(n, tuple(tuple(map(tuple, p)) for p in c))
    want = _dense_validate(skew)
    assert validate(skew) == want and want[0].startswith("antisymmetry")
    fam = FAMILIES[seed]
    good = catalog(fam, **sample_params(fam))
    assert validate(good) == _dense_validate(good) == []


def test_validate_random_parameters():
    rng = random.Random(20240917)

    def rq(lo, hi):
        while True:
            q = Fraction(rng.randint(-24, 24), rng.randint(1, 8))
            if lo < q <= hi:
                return q

    for _ in range(100):
        a = rq(0, 1) * rng.choice([1, -1])
        babs = rq(0, abs(a))
        for fam, params in [
            ("s3", dict(alpha=a, beta=babs if a >= babs else -babs)),
            ("s4", dict(alpha=rq(0, 20) * rng.choice([1, -1]))),
            ("s5", dict(alpha=rq(0, 10), beta=rq(-10, 10))),
            ("s8", dict(alpha=rq(0, 1) * rng.choice([1, -1]) or Fraction(1))),
            ("s9", dict(alpha=rq(0, 10))),
        ]:
            try:
                g = catalog(fam, **params)
            except ParamOutOfRange:
                continue
            assert validate(g) == [], (fam, params)


def test_jacobi_on_random_vectors():
    rng = random.Random(7)
    for fam in FAMILIES:
        g = catalog(fam, **sample_params(fam))
        for _ in range(20):
            u, v, w = ([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                        for _ in range(4)] for _ in range(3))
            s = [a + b + c for a, b, c in zip(
                bracket(g, bracket(g, u, v), w),
                bracket(g, bracket(g, v, w), u),
                bracket(g, bracket(g, w, u), v))]
            assert all(t == 0 for t in s)


def test_center_s1_s2_abelian():
    assert center(catalog("s1")) == [(1, 0, 0, 0)]
    # s2 is genuinely centerless; in s6 the element e1 commutes with the
    # whole basis, so its center is one-dimensional
    assert center(catalog("s2")) == []
    assert center(catalog("s6")) == [(1, 0, 0, 0)]
    assert len(center(abelian(3))) == 3


def test_center_vectors_commute():
    for fam in FAMILIES:
        g = catalog(fam, **sample_params(fam))
        for v in center(g):
            for j in range(4):
                assert bracket(g, v, E[j]) == (0, 0, 0, 0)


def test_param_ranges():
    with pytest.raises(ParamOutOfRange):
        catalog("s3", alpha=2, beta=1)
    with pytest.raises(ParamOutOfRange):
        catalog("s3", alpha=-1, beta=-1)
    with pytest.raises(ParamOutOfRange):
        catalog("s4", alpha=0)
    with pytest.raises(ParamOutOfRange):
        catalog("s5", alpha=-1, beta=0)
    with pytest.raises(ParamOutOfRange):
        catalog("s8", alpha=2)
    with pytest.raises(ParamOutOfRange):
        catalog("s9", alpha=0)
    with pytest.raises(ParamOutOfRange):
        catalog("nope")


def test_s3_swapped_parameters_warn_not_reject():
    with pytest.warns(UserWarning):
        g = catalog("s3", alpha=Fraction(-1, 2), beta=Fraction(1, 2))
    assert validate(g) == []


def test_dim_cap():
    with pytest.raises(DimensionMismatch):
        abelian(9)


ALGEBRA_FILE = """
# the s1 bracket table
dim 4
[2,4] = -e1
[3,4] = -1*e3
"""


def test_parse_algebra_roundtrip():
    g = parse_algebra(ALGEBRA_FILE, name="user-s1")
    assert validate(g) == []
    assert g.c == catalog("s1").c
    # reversed index order flips the sign
    g2 = parse_algebra("dim 4\n[4,2] = e1\n[4,3] = e3\n")
    assert g2.c == g.c


def test_parse_algebra_rationals_and_errors():
    g = parse_algebra("dim 2\n[1,2] = 1/2*e1 + e2\n")
    assert g.c[0][1] == (Fraction(1, 2), 1)
    with pytest.raises(ValueError):
        parse_algebra("dim 2\n[1,3] = e1\n")
    with pytest.raises(ValueError):
        parse_algebra("[1,2] = e1\n")
    with pytest.raises(ValueError):
        parse_algebra("dim 2\n[1,2] = e1 + bogus\n")
    with pytest.raises(ValueError, match="line 2: zero denominator"):
        parse_algebra("dim 4\n[1,2] = 1/0*e3\n")


def test_parse_algebra_rejects_repeated_brackets():
    for second in ("[2,1] = e2", "[1,2] = e3"):
        with pytest.raises(ValueError, match=r"^line 3: bracket \[\d,\d\] "
                           r"was already given on line 2$"):
            parse_algebra(f"dim 3\n[1,2] = e3\n{second}\n")


def test_catalog_id_roundtrip():
    from darbouxlie.liealg import CatalogId
    cid = CatalogId("s3", (("alpha", Fraction(1, 2)),
                           ("beta", Fraction(1, 3))))
    g = catalog(cid)
    assert g.params == cid.as_dict()
    assert cid.label() == "s3(alpha=1/2,beta=1/3)"
    assert catalog(CatalogId("n1")).name == "n1"
