"""Exterior algebra, Schouten bracket, invariants; graded identities; the
maps on Λ^m g and the symbolic [r, r] against MultiVector oracles."""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from darbouxlie.derivations import derivation_basis, lift
from darbouxlie.grassmann import (MultiVector, ad_action, ad_matrix,
                                  blade_name, blades, generic_rr,
                                  indices_of, invariants, lambda_matrix,
                                  schouten, wedge)
from darbouxlie.exactmath import Poly, RatMatrix
from darbouxlie.liealg import (FAMILIES, DimensionMismatch, abelian, bracket,
                               catalog, from_brackets)

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench.query import almost_abelian, so3_plus_abelian  # noqa: E402

B = MultiVector.blade


def test_wedge_basics():
    e1 = B(4, [0])
    e2 = B(4, [1])
    assert wedge(e1, e2) == B(4, [0, 1])
    e12 = B(4, [0, 1])
    assert wedge(e12, e12).is_zero()
    assert wedge(e12, B(4, [2, 3])) == B(4, [0, 1, 2, 3])
    # anticommutativity in degree one
    assert wedge(e2, e1) == -B(4, [0, 1])


def test_wedge_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        wedge(B(4, [0]), B(5, [0]))


def test_only_zero_adds_to_a_multivector():
    e12 = B(4, [0, 1])
    assert e12 + 0 is e12 and 0 + e12 is e12 and e12 - 0 is e12
    assert 0 - e12 == -e12 and e12 + MultiVector.zero(5, 3) is e12
    for number in (1, Fraction(-1, 2)):
        for add in (lambda: e12 + number, lambda: number + e12,
                    lambda: e12 - number, lambda: number - e12):
            with pytest.raises(DimensionMismatch,
                               match="to a multivector"):
                add()


def test_schouten_table_entries_s1():
    g = catalog("s1")
    assert schouten(g, B(4, [1]), B(4, [1, 3])) == B(4, [0, 1])     # e12
    assert schouten(g, B(4, [1, 3]), B(4, [1, 3])) == \
        -2 * B(4, [0, 1, 3])                                        # -2 e124
    assert ad_action(g, [0, 0, 0, 1], B(4, [1, 3])) == B(4, [0, 3])  # e14
    for k in range(4):
        v = [1 if i == k else 0 for i in range(4)]
        assert schouten(g, MultiVector.vector(4, v),
                        MultiVector.vector(4, v)).is_zero()
    # e1 is central, so ad_{e1} kills everything
    for m in (1, 2, 3):
        for mask_idx in blades(4, m):
            w = MultiVector(4, m, {mask_idx: Fraction(1)})
            assert ad_action(g, [1, 0, 0, 0], w).is_zero()


def test_schouten_n1_entry():
    n1 = catalog("n1")
    assert ad_action(n1, [0, 0, 0, 1], B(4, [0, 2])) == -B(4, [0, 1])


def test_degree_one_equals_lie_bracket():
    rng = random.Random(3)
    for fam in ("s2", "s7", "s12"):
        g = catalog(fam)
        for _ in range(12):
            v = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
            w = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
            got = schouten(g, MultiVector.vector(4, v),
                           MultiVector.vector(4, w))
            assert got == MultiVector.vector(4, bracket(g, v, w))


def _random_mv(rng, dim, deg):
    terms = {}
    for mask in blades(dim, deg):
        if rng.random() < 0.5:
            terms[mask] = Fraction(rng.randint(-3, 3))
    return MultiVector(dim, deg, terms)


def test_graded_symmetry_and_leibniz():
    rng = random.Random(11)
    g = catalog("s10")
    for _ in range(60):
        s = rng.choice([1, 2, 3])
        l = rng.choice([1, 2])
        a = _random_mv(rng, 4, s)
        b = _random_mv(rng, 4, l)
        lhs = schouten(g, a, b)
        rhs = schouten(g, b, a) * ((-1) ** ((s - 1) * (l - 1)) * -1)
        assert lhs == rhs
        # graded Leibniz: [a, b ^ c] = [a,b] ^ c + (-1)^((s-1) l) b ^ [a,c]
        c = _random_mv(rng, 4, 1)
        lhs2 = schouten(g, a, wedge(b, c))
        rhs2 = wedge(schouten(g, a, b), c) + \
            ((-1) ** ((s - 1) * l)) * wedge(b, schouten(g, a, c))
        assert lhs2 == rhs2


def test_ad_leibniz_over_wedge():
    rng = random.Random(5)
    g = catalog("s8", alpha=Fraction(1, 2))
    for _ in range(30):
        v = [Fraction(rng.randint(-2, 2)) for _ in range(4)]
        p = _random_mv(rng, 4, 1)
        q = _random_mv(rng, 4, 2)
        lhs = ad_action(g, v, wedge(p, q))
        rhs = wedge(ad_action(g, v, p), q) + wedge(p, ad_action(g, v, q))
        assert lhs == rhs


def test_invariants_catalog_statements():
    s1 = catalog("s1")
    assert [w.text() for w in invariants(s1, 2)] == ["e12"]
    assert invariants(s1, 3) == []
    n1 = catalog("n1")
    assert [w.text() for w in invariants(n1, 2)] == ["e12"]
    assert sorted(w.text() for w in invariants(n1, 3)) == ["e123", "e124"]
    s2 = catalog("s2")
    assert invariants(s2, 2) == [] and invariants(s2, 3) == []


def test_invariants_parameterized_s3():
    cases = [((-1, Fraction(-1, 2)), ["e12"], []),
             ((1, -1), ["e13", "e23"], []),
             ((Fraction(-1, 2), Fraction(-1, 2)), [], ["e123"]),
             ((Fraction(1, 2), Fraction(1, 3)), [], [])]
    for (a, b), inv2, inv3 in cases:
        g = catalog("s3", alpha=a, beta=b)
        assert sorted(w.text() for w in invariants(g, 2)) == inv2, (a, b)
        assert sorted(w.text() for w in invariants(g, 3)) == inv3, (a, b)


def test_invariants_annihilated():
    for fam, kw in [("s1", {}), ("s6", {}), ("n1", {}),
                    ("s5", dict(alpha=2, beta=-1))]:
        g = catalog(fam, **kw)
        for m in (2, 3):
            for w in invariants(g, m):
                for i in range(4):
                    v = [1 if k == i else 0 for k in range(4)]
                    assert ad_action(g, v, w).is_zero()


def test_schouten_sym_matches_displayed_expansion():
    x = Poly.var
    # generic_rr lists the blades e123, e124, e134, e234 in this order
    assert blades(4, 3) == (0b0111, 0b1011, 0b1101, 0b1110)
    rr = generic_rr(catalog("s1"))
    assert rr[0] == 2 * (-x(1) * x(4) + x(2) * x(3) - x(3) * x(4))
    assert rr[1] == -2 * x(4) ** 2
    assert rr[2] == 2 * (x(2) - x(4)) * x(5)
    assert rr[3] == 2 * x(4) * x(5)
    rr6 = generic_rr(catalog("s6"))
    assert rr6[0] == 2 * (x(0) * x(5) + x(1) * x(4) + x(3) ** 2)
    assert rr6[3] == -4 * x(4) * x(5)
    assert generic_rr(abelian(4)) == [Poly.zero()] * 4


def test_abelian_everything_invariant():
    g = abelian(4)
    assert len(invariants(g, 2)) == 6
    assert len(invariants(g, 3)) == 4


def test_blades_order_is_built_once_and_immutable():
    names = ["e12", "e13", "e14", "e23", "e24", "e34"]
    assert [blade_name(b) for b in blades(4, 2)] == names
    assert [blade_name(b) for b in blades(4, 3)] == [
        "e123", "e124", "e134", "e234"]
    assert blades(4, 2) is blades(4, 2)
    assert isinstance(blades(4, 2), tuple)
    with pytest.raises(TypeError):
        blades(4, 2)[0] = 0


# ---------------------------------------------------------------------------
# maps on Λ^m g and [r, r] against the MultiVector constructions
# ---------------------------------------------------------------------------

PARAMS = {
    "s3": dict(alpha=Fraction(1, 2), beta=Fraction(1, 3)),
    "s4": dict(alpha=Fraction(3)),
    "s5": dict(alpha=Fraction(1), beta=Fraction(-1, 2)),
    "s8": dict(alpha=Fraction(1, 2)),
    "s9": dict(alpha=Fraction(2)),
}
CATALOG = [catalog(f, **PARAMS.get(f, {})) for f in FAMILIES]


def _random_algebras():
    """Seeded almost-abelian algebras of dimension 1..8, and so(3) + R^k of
    dimension 3..8 in a random unimodular basis (dense brackets)."""
    out = [from_brackets(n, almost_abelian(random.Random(n), n),
                         name=f"aa{n}") for n in range(1, 9)]
    out += [from_brackets(n, so3_plus_abelian(random.Random(n), n),
                          name=f"so3+{n - 3}") for n in range(3, 9)]
    return out


RANDOM_ALGEBRAS = _random_algebras()


def _random_matrix(rng, n):
    return RatMatrix([[Fraction(rng.choice((-2, -1, 0, 0, 0, 0, 1, 3)),
                                rng.choice((1, 1, 2)))
                       for _ in range(n)] for _ in range(n)])


def _by_columns(n, m, image):
    """The matrix on Λ^m whose column of the blade b is image(b)."""
    bl = blades(n, m)
    cols = [image(b).coords() for b in bl]
    return RatMatrix([[col[a] for col in cols] for a in range(len(bl))])


def _oracle_lift(d, m):
    """Λ^m d: on e_i1^..^e_im, the sum over positions p of the wedge with
    d e_ip in place p."""
    n = d.rows

    def image(mask):
        idxs = indices_of(mask)
        img = MultiVector(n, m)
        for pos in range(m):
            factors = MultiVector(n, 0, {0: Fraction(1)})
            for q, j in enumerate(idxs):
                factors = wedge(factors,
                                MultiVector.vector(n, d.col(j)) if q == pos
                                else B(n, [j]))
            img = img + factors
        return img
    return _by_columns(n, m, image)


def _oracle_ad_matrix(g, i, m):
    """ad_{e_i} on Λ^m g through the Schouten bracket."""
    e_i = [int(k == i) for k in range(g.dim)]
    return _by_columns(g.dim, m, lambda mask: ad_action(
        g, e_i, MultiVector(g.dim, m, {mask: Fraction(1)})))


def _oracle_lambda(T, m):
    """Λ^m T: on e_j1^..^e_jm, the wedge of the columns T e_j1, .., T e_jm."""
    n = T.rows

    def image(mask):
        img = MultiVector(n, 0, {0: Fraction(1)})
        for j in indices_of(mask):
            img = wedge(img, MultiVector.vector(n, T.col(j)))
        return img
    return _by_columns(n, m, image)


@pytest.mark.parametrize("g", CATALOG, ids=lambda g: g.name)
def test_lift_and_ad_matrix_match_oracle_on_catalog(g):
    for m in range(g.dim + 1):
        for d in derivation_basis(g):
            assert lift(d, m).matrix == _oracle_lift(d, m), (m, d)
        for i in range(g.dim):
            assert ad_matrix(g, i, m) == _oracle_ad_matrix(g, i, m), (m, i)


@pytest.mark.parametrize("g", RANDOM_ALGEBRAS, ids=lambda g: g.name)
def test_ad_matrix_matches_oracle_on_random_algebras(g):
    for m in range(g.dim + 1):
        for i in range(g.dim):
            assert ad_matrix(g, i, m) == _oracle_ad_matrix(g, i, m), (m, i)


@pytest.mark.parametrize("n", range(1, 9))
def test_lift_and_lambda_matrix_match_oracle_on_random_matrices(n):
    rng = random.Random(40 + n)
    T, S = _random_matrix(rng, n), _random_matrix(rng, n)
    for m in range(n + 1):
        assert lift(T, m).matrix == _oracle_lift(T, m), m
        assert lambda_matrix(T, m) == _oracle_lambda(T, m), m
        # Λ^m is multiplicative (Cauchy-Binet); checked where Λ^m has at
        # most 28 blades, which keeps the Fraction products small
        if len(blades(n, m)) <= 28:
            assert lambda_matrix(T.matmul(S), m) == \
                lambda_matrix(T, m).matmul(lambda_matrix(S, m)), m
    # the 1x1 maps on Λ^0 g = Q: a derivation kills 1, a linear map fixes it
    assert lift(T, 0).matrix == RatMatrix([[0]])
    assert lambda_matrix(T, 0) == RatMatrix([[1]])
    assert ad_matrix(RANDOM_ALGEBRAS[n - 1], 0, 0) == RatMatrix([[0]])


@pytest.mark.parametrize("g", CATALOG + RANDOM_ALGEBRAS,
                         ids=lambda g: g.name)
def test_generic_rr_by_polarization(g):
    """The x_a^2 coefficient of [r, r] is [e_B(a), e_B(a)], and the x_a x_b
    coefficient is [u, u] - [e_B(a), e_B(a)] - [e_B(b), e_B(b)] for
    u = e_B(a) + e_B(b); each bracket taken by the Fraction ``schouten``."""
    b2 = blades(g.dim, 2)
    basis = [MultiVector(g.dim, 2, {b: Fraction(1)}) for b in b2]
    square = [schouten(g, w, w).coords() for w in basis]
    want: list[dict] = [{} for _ in blades(g.dim, 3)]
    for a in range(len(b2)):
        for k, c in enumerate(square[a]):
            want[k][((a, 2),)] = c
        for b in range(a + 1, len(b2)):
            u = basis[a] + basis[b]
            for k, c in enumerate(schouten(g, u, u).coords()):
                want[k][((a, 1), (b, 1))] = c - square[a][k] - square[b][k]
    assert generic_rr(g) == [Poly(t) for t in want]


def _ordered_pair_schouten(g, a, b):
    """[a, b] summed over every ordered pair of terms, one basis-blade
    bracket each."""
    out: dict = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            for m, c in schouten(g, MultiVector(g.dim, a.degree, {ma: ca}),
                                 MultiVector(g.dim, b.degree, {mb: cb})
                                 ).terms.items():
                out[m] = out.get(m, 0) + c
    return MultiVector(g.dim, a.degree + b.degree - 1,
                       {m: c for m, c in out.items() if c})


def _random_multivector(rng, n, m, most=28):
    """A degree-m multivector with 1..most random terms (some may be 0)."""
    bl = blades(n, m)
    k = rng.randint(1, min(most, len(bl)))
    return MultiVector(n, m, {b: Fraction(rng.randint(-4, 4),
                                          rng.choice((1, 2, 3)))
                              for b in rng.sample(bl, k)})


@pytest.mark.parametrize("g", [a for a in CATALOG + RANDOM_ALGEBRAS
                               if a.dim >= 3], ids=lambda g: g.name)
def test_schouten_of_a_bivector_with_itself_matches_ordered_pairs(g):
    """[w, w] of a bivector sums each unordered pair of terms once; it
    equals the sum over ordered pairs, also when w is passed as two equal
    objects.  Vectors and trivectors, where [w, w] = 0, and two different
    bivectors keep the ordered sum."""
    rng = random.Random(g.name)
    for _ in range(4):
        w = _random_multivector(rng, g.dim, 2)
        want = _ordered_pair_schouten(g, w, w)
        assert schouten(g, w, w) == want
        assert schouten(g, w, MultiVector(g.dim, 2, dict(w.terms))) == want
        v = _random_multivector(rng, g.dim, 2)
        assert schouten(g, w, v) == _ordered_pair_schouten(g, w, v)
        for m in (1, 3):
            u = _random_multivector(rng, g.dim, m, most=8)
            assert schouten(g, u, u) == _ordered_pair_schouten(g, u, u) == 0
