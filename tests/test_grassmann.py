"""Exterior algebra, Schouten bracket, invariants; graded identities."""

import random
from fractions import Fraction

import pytest

from darbouxlie.grassmann import (MultiVector, SymMultiVector, ad_action,
                                  blade_name, blades, generic_bivector,
                                  invariants, schouten, wedge)
from darbouxlie.exactmath import Poly
from darbouxlie.liealg import DimensionMismatch, abelian, bracket, catalog

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
    s1 = catalog("s1")
    rr = schouten(s1, generic_bivector(s1), generic_bivector(s1))
    assert rr.terms[0b0111] == 2 * (-x(1) * x(4) + x(2) * x(3) - x(3) * x(4))
    assert rr.terms[0b1011] == -2 * x(4) ** 2
    assert rr.terms[0b1101] == 2 * (x(2) - x(4)) * x(5)
    assert rr.terms[0b1110] == 2 * x(4) * x(5)
    s6 = catalog("s6")
    rr6 = schouten(s6, generic_bivector(s6), generic_bivector(s6))
    assert rr6.terms[0b0111] == 2 * (x(0) * x(5) + x(1) * x(4) + x(3) ** 2)
    assert rr6.terms[0b1110] == -4 * x(4) * x(5)
    zero = SymMultiVector(4, 2)
    assert schouten(s6, zero, zero).is_zero()


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
