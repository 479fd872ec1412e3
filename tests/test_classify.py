"""Golden-data loading and the classification verification harness."""

from fractions import Fraction

import pytest

from darbouxlie.classify import (FAMILY_FILES, GoldenDataMissing, TREE_FILES,
                                 WitnessMissing, expand_rows, load_family,
                                 load_automorphisms, load_tree,
                                 parse_multivector, verify_automorphism_witness,
                                 verify_coboundary_classes, verify_orbit_table,
                                 verify_schouten_family, verify_tree)
from darbouxlie.darboux import TreeBranch
from darbouxlie.exactmath import Poly, RatMatrix
from darbouxlie.exprparse import ExprError
from darbouxlie.grassmann import MultiVector
from darbouxlie.liealg import catalog

x = Poly.var


def test_load_family_s1():
    fam = load_family("s1")
    assert fam.algebra == "s1"
    assert len(fam.orbits) == 13
    assert fam.bricks == ["x5", "x6"]
    assert len(fam.automorphisms) == 3
    assert [c.name for c in fam.classes] == list("abcde")


def test_load_family_missing():
    with pytest.raises(GoldenDataMissing):
        load_family("does-not-exist")


def test_expand_rows_s1_count():
    fam = load_family("s1")
    records = expand_rows(fam, {})
    assert len(records) == 13
    labels = [r.label for r in records]
    assert "VIII+" in labels and "0" in labels
    rec = next(r for r in records if r.label == "VIII+")
    assert rec.dim == 4
    assert rec.rep.coords() == (1, 0, 0, 0, 0, 1)
    assert len(rec.samples) >= 3


def test_expand_rows_conditioned():
    fam = load_family("s3")
    # IX needs a+b in {0, -1}
    recs = expand_rows(fam, dict(alpha=Fraction(1, 2), beta=Fraction(1, 3)))
    assert not any(r.label == "IX" for r in recs)
    recs0 = expand_rows(fam, dict(alpha=Fraction(1, 2),
                                  beta=Fraction(-1, 2)))
    ix = next(r for r in recs0 if r.label == "IX")
    assert ix.star is False
    recsm1 = expand_rows(fam, dict(alpha=Fraction(-3, 4),
                                   beta=Fraction(-1, 4)))
    assert next(r for r in recsm1 if r.label == "IX").star is True


def test_forall_expansion():
    fam = load_family("s6")
    recs = expand_rows(fam, {})
    ks = [r.label for r in recs if r.label.startswith("VII[")]
    assert ks == ["VII[k=2]", "VII[k=-2]", "VII[k=3]", "VII[k=-3]"]


def test_shipped_automorphisms_validate():
    for stem in FAMILY_FILES:
        fam = load_family(stem)
        for ps in fam.samples:
            from darbouxlie.exprparse import parse_condition
            from darbouxlie.classify import _short_params
            if fam.when and not parse_condition(fam.when, _short_params(ps)):
                continue
            g = catalog(fam.algebra, **ps)
            auts = load_automorphisms(fam, ps, g)
            assert all(T.rows == 4 for _, T in auts)


def test_verify_orbit_table_passes_everywhere():
    for stem in FAMILY_FILES:
        rep = verify_orbit_table(stem)
        bad = [r for r in rep.rows if not r.ok]
        assert not bad, (stem, [(r.label, r.problems) for r in bad[:3]])
        assert not rep.unmerged_components, stem


def test_known_errata_are_reported():
    rep6 = verify_orbit_table("s6")
    row = next(r for r in rep6.rows if r.label == "VIII")
    assert any("printed dim 4" in e for e in row.errata)
    rep3 = verify_orbit_table("s3")
    xi = [r for r in rep3.rows if r.label == "XI"]
    assert xi and all(r.ok for r in xi)


def test_verify_automorphism_witness():
    g = catalog("s1")
    T = RatMatrix([[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0],
                   [0, 0, 0, 1]])
    branch = TreeBranch("II", [x(0), x(2), x(3), x(4), x(5)],
                        [(x(1), "!=")])
    r_from = MultiVector.from_coords(4, 2, [0, 1, 0, 0, 0, 0])
    assert verify_automorphism_witness(g, T, r_from, branch)
    bad = RatMatrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(WitnessMissing):
        verify_automorphism_witness(g, bad, r_from, branch)


def test_schouten_tables_all_families():
    total_errata = []
    for fam in ("s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9",
                "s10", "s11", "s12", "n1"):
        bad, errata = verify_schouten_family(fam)
        assert bad == [], (fam, bad[:2])
        total_errata.extend(errata)
    assert len(total_errata) == 3  # the three recorded printed-table errata


def test_load_tree_s1():
    tree = load_tree("s1")
    kinds = [k for k, *_ in tree.branches]
    assert kinds.count("branch") == 9
    assert kinds.count("nosol") == 3


def test_verify_tree_s1():
    rep = verify_tree("s1")
    assert rep.passed
    assert len(rep.verified) == 9
    assert len(rep.nosol) == 3
    assert rep.unconfirmed == []


def test_classes_witnessed_s1_s8():
    for stem, expected in (("s1", 5), ("s8", None)):
        for rep in verify_coboundary_classes(stem):
            assert rep.passed, (stem, rep.params, rep.unwitnessed)
            if stem == "s1":
                assert len(rep.witnessed) == expected


def test_class_skip_regime_s3():
    reps = verify_coboundary_classes(
        "s3", params=dict(alpha=Fraction(1, 2), beta=Fraction(-1, 2)))
    assert len(reps) == 1 and reps[0].skipped


def test_parse_multivector():
    v = parse_multivector("2*e12-e34", {})
    assert v.coords() == (2, 0, 0, 0, 0, -1)
    w = parse_multivector("(1+a)*e13", {"a": Fraction(1, 2)})
    assert w.coords() == (0, Fraction(3, 2), 0, 0, 0, 0)
    assert parse_multivector("0", {}).is_zero()


def test_parse_multivector_other_dimensions():
    v = parse_multivector("e12 - 2*e13", {}, 3)
    assert (v.dim, v.degree) == (3, 2)
    assert v.coords() == (1, -2, 0)
    assert parse_multivector("e23", {}, 3).coords() == (0, 0, 1)
    assert parse_multivector("0", {}, 5).dim == 5
    assert parse_multivector("e45", {}, 5).coords()[-1] == 1
    with pytest.raises(ExprError):
        parse_multivector("e4", {}, 3)
