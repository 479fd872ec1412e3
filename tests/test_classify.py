"""Golden-data loading and the classification verification harness."""

import random
from fractions import Fraction

import pytest

from darbouxlie.classify import (FAMILY_FILES, GoldenDataMissing, TREE_FILES,
                                 WitnessMissing, expand_rows, load_family,
                                 load_automorphisms, load_tree, loci_agree,
                                 parse_multivector, qualifying_samples,
                                 verify_automorphism_witness,
                                 verify_coboundary_classes,
                                 verify_family_bundle, verify_orbit_table,
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
    assert [b.text for b in fam.bricks] == ["x5", "x6"]
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
        for ps, _, g in qualifying_samples(fam):
            auts = load_automorphisms(fam, ps, g)
            assert all(T.rows == 4 for _, T in auts)


def test_verify_orbit_table_passes_everywhere():
    for stem in FAMILY_FILES:
        rep = verify_orbit_table(stem)
        bad = [r for r in rep.rows if not r.ok]
        assert not bad, (stem, [(r.label, r.problems) for r in bad[:3]])
        assert not rep.unmerged_components, stem


def test_orbit_table_lifts_each_automorphism_once_per_sample(monkeypatch):
    import darbouxlie.classify as classify
    import darbouxlie.grassmann as grassmann
    lifts = []
    real = grassmann.lambda_matrix

    def counting(T, m):
        lifts.append((T, m))
        return real(T, m)

    monkeypatch.setattr(grassmann, "lambda_matrix", counting)
    monkeypatch.setattr(classify, "lambda_matrix", counting)
    rep = verify_orbit_table("s1")
    assert all(r.ok for r in rep.rows) and not rep.unmerged_components
    # s1 ships three automorphisms and has one parameter sample
    assert rep.auts_validated == 3
    assert len(lifts) == 3 and len({T for T, _ in lifts}) == 3
    assert all(m == 2 for _, m in lifts)


def test_loci_agree_same_ideal():
    assert loci_agree([x(0), x(1)], [x(0) + x(1), x(0) - x(1)])
    assert loci_agree([x(2) * x(3), x(2) * x(5), x(4) ** 2],
                      [x(2) * x(3) + x(2) * x(5), x(2) * x(5), x(4)])


def test_loci_agree_refutes_different_loci():
    # x1*x2 lies in (x1), so only the grid tells the two loci apart
    assert not loci_agree([x(0) * x(1)], [x(0)])
    assert not loci_agree([x(0)], [x(0) * x(1)])
    assert not loci_agree([x(0), x(1)], [x(0)])


def test_loci_agree_with_the_zero_polynomial():
    assert loci_agree([x(0), Poly.zero()], [x(0)])
    assert loci_agree([Poly.zero()], [])
    assert not loci_agree([x(0)], [Poly.zero()])


def _drawn_points(npoints, seed):
    """The draws of ``loci_agree``: per point a count of nonzero
    coordinates, their positions and values in -3..3."""
    rng = random.Random(seed)
    out = []
    for _ in range(npoints):
        pt = [0] * 6
        for i in rng.sample(range(6), rng.randint(0, 6)):
            pt[i] = rng.randint(-3, 3)
        out.append(tuple(pt))
    return out


def test_loci_agree_draws_its_points_once(monkeypatch):
    """The points are the ``random.Random(7)`` draws, in order, made on
    the first call; a second call draws nothing."""
    import darbouxlie.classify as classify
    made = []

    class Counting(random.Random):
        def __init__(self, seed):
            made.append(seed)
            super().__init__(seed)

    classify._loci_points.cache_clear()
    monkeypatch.setattr(classify.random, "Random", Counting)
    for _ in range(2):
        assert loci_agree([x(0), x(1)], [x(0) + x(1), x(0) - x(1)])
        assert not loci_agree([x(0) * x(1)], [x(0)])
    assert made == [7]
    monkeypatch.undo()
    points = classify._loci_points(800, 7)
    assert points[:4] == ((0, 2, 0, -3, 0, 0), (0, 0, 0, 0, 0, 0),
                          (-3, -2, 0, 0, -3, -3), (0, 0, 0, 0, 0, 0))
    assert list(points) == _drawn_points(800, 7)
    assert list(classify._loci_points(200, 7)) == _drawn_points(200, 7)


def test_orbit_table_and_bundle_share_one_context_per_sample(monkeypatch):
    """On one family file the two checks compute the derivations and the
    Yang-Baxter system once per parameter sample."""
    import darbouxlie.classify as classify
    import darbouxlie.yangbaxter as yangbaxter
    calls = []

    def counting(name):
        original = getattr(yangbaxter, name)

        def wrapped(g):
            calls.append((name, g))
            return original(g)
        return wrapped

    classify._sample_context.cache_clear()
    for name in ("derivation_basis", "generic_rr"):
        monkeypatch.setattr(yangbaxter, name, counting(name))
    fam = load_family("s3")
    algebras = [g for _, _, g in qualifying_samples(fam)]
    assert len(algebras) == 5
    assert verify_orbit_table("s3").passed
    assert all(b.ok for b in verify_family_bundle("s3"))
    for name in ("derivation_basis", "generic_rr"):
        assert [g for n, g in calls if n == name] == algebras, name


def test_loci_agree_with_non_integer_coefficients():
    assert loci_agree([x(0) / 2 - x(1) / 3], [3 * x(0) - 2 * x(1)])
    assert not loci_agree([x(0) / 2 + x(1) / 3], [3 * x(0) - 2 * x(1)])
    assert not loci_agree([Fraction(-1, 3) * x(3) * x(4) + x(5) / 7],
                          [x(5)])


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


def test_verify_tree_records_branch_errors_only(monkeypatch):
    import darbouxlie.classify as classify
    from darbouxlie.darboux import BranchInvalid

    def invalid(*args, **kwargs):
        raise BranchInvalid("no mCYBE points")

    monkeypatch.setattr(classify, "verify_branch", invalid)
    rep = verify_tree("s1")
    assert len(rep.failures) == 9 and not rep.verified
    assert all(reason == "no mCYBE points" for *_, reason in rep.failures)

    def broken(*args, **kwargs):
        raise TypeError("a programming error")

    # a bug must surface, not be reported as a failed branch
    monkeypatch.setattr(classify, "verify_branch", broken)
    with pytest.raises(TypeError):
        verify_tree("s1")


def _recorded_branches(stem, monkeypatch):
    """verify_tree(stem), which must pass, with the arguments of each of
    its verify_branch calls: (context, fields, branch, sample points,
    family cache)."""
    import darbouxlie.classify as classify
    calls = []
    real = classify.verify_branch

    def recording(ctx, fields, branch, pts, family_cache=None):
        calls.append((ctx, fields, branch, pts, family_cache))
        return real(ctx, fields, branch, pts, family_cache=family_cache)

    monkeypatch.setattr(classify, "verify_branch", recording)
    assert verify_tree(stem).passed
    assert calls
    return calls


@pytest.mark.parametrize("stem", TREE_FILES)
def test_tree_branch_cofactors_reproduce_every_field_image(stem, monkeypatch):
    """Every branch family of a shipped tree, at every parameter sample, is
    verified with a cofactor table for exactly its equalities and fields,
    and sum_i c_jki f_i == X_k f_j holds exactly.  So each X^k f_j lies in
    the ideal of the equalities and vanishes at every sample point of the
    branch: verify_branch needs no flow check."""
    from darbouxlie.derivations import vf_apply
    checked = set()
    for _, fields, branch, _, cache in _recorded_branches(stem, monkeypatch):
        if not branch.equalities:
            continue
        matrices = tuple(X.matrix for X in fields)
        [fam] = [f for f in cache.values()
                 if tuple(f.generators) == branch.equalities
                 and tuple(X.matrix for X in f.fields) == matrices]
        if id(fam) in checked:
            continue
        checked.add(id(fam))
        for j, f in enumerate(fam.generators):
            for k, X in enumerate(fields):
                total = Poly.zero()
                for c, q in zip(fam.cofactors[j][k], fam.generators):
                    total = total + c * q
                assert total == vf_apply(X, f), (branch.label, j, k)
    assert checked


@pytest.mark.parametrize("stem", ["s1", "s5"])
def test_context_mcybe_matches_oracle_at_tree_branch_samples(stem,
                                                             monkeypatch):
    """ctx.is_mcybe_at agrees with is_mcybe_solution at every branch sample
    point of the tree, and at each point moved off it by adding 1 to one
    coordinate, so that both answers occur."""
    from darbouxlie.yangbaxter import is_mcybe_solution
    seen = set()
    for ctx, _, _, pts, _ in _recorded_branches(stem, monkeypatch):
        for p in pts:
            for i in range(-1, len(p)):
                q = p if i < 0 else p[:i] + (p[i] + 1,) + p[i + 1:]
                want = is_mcybe_solution(ctx.g, q)
                assert ctx.is_mcybe_at(q) == want, (q, want)
                seen.add(want)
    assert seen == {True, False}


def _list_sampler(branch):
    """The sample-list rule with membership tested on the list itself,
    after the locus test (the reference for ``locus_sampler``)."""
    from darbouxlie.darboux import locus_contains
    from darbouxlie.exactmath import rat
    out = []

    def push(pt):
        pt = tuple(rat(x) for x in pt)
        if locus_contains(branch, pt) and pt not in out:
            out.append(pt)

    return out, push


def test_sample_lists_match_the_list_based_rule(monkeypatch):
    """branch_samples on every branch of every shipped tree, and the sample
    points of every orbit row of s3, are the same lists, in the same order,
    under the set-based rule of locus_sampler and the list-based rule."""
    import darbouxlie.classify as classify
    import darbouxlie.darboux as darboux
    from darbouxlie.darboux import BranchInvalid, branch_samples

    calls = []

    def recording(branch, nvars, extra=()):
        calls.append((branch, nvars, extra))
        return []

    def skip(*args, **kwargs):
        raise BranchInvalid("not verified here")

    monkeypatch.setattr(classify, "branch_samples", recording)
    monkeypatch.setattr(classify, "verify_branch", skip)
    monkeypatch.setattr(classify, "certify_no_solutions", lambda *a: None)
    for stem in TREE_FILES:
        verify_tree(stem)
    assert len(calls) > 100

    fam = load_family("s3")

    def row_samples():
        return [rec.samples for ps, _, _ in qualifying_samples(fam)
                for rec in expand_rows(fam, ps)]

    got = ([branch_samples(*c) for c in calls], row_samples())
    monkeypatch.setattr(darboux, "locus_sampler", _list_sampler)
    monkeypatch.setattr(classify, "locus_sampler", _list_sampler)
    want = ([branch_samples(*c) for c in calls], row_samples())
    assert got == want
    assert sum(map(len, got[0])) > 500 and sum(map(len, got[1])) > 500
