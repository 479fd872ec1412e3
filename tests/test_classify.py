"""Golden-data loading and the classification verification harness."""

import hashlib
import pickle
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from darbouxlie.classify import (FAMILY_FILES, GoldenDataMissing, TREE_FILES,
                                 WitnessMissing, expand_rows, load_family,
                                 load_automorphisms, load_tree, loci_agree,
                                 parse_multivector, qualifying_samples,
                                 verify_coboundary_classes,
                                 verify_family_bundle, verify_orbit_table,
                                 verify_schouten_family, verify_tree)
from darbouxlie.darboux import TreeBranch, locus_contains
from darbouxlie.exactmath import Poly, RatMatrix
from darbouxlie.exprparse import ExprError
from darbouxlie.grassmann import MultiVector, apply_linear
from darbouxlie.liealg import catalog
from darbouxlie.yangbaxter import AlgebraContext, is_automorphism

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


#: sha256 of the (family, label, samples) list of every orbit record
ORBIT_SAMPLES_DIGEST = (
    "1ca00e920ed0f8f1d86aba6269815c553d9346c376ee98efafb8c563f7a4d82d")


def test_records_survive_a_pickle_round_trip():
    """``verify-tables --jobs N`` sends results between processes: an
    algebra with its cached integer table, a catalog id, a tree branch and
    a tree report come back equal and of their own type."""
    from darbouxlie.liealg import CatalogId
    g = catalog("s3", alpha=Fraction(1, 2), beta=Fraction(-1, 3))
    table = g.int_table
    branch = TreeBranch("b", [Poly.var(0)], [(Poly.var(1) - 1, "<")], 2)
    records = [g, CatalogId("s3", tuple(sorted(g.params.items()))), branch,
               verify_tree("s5")]
    backs = [pickle.loads(pickle.dumps(rec)) for rec in records]
    for rec, back in zip(records, backs):
        assert type(back) is type(rec) and back == rec
    assert backs[0].params == g.params and backs[0].int_table == table
    assert backs[2].equalities == (Poly.var(0),)


def test_orbit_record_samples_match_the_recorded_digest():
    """The sample points of all 334 orbit records of the family files, in
    order and as (den, q), are exactly the recorded ones."""
    recs = []
    for stem in FAMILY_FILES:
        fam = load_family(stem)
        for ps, _, _ in qualifying_samples(fam):
            recs += [(stem, rec.label, rec.samples)
                     for rec in expand_rows(fam, ps)]
    assert len(recs) == 334
    digest = hashlib.sha256(repr(recs).encode()).hexdigest()
    assert digest == ORBIT_SAMPLES_DIGEST


def test_shipped_automorphisms_validate():
    for stem in FAMILY_FILES:
        fam = load_family(stem)
        for ps, _, g in qualifying_samples(fam):
            auts = load_automorphisms(fam, ps, AlgebraContext(g))
            assert all(T.rows == 4 for _, T in auts)


def test_verify_orbit_table_passes_everywhere():
    for stem in FAMILY_FILES:
        rep = verify_orbit_table(stem)
        bad = [r for r in rep.rows if not r.ok]
        assert not bad, (stem, [(r.label, r.problems) for r in bad[:3]])
        assert not rep.unmerged_components, stem


def _count_compounds(monkeypatch) -> list:
    """The (T, m) of each ``grassmann.compound`` call from now on."""
    import darbouxlie.yangbaxter as yangbaxter
    lifts = []
    real = yangbaxter.compound

    def counting(T, m):
        lifts.append((T, m))
        return real(T, m)

    monkeypatch.setattr(yangbaxter, "compound", counting)
    return lifts


def test_orbit_table_lifts_each_automorphism_once_per_sample(monkeypatch):
    lifts = _count_compounds(monkeypatch)
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
    """One orbit-table check of a family file, which runs the bundle check
    on the same contexts, computes the derivations and the Yang-Baxter
    system once per parameter sample, and its bundles pass."""
    import darbouxlie.yangbaxter as yangbaxter
    calls = []

    def counting(name):
        original = getattr(yangbaxter, name)

        def wrapped(g):
            calls.append((name, g))
            return original(g)
        return wrapped

    for name in ("derivation_basis", "generic_rr"):
        monkeypatch.setattr(yangbaxter, name, counting(name))
    fam = load_family("s3")
    algebras = [g for _, _, g in qualifying_samples(fam)]
    assert len(algebras) == 5
    table = verify_orbit_table("s3")
    assert table.passed
    assert len(table.bundles) == 5 and all(b.ok for b in table.bundles)
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


def verify_automorphism_witness(g, T, r_from, target):
    """Whether the automorphism T, lifted to bivectors, maps the
    representative r_from into the target branch's locus."""
    if not is_automorphism(g, T):
        raise WitnessMissing("matrix fails bracket preservation")
    return locus_contains(target, apply_linear(T, r_from).coords())


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
    params = dict(alpha=Fraction(1, 2), beta=Fraction(-1, 2))
    reps = [r for r in verify_coboundary_classes("s3") if r.params == params]
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


def test_tree_check_needs_the_golden_derivation_form(monkeypatch):
    """``verify_tree`` builds its contexts on the family file's derivation
    form, ``AlgebraContext(g, ders)``, not on der(g).  The form lies in
    der(g) everywhere, and at seven tree samples it spans only part of it.
    With der(g) in its place, 47 branch instances of s3, s4 and s8 at those
    samples are not Darboux families at cofactor bound 2, so the form
    cannot be dropped."""
    import darbouxlie.classify as classify
    from darbouxlie.derivations import derivation_basis
    from darbouxlie.exactmath import rank
    partial = {}
    for stem in TREE_FILES:
        tree = load_tree(stem)
        fam = load_family(tree.family_stem)
        for ps in tree.samples:
            full = [d.flat() for d in derivation_basis(
                catalog(fam.algebra, **ps))]
            form = [m.flat() for m in classify._der_form_basis(
                fam.der_form, classify._short_params(ps))]
            assert rank(RatMatrix(form + full)) == len(full), (stem, ps)
            if rank(RatMatrix(form)) < len(full):
                key = (stem, tuple(sorted(ps.items())))
                partial[key] = (rank(RatMatrix(form)), len(full))
    F = Fraction

    def s3(a, b):
        return ("s3", (("alpha", a), ("beta", b)))
    assert partial == {
        s3(F(1), F(1, 2)): (6, 8), s3(F(1), F(-1)): (6, 8),
        s3(F(-1, 2), F(-1, 2)): (6, 8), s3(F(1, 3), F(1, 3)): (6, 8),
        s3(F(1), F(1)): (6, 12), ("s4", (("alpha", F(1)),)): (6, 8),
        ("s8", (("alpha", F(1)),)): (5, 7)}

    assert all(verify_tree(stem).passed for stem in ("s3", "s4", "s8"))
    real = classify.AlgebraContext
    monkeypatch.setattr(classify, "AlgebraContext",
                        lambda g, ders=None: real(g))
    failed = Counter()
    for stem in TREE_FILES:
        rep = verify_tree(stem)
        assert not rep.unconfirmed
        for label, ps, reason in rep.failures:
            assert reason == (f"{label}: equalities are not a Darboux "
                              "family at bound 2")
            assert (stem, tuple(sorted(ps.items()))) in partial
            failed[stem] += 1
    assert failed == {"s3": 40, "s4": 3, "s8": 4}


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


def _clearing_counts(monkeypatch):
    """From here on, clear_denominators counted in every module that calls
    it, by the name of the calling function, and the candidate points
    pushed to the samplers (``locus_sampler``) counted under "pushed", and
    those among them to be cleared there (not given as (den, q) and not
    already ints) under "push"."""
    from darbouxlie import (centerext, classify, darboux, derivations,
                            exactmath, grassmann, liealg, yangbaxter)
    real, real_sampler = exactmath.clear_denominators, darboux.locus_sampler
    callers, pushes = Counter(), Counter()

    def counting(xs):
        callers[sys._getframe(1).f_code.co_name] += 1
        return real(xs)

    def sampler(branch):
        out, push = real_sampler(branch)

        def counted(pt, den=None):
            pushes["pushed"] += 1
            pushes["push"] += den is None and any(type(x) is not int
                                                  for x in pt)
            push(pt, den)
        return out, counted

    for module in (centerext, classify, darboux, derivations, exactmath,
                   grassmann, liealg, yangbaxter):
        monkeypatch.setattr(module, "clear_denominators", counting)
    for module in (classify, darboux):
        monkeypatch.setattr(module, "locus_sampler", sampler)
    return callers, pushes


def test_verify_branch_clears_each_sample_point_once(monkeypatch):
    """verify_branch clears no point: the locus test, the rank and the
    mCYBE test all read the (den, q) that the sampler's push cleared each
    sample point to."""
    from darbouxlie.darboux import verify_branch
    calls = _recorded_branches("s1", monkeypatch)
    callers, _ = _clearing_counts(monkeypatch)
    for ctx, fields, branch, pts, cache in calls:
        rep = verify_branch(ctx, fields, branch, pts, family_cache=cache)
        assert rep.passed and rep.samples_checked == len(pts)
    assert not callers


def test_check_runs_clear_each_candidate_point_once(monkeypatch):
    """Over a whole tree check and a whole orbit-table check, each
    candidate sample point that is not already a point of ints is cleared
    once, by the push that tests it; besides those, only polynomials,
    matrices and structure constants are cleared, and in the orbit table
    each row's representative, once for all its checks and its merge walk
    (``rep_point``) and once more by the Schouten bracket of the CYBE
    test.  The orbit table counts one rank per sample point: the
    representative's serves its orbit dimension and its sample entry."""
    import darbouxlie.classify as classify
    from darbouxlie import yangbaxter
    # the callers that clear polynomials, matrices and structure constants
    # (``RatMatrix`` clears a matrix on the first read of its integer
    # form), and find_bricks, which the orbit
    # table's bundle check runs: it clears the kernel vectors of its brick
    # search, not sample points
    not_points = {"_integer_form", "__getattr__", "normalize_poly",
                  "int_table", "find_bricks"}
    callers, pushes = _clearing_counts(monkeypatch)
    assert verify_tree("s1").passed
    assert callers.pop("push") == pushes["push"] > 0
    assert set(callers) <= not_points
    callers.clear()
    pushes.clear()
    records = []
    real, real_rank = classify.expand_rows, classify._rank_at_ints
    ranks = Counter()

    def recording(fam, params):
        recs = real(fam, params)
        records.extend(recs)
        return recs

    def counted_rank(cols, q):
        ranks["rank"] += 1
        return real_rank(cols, q)

    monkeypatch.setattr(classify, "expand_rows", recording)
    for module in (classify, yangbaxter):
        monkeypatch.setattr(module, "_rank_at_ints", counted_rank)
    assert verify_orbit_table("s3").passed
    assert callers.pop("push", 0) == pushes["push"]
    assert pushes["pushed"] > 0
    assert {name: callers.pop(name) for name in ("rep_point", "schouten")} \
        == dict.fromkeys(("rep_point", "schouten"), len(records))
    assert set(callers) <= not_points
    assert ranks["rank"] == sum(len(rec.samples) for rec in records) > 0


def test_verify_branch_rejects_bad_points_as_before(monkeypatch):
    """A point off the locus is named in BranchInvalid; a point too long
    fails the rank's size check (a plain ValueError), or without fields the
    mCYBE's DimensionMismatch; a point too short for an equality raises
    MissingVariable from the locus test."""
    from darbouxlie.darboux import (BranchInvalid, locus_contains,
                                    rational_point, verify_branch)
    from darbouxlie.exactmath import MissingVariable
    from darbouxlie.liealg import DimensionMismatch
    ctx, fields, branch, pts, _ = next(
        c for c in _recorded_branches("s1", monkeypatch) if c[2].equalities)
    den, q = pts[0]
    # the point moved by 1 in one coordinate, as (den, q)
    off = next(m for i in range(len(q))
               for m in [(den, q[:i] + (q[i] + den,) + q[i + 1:])]
               if not locus_contains(branch, rational_point(*m)))
    with pytest.raises(BranchInvalid, match="not in locus") as info:
        verify_branch(ctx, fields, branch, list(pts) + [off])
    assert str(rational_point(*off)) in str(info.value)
    free = TreeBranch("free", [])
    with pytest.raises(ValueError, match="size mismatch") as info:
        verify_branch(ctx, fields, free, [(den, q + (0,))])
    assert info.type is ValueError
    with pytest.raises(DimensionMismatch):
        verify_branch(ctx, [], free, [(den, q + (0,))])
    with pytest.raises(MissingVariable):
        verify_branch(ctx, fields, TreeBranch("short", [x(5)]),
                      [(den, q[:5])])


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
        [fam] = [f for f in cache.values()
                 if tuple(f.generators) == branch.equalities
                 and tuple(f.fields) == tuple(fields)]
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
    from darbouxlie.darboux import rational_point
    from darbouxlie.yangbaxter import is_mcybe_solution
    seen = set()
    for ctx, _, _, pts, _ in _recorded_branches(stem, monkeypatch):
        for p in (rational_point(*s) for s in pts):
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

    def push(pt, den=1):
        pt = tuple(rat(x) / den for x in pt)
        if locus_contains(branch, pt) and pt not in out:
            out.append(pt)

    return out, push


def _branch_sample_calls(monkeypatch):
    """The arguments of every branch_samples call of every shipped tree,
    recorded with the branch checks skipped, and a function that builds
    the sample points of every orbit row of s3."""
    import darbouxlie.classify as classify
    from darbouxlie.darboux import BranchInvalid

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
    monkeypatch.undo()
    assert len(calls) > 100

    fam = load_family("s3")

    def row_samples():
        return [rec.samples for ps, _, _ in qualifying_samples(fam)
                for rec in expand_rows(fam, ps)]

    return calls, row_samples


def test_sample_lists_match_the_list_based_rule(monkeypatch):
    """branch_samples on every branch of every shipped tree, and the sample
    points of every orbit row of s3, are the same lists, in the same order,
    under the dict-based rule of locus_sampler (read back as Fractions) and
    the list-based rule."""
    import darbouxlie.classify as classify
    import darbouxlie.darboux as darboux
    from darbouxlie.darboux import branch_samples, rational_point

    calls, row_samples = _branch_sample_calls(monkeypatch)
    got = tuple([[rational_point(*p) for p in pts] for pts in lists]
                for lists in ([branch_samples(*c) for c in calls],
                              row_samples()))
    monkeypatch.setattr(darboux, "locus_sampler", _list_sampler)
    monkeypatch.setattr(classify, "locus_sampler", _list_sampler)
    want = ([branch_samples(*c) for c in calls], row_samples())
    assert got == want
    assert sum(map(len, got[0])) > 500 and sum(map(len, got[1])) > 500


def _solve_linear_at(f, v, point):
    """x_v solved from f = a*x_v + b at one point, splitting f there: the
    per-point rule that the samplers' split-once solvers must match."""
    a, b = {}, {}
    for m, c in f.terms.items():
        e = dict(m).get(v)
        if e is None:
            b[m] = c
        elif e == 1:
            a[tuple(t for t in m if t[0] != v)] = c
        else:
            return None
    coef = Poly(a).eval(point)
    return -Poly(b).eval(point) / coef if coef else None


def test_sample_lists_match_per_point_linear_solving(monkeypatch):
    """branch_samples on every branch of every shipped tree, and the sample
    points of every orbit row of s3, are the same lists when each linear
    equality is split once per branch as when it is split at every point."""
    import functools

    import darbouxlie.classify as classify
    import darbouxlie.darboux as darboux
    from darbouxlie.darboux import branch_samples

    calls, row_samples = _branch_sample_calls(monkeypatch)
    got = ([branch_samples(*c) for c in calls], row_samples())
    for module in (darboux, classify):
        monkeypatch.setattr(module, "linear_solver",
                            lambda f, v: functools.partial(_solve_linear_at,
                                                           f, v))
    want = ([branch_samples(*c) for c in calls], row_samples())
    assert got == want
    assert sum(map(len, got[0])) > 500 and sum(map(len, got[1])) > 500
    assert any(f.degree() == 1 for b, _, _ in calls for f in b.equalities)


def test_tree_check_makes_no_display_reduction(monkeypatch):
    """The tree check reads the mCYBE components, never the reduced
    display system."""
    import darbouxlie.yangbaxter as yangbaxter
    calls = []
    real = yangbaxter._reduce_with_witnesses

    def counting(polys):
        calls.append(polys)
        return real(polys)

    # both reduce_system and AlgebraContext.yb_system reduce through it
    monkeypatch.setattr(yangbaxter, "_reduce_with_witnesses", counting)
    assert verify_tree("s1").passed
    assert calls == []


def test_coboundary_classes_check_each_shipped_matrix_once(monkeypatch):
    """A pass over every family file checks each shipped automorphism once
    per parameter sample whose classes are checked, and the identity at
    most once per such sample."""
    import darbouxlie.yangbaxter as yangbaxter
    calls = []
    original = yangbaxter.is_automorphism

    def counting(g, T):
        calls.append(T)
        return original(g, T)

    monkeypatch.setattr(yangbaxter, "is_automorphism", counting)
    identity = RatMatrix.identity(4)
    shipped = checked = 0
    for stem in FAMILY_FILES:
        fam = load_family(stem)
        for _, sp, _ in qualifying_samples(fam):
            if not any(note for cond, note in fam.skipclasses if cond(sp)):
                checked += 1
                shipped += len(fam.automorphisms)
        verify_coboundary_classes(stem)
    assert shipped > 100
    assert len([T for T in calls if T != identity]) == shipped
    assert len([T for T in calls if T == identity]) <= checked


def test_coboundary_classes_lift_each_matrix_once_per_context(monkeypatch):
    """A pass over every family file builds Λ²T once for each (context,
    matrix) that witnesses a class, on its first use, and never for a
    shipped matrix that is only validated."""
    lifts = _count_compounds(monkeypatch)
    used = []
    original = AlgebraContext.same_coboundary

    def recording(ctx, r1, r2, T):
        used.append((ctx, T))  # holds ctx, so no id is reused
        return original(ctx, r1, r2, T)

    monkeypatch.setattr(AlgebraContext, "same_coboundary", recording)
    for stem in FAMILY_FILES:
        verify_coboundary_classes(stem)
    pairs = {(id(ctx), T) for ctx, T in used}
    assert len(used) == 75 and len(pairs) == len(lifts) == 25
    assert all(m == 2 for _, m in lifts)


S1_MCYBE = "mcybe : x3*x4 | x3*x6 | x5"


def _s1_with_mcybe(tmp_path, monkeypatch, line):
    """A copy of the golden data whose s1 ``[mcybe]`` line reads ``line``."""
    import shutil
    from darbouxlie.classify import data_dir
    alt = tmp_path / "data"
    shutil.copytree(data_dir(), alt)
    fam = alt / "families" / "s1.txt"
    text = fam.read_text()
    assert S1_MCYBE in text
    fam.write_text(text.replace(S1_MCYBE, line))
    monkeypatch.setenv("DARBOUXLIE_DATA", str(alt))


@pytest.mark.parametrize("line", [
    "mcybe : x3*x4 | x3*x6 | x6",     # another locus: x6 in place of x5
    "mcybe : x3*x4 | x3*x6 | x5^2",   # the same locus, another span
])
def test_bundle_mcybe_diagnostics(line, tmp_path, monkeypatch):
    """A golden system that differs from the computed one fails on its
    span alone: the locus check ties the raw mCYBE system to the reduced
    one, which the golden file does not enter."""
    _s1_with_mcybe(tmp_path, monkeypatch, line)
    [result] = verify_family_bundle("s1")
    assert not result.ok
    assert result.problems == ["mcybe system span disagrees"]


def test_mixed_sign_witness_fails_the_locus_check(monkeypatch):
    """A reduction that kills x5 and x6 by x5^2 - x6^2, which vanishes on
    x5 = x6 != 0, fails the bundle check and ``verify-tables``."""
    import darbouxlie.yangbaxter as yangbaxter
    from darbouxlie.cli import main
    real = yangbaxter._reduce_with_witnesses

    def mutant(polys):
        gens, witnesses = real(polys)
        assert witnesses == [([4], x(4) ** 2)]
        return gens, [([4, 5], x(4) ** 2 - x(5) ** 2)]

    monkeypatch.setattr(yangbaxter, "_reduce_with_witnesses", mutant)
    [result] = verify_family_bundle("s1")
    assert result.problems == ["mcybe locus equality fails"]
    assert main(["verify-tables", "--algebra", "s1"]) == 1


def test_bundle_check_calls_no_sampler(monkeypatch):
    """The bundle check decides locus equality by the reduction's
    witnesses: ``loci_agree`` is never called."""
    import darbouxlie.classify as classify
    calls = []
    monkeypatch.setattr(classify, "loci_agree",
                        lambda *args, **kw: calls.append(args))
    for stem in FAMILY_FILES:
        assert all(b.ok for b in verify_family_bundle(stem)), stem
    assert calls == []


def test_locus_certificate_agrees_with_the_sampler_on_the_families():
    """On every family sample the witnesses prove that the raw mCYBE
    system and the reduced one have the same real locus, and the sampled
    oracle agrees; 18 samples have witnesses."""
    from darbouxlie.classify import _same_real_locus
    from darbouxlie.yangbaxter import AlgebraContext
    samples = with_witnesses = 0
    for stem in FAMILY_FILES:
        for _, _, g in qualifying_samples(load_family(stem)):
            ybs = AlgebraContext(g).yb_system
            raw = [p for p in ybs.mcybe if not p.is_zero()]
            assert loci_agree(raw, ybs.reduced), stem
            assert _same_real_locus(raw, ybs.witnesses, ybs.reduced), stem
            samples += 1
            with_witnesses += bool(ybs.witnesses)
    assert (samples, with_witnesses) == (36, 18)


def _random_quadratic(rng):
    monos = [(i, j) for i in range(6) for j in range(i, 6)]
    p = Poly.zero()
    for i, j in rng.sample(monos, rng.randint(1, 3)):
        p = p + rng.choice([-2, -1, 1, 3]) * x(i) * x(j)
    return p


def test_locus_certificate_implies_sampled_agreement_on_random_systems():
    """Seeded quadratic systems in 6 variables with a sum of two even
    powers planted in their span, of one sign or of mixed signs.  The
    reduction's own witnesses always pass; a witness claimed from the
    planted sum passes exactly when its signs agree.  Whenever the
    certificate holds, the sampled oracle agrees."""
    from darbouxlie.classify import _same_real_locus
    from darbouxlie.yangbaxter import _reduce_with_witnesses
    rng = random.Random("locus certificate")
    seen = set()
    for _ in range(60):
        a, b = rng.sample(range(6), 2)
        same = rng.random() < 0.5
        planted = (rng.randint(1, 3) * x(a) ** 2
                   + (1 if same else -1) * rng.randint(1, 3) * x(b) ** 2)
        qs = [_random_quadratic(rng) for _ in range(rng.randint(1, 3))]
        raw = [qs[0] + planted, *qs]
        reduced, witnesses = _reduce_with_witnesses(raw)
        assert _same_real_locus(raw, witnesses, reduced)
        assert loci_agree(raw, reduced)
        # the planted sum claimed as the only witness
        rest = [Poly({m: c for m, c in q.terms.items()
                      if not any(v in (a, b) for v, _ in m)}) for q in raw]
        claimed = [x(a), x(b), *rest]
        ok = _same_real_locus(raw, [([a, b], planted)], claimed)
        assert ok == same
        if ok:
            assert loci_agree(raw, claimed)
        seen.add((same, bool(witnesses)))
    assert {(True, True), (False, False)} <= seen


S5_RAW = [x(4) ** 2 + x(5) ** 2, x(0) * x(4) + x(2) * x(3)]
S5_WITNESS = ([4, 5], x(4) ** 2 + x(5) ** 2)


@pytest.mark.parametrize("raw, witnesses, reduced, holds", [
    (S5_RAW, [S5_WITNESS], [x(4), x(5), x(2) * x(3)], True),
    # an odd power: x5^3 + x6^3 vanishes on x5 = -x6
    ([x(4) ** 3 + x(5) ** 3], [([4, 5], x(4) ** 3 + x(5) ** 3)],
     [x(4), x(5)], False),
    # mixed signs: x5^2 - x6^2 vanishes on x5 = x6
    ([x(4) ** 2 - x(5) ** 2], [([4, 5], x(4) ** 2 - x(5) ** 2)],
     [x(4), x(5)], False),
    # a witness outside the span of the system
    ([x(4) * x(5)], [S5_WITNESS], [x(4), x(5)], False),
    # a witness that names one variable too many, or one too few
    (S5_RAW, [([0, 4, 5], S5_WITNESS[1])],
     [x(0), x(4), x(5), x(2) * x(3)], False),
    (S5_RAW, [([4], S5_WITNESS[1])], [x(4), x(5) ** 2, x(2) * x(3)], False),
    # a reduced system with a generator missing, or one extra
    (S5_RAW, [S5_WITNESS], [x(4), x(5)], False),
    (S5_RAW, [S5_WITNESS], [x(4), x(5), x(2) * x(3), x(0) * x(1)], False),
])
def test_locus_certificate_on_hand_made_systems(raw, witnesses, reduced,
                                                holds):
    """Each mutant fails the one check it targets and passes the others."""
    from darbouxlie.classify import _same_real_locus
    assert _same_real_locus(raw, witnesses, reduced) == holds
