"""The golden-data reader: the shipped parse, malformed files as input
errors that name the file and line, and generated one-line mutations."""

import contextlib
import functools
import shutil
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from darbouxlie import classify
from darbouxlie.classify import (FAMILY_FILES, SCHOUTEN_TABLES, TREE_FILES,
                                 expand_rows, load_family,
                                 load_automorphisms, load_schouten_table,
                                 load_tree, verify_family_bundle,
                                 verify_orbit_table, verify_schouten_family,
                                 verify_tree)
from darbouxlie.cli import main
from darbouxlie.darboux import TreeBranch, rational_point
from darbouxlie.exactmath import Poly, RatMatrix
from darbouxlie.grassmann import MultiVector
from darbouxlie.liealg import FAMILIES, catalog
from darbouxlie.yangbaxter import AlgebraContext


def run_cli(*args):
    buf = StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(args))
    return code, buf.getvalue()


def test_shipped_golden_data_parse():
    fams = [load_family(s) for s in FAMILY_FILES]
    assert len(fams) == 18
    assert sum(len(f.orbits) for f in fams) == 161
    assert sum(len(f.classes) for f in fams) == 48
    assert sum(len(f.skipclasses) for f in fams) == 1
    assert sum(len(f.automorphisms) for f in fams) == 58
    trees = [load_tree(s) for s in TREE_FILES]
    assert len(trees) == 14
    kinds = [b[0] for t in trees for b in t.branches]
    assert (kinds.count("branch"), kinds.count("nosol")) == (117, 63)
    tables = [load_schouten_table(*spec) for spec in SCHOUTEN_TABLES]
    assert [len(t) for t in tables] == [13, 13, 13]
    assert [sum(map(len, t.values())) for t in tables] == [52, 78, 52]


SHIPPED = Path(classify.__file__).parent / "data"


def _edited_copy(tmp_path, monkeypatch, rel, *edits):
    """A copy of the golden data in which, for each (old, new) edit, the
    line ``old`` of file ``rel`` is replaced by ``new`` (which may span
    lines); returns the edited file and the number of the line that the
    first edit changed."""
    alt = tmp_path / "data"
    shutil.copytree(SHIPPED, alt)
    path = alt / rel
    lines = path.read_text().splitlines()
    first = lines.index(edits[0][0]) + 1
    for old, new in edits:
        n = lines.index(old)
        lines[n:n + 1] = new.splitlines()
    path.write_text("\n".join(lines) + "\n")
    monkeypatch.setenv("DARBOUXLIE_DATA", str(alt))
    return path, first


S1_ROW = ("orbit VIII- : dim=4 star=no rep=-e12+e34 x1=- x2=. x3=0 x4=. "
          "x5=0 x6=*")
S1_I_PLUS = ("orbit I+    : dim=1 star=no rep=e12 x1=+ x2=0 x3=0 x4=0 x5=0 "
             "x6=0")
TREE_I = "branch I    : x5, x6, x3, x4, x2 | x1 ; dim=1"
S6_VII = ("orbit VII    : dim=3 star=yes forall=k:2,-2,3,-3 rep=k*e14+e23 "
          "x1=. x2=. x3=k*x4 x4=* x5=0 x6=0")

# (file, line, replacement, loader, CLI arguments, message); the error
# names the first line that changed
MALFORMED = {
    "misspelled-section": (
        "families/s1.txt", "[orbits]", "[orbit]", lambda: load_family("s1"),
        ("verify-tables", "--algebra", "s1"), "unknown section [orbit]"),
    "repeated-section": (
        "families/s1.txt", S1_ROW, "[orbits]\n" + S1_ROW,
        lambda: load_family("s1"), ("verify-tables", "--algebra", "s1"),
        "repeated section [orbits]"),
    "degree-4-invariant": (
        "families/s1.txt", "deg2 : e12", "deg4 : e12",
        lambda: load_family("s1"), ("verify-tables", "--algebra", "s1"),
        "unknown line 'deg4', expected one of: deg2, deg3"),
    "tree-dim-colon": (
        "trees/s1.txt", TREE_I, TREE_I.replace("dim=1", "dim:1"),
        lambda: load_tree("s1"), ("darboux-verify", "--tree", "s1"),
        "unknown tree token 'dim:1'"),
    "tree-line-kind": (
        "trees/s1.txt", TREE_I, TREE_I.replace("branch", "brnach"),
        lambda: load_tree("s1"), ("darboux-verify", "--tree", "s1"),
        "unknown line 'brnach', expected one of: tree, samples, branch, "
        "nosol"),
    "zero-denominator": (
        "families/s8.txt", "samples : alpha=1/2 ; alpha=3/4 ; alpha=-1/2",
        "samples : alpha=1/0", lambda: load_family("s8"),
        ("verify-tables", "--algebra", "s8"), "zero denominator"),
    "orbit-sample-width": (
        "families/s1.txt", S1_I_PLUS, S1_I_PLUS + " sample=1,2",
        lambda: load_family("s1"), ("verify-tables", "--algebra", "s1"),
        "expected 6 entries, got 2"),
    "tree-sample-width": (
        "trees/s1.txt", TREE_I, TREE_I + " sample=1,2",
        lambda: load_tree("s1"), ("darboux-verify", "--tree", "s1"),
        "expected 6 entries, got 2"),
    "orbit-token-without-value": (
        "families/s1.txt", S1_I_PLUS, S1_I_PLUS + " foo",
        lambda: load_family("s1"), ("verify-tables", "--algebra", "s1"),
        "expected KEY=VALUE, got 'foo'"),
    "sample-without-value": (
        "families/s8.txt", "samples : alpha=1/2 ; alpha=3/4 ; alpha=-1/2",
        "samples : alpha", lambda: load_family("s8"),
        ("verify-tables", "--algebra", "s8"),
        "expected KEY=VALUE, got 'alpha'"),
    "forall-without-values": (
        "families/s6.txt", S6_VII, S6_VII.replace("forall=k:2,-2,3,-3",
                                                  "forall=k"),
        lambda: load_family("s6"), ("verify-tables", "--algebra", "s6"),
        "expected forall=NAME:VALUES, got 'forall=k'"),
    # a condition that holds at no shipped sample: its line is read anyway
    "syntax-in-unused-invariant": (
        "families/s3.txt", "deg2 if b=-1 : e13", "deg2 if b=-1 : e13+",
        lambda: load_family("s3"), ("verify-tables", "--algebra", "s3"),
        "cannot parse 'e13+': invalid syntax"),
    "syntax-in-tree-condition": (
        "trees/s1.txt", TREE_I, TREE_I + " when a=(1",
        lambda: load_tree("s1"), ("darboux-verify", "--tree", "s1"),
        "cannot parse '(1': '(' was never closed"),
    "call-in-schouten-entry": (
        "schouten/table_g_l2.txt", "e2 : 0 | 0 | 0 | 0 | e12 | e13",
        "e2 : 0 | 0 | 0 | 0 | e12 | f(e13)",
        lambda: load_schouten_table(*SCHOUTEN_TABLES[0]),
        ("verify-tables", "--algebra", "s1"), "unsupported call 'f(e13)'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_golden_file_is_an_input_error(case, tmp_path,
                                                 monkeypatch, capsys):
    rel, old, new, load, argv, message = MALFORMED[case]
    path, n = _edited_copy(tmp_path, monkeypatch, rel, (old, new))
    where = f"{path}:{n}: "
    with pytest.raises(ValueError) as info:
        load()
    assert str(info.value) == where + message
    code, out = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err == f"error: {where}{message}\n"


G_L2_E2 = "e2 : 0 | 0 | 0 | 0 | e12 | e13"

# (file, line, replacement, loader, CLI arguments, message) for errors that
# name the file but no line: each needs the whole section or file
INCONSISTENT = {
    "class-member-typo": (
        "families/s6.txt", "class e : V Vext", "class e : Vx Vext",
        lambda: load_family("s6"), ("coboundary-classes", "--algebra", "s6"),
        "class e: member 'Vx' names no orbit row"),
    "class-member-forall-value": (
        "families/s6.txt", "class g2 : VII[k=2] VII[k=-2]",
        "class g2 : VII[k=2] VII[k=5]", lambda: load_family("s6"),
        ("coboundary-classes", "--algebra", "s6"),
        "class g2: member 'VII[k=5]' names no orbit row"),
    # every member names an orbit row: no member word is a flag
    "class-member-unwitnessed": (
        "families/s6.txt", "class e : V Vext", "class e : V Vext unwitnessed",
        lambda: load_family("s6"), ("verify-tables", "--algebra", "s6"),
        "class e: member 'unwitnessed' names no orbit row"),
    "class-member-forall-row": (
        "families/s6.txt", "class g2 : VII[k=2] VII[k=-2]",
        "class g2 : VII VII[k=-2]", lambda: load_family("s6"),
        ("verify-tables", "--algebra", "s6"),
        "class g2: member 'VII' names no orbit row"),
    "schouten-missing-row": (
        "schouten/table_g_l2.txt", G_L2_E2, "",
        lambda: load_schouten_table(*SCHOUTEN_TABLES[0]),
        ("verify-tables", "--algebra", "s1"),
        "section [s1] has 0 rows for e2, expected 1"),
    "schouten-repeated-row": (
        "schouten/table_g_l2.txt", G_L2_E2, f"{G_L2_E2}\n{G_L2_E2}",
        lambda: load_schouten_table(*SCHOUTEN_TABLES[0]),
        ("verify-tables", "--algebra", "s1"),
        "section [s1] has 2 rows for e2, expected 1"),
}


@pytest.mark.parametrize("case", sorted(INCONSISTENT))
def test_inconsistent_golden_file_is_an_input_error(case, tmp_path,
                                                    monkeypatch, capsys):
    rel, old, new, load, argv, message = INCONSISTENT[case]
    path, _ = _edited_copy(tmp_path, monkeypatch, rel, (old, new))
    with pytest.raises(classify.GoldenDataError) as info:
        load()
    assert str(info.value) == f"{path}: {message}"
    code, out = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err == f"error: {path}: {message}\n"


S1_TABLES = ("verify-tables", "--algebra", "s1")


def _s1_section(line: str, new: str, check=None, argv=S1_TABLES,
                message="division by zero"):
    """An EXPRESSIONS case for a line of a section of families/s1.txt."""
    return ("families/s1.txt", line, new,
            check or (lambda: verify_family_bundle("s1")), argv, message)


S1_RR = "2*(-x2*x5+x3*x4-x4*x5) | -2*x5^2 | 2*(x3-x5)*x6 | 2*x5*x6"
S1_AUT = "T(+,-) : 1 0 0 0 ; 0 1 0 0 ; 0 0 -1 0 ; 0 0 0 1"

# (file, line, replacement, check, CLI arguments, message) for expressions
# that compile but fail when a check evaluates them at the parameter values
# of a sample: the error names the file and the line
EXPRESSIONS = {
    "invariants-division": _s1_section("deg2 : e12", "deg2 : e12/0"),
    "derivations-division": _s1_section("0 0 m33 m34", "0 0 m33/0 m34"),
    "tree-derivations-division": _s1_section(
        "0 0 m33 m34", "0 0 m33/0 m34", lambda: verify_tree("s1"),
        ("darboux-verify", "--tree", "s1")),
    "fields-division": _s1_section("0 | x4 | x5 | 0 | 0 | 0",
                                   "0 | x4 | x5/0 | 0 | 0 | 0"),
    "bricks-division": _s1_section("x5 x6", "x5/0 x6"),
    "bricks-negative-power": _s1_section(
        "x5 x6", "x5^(0-1) x6",
        message="polynomial powers must be nonnegative integers"),
    "rr-division": _s1_section(S1_RR, S1_RR + "/0"),
    "mcybe-division": _s1_section("mcybe : x3*x4 | x3*x6 | x5",
                                  "mcybe : x3*x4 | x3*x6 | x5/0"),
    "cybe-division": _s1_section("cybe : x3*x4 | x3*x6 | x5",
                                 "cybe : x3*x4 | x3*x6 | x5/0"),
    "automorphism-division": _s1_section(
        S1_AUT, S1_AUT.replace(": 1 0", ": 1/0 0"),
        lambda: load_automorphisms(load_family("s1"), {},
                                   AlgebraContext(catalog("s1")))),
    "schouten-division": (
        "schouten/table_g_l2.txt", "e2 : 0 | 0 | 0 | 0 | e12 | e13",
        "e2 : 0 | 0 | 0 | 0 | e12/0 | e13",
        lambda: verify_schouten_family("s1"), S1_TABLES,
        "division by zero"),
    "tree-branch-division": (
        "trees/s1.txt", TREE_I, TREE_I.replace("| x1", "| 1/0*x1"),
        lambda: verify_tree("s1"), ("darboux-verify", "--tree", "s1"),
        "division by zero"),
    "orbit-rep-division": (
        "families/s1.txt", S1_I_PLUS, S1_I_PLUS.replace("rep=e12", "rep=e12/0"),
        lambda: expand_rows(load_family("s1"), {}),
        ("verify-tables", "--algebra", "s1"), "division by zero"),
    "orbit-sample-symbol": (
        "families/s1.txt", S1_I_PLUS, S1_I_PLUS + " sample=y,0,0,0,0,0",
        lambda: [rec.samples for rec in expand_rows(load_family("s1"), {})],
        ("verify-tables", "--algebra", "s1"), "unknown symbol 'y'"),
}


@pytest.mark.parametrize("case", sorted(EXPRESSIONS))
def test_bad_expression_names_file_and_row(case, tmp_path, monkeypatch,
                                           capsys):
    rel, old, new, check, argv, message = EXPRESSIONS[case]
    path, n = _edited_copy(tmp_path, monkeypatch, rel, (old, new))
    where = f"{path}:{n}: "
    with pytest.raises(classify.GoldenDataError) as info:
        check()
    assert str(info.value) == where + message
    code, out = run_cli(*argv)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {where}{message}\n"


@pytest.mark.parametrize("constant, reason", [
    ("0", "equalities are not a Darboux family at bound 2"),
    ("1", "no sample points")], ids=["zero", "one"])
def test_constant_tree_equality_fails_its_branch(constant, reason, tmp_path,
                                                 monkeypatch, capsys):
    _edited_copy(tmp_path, monkeypatch, "trees/s1.txt",
                 (TREE_I, TREE_I.replace("x2 |", f"x2, {constant} |")))
    code, out = run_cli("darboux-verify", "--tree", "s1")
    assert code == 1
    assert [line for line in out.splitlines() if "FAIL" in line] == [
        "tree s1: FAIL (8 branches, 3 no-solution leaves certified, "
        "0 unconfirmed)", f"  FAIL I : I: {reason}"]
    assert capsys.readouterr().err == ""


S1_VIII_PLUS = ("orbit VIII+ : dim=4 star=no rep=e12+e34 x1=+ x2=. x3=0 "
                "x4=. x5=0 x6=*")


def test_messages_print_sample_points_as_fractions(tmp_path, monkeypatch):
    """The three messages that name a sample point print it as a tuple of
    Fractions, denominators included: a rank and an mCYBE failure at orbit
    row samples (rows I+ and VIII+ loosened by one coordinate, each with a
    rational sample off the true locus), and a tree sample off its
    branch's locus (a sampler that accepts every point hands it on)."""
    from darbouxlie import darboux
    _edited_copy(tmp_path, monkeypatch, "families/s1.txt",
                 (S1_I_PLUS, S1_I_PLUS.replace("x2=0", "x2=.")
                  + " sample=1/2,-1/3,0,0,0,0"),
                 (S1_VIII_PLUS, S1_VIII_PLUS.replace("x3=0", "x3=.")
                  + " sample=1/2,0,1/3,0,0,3/2"))
    problems = {r.label: r.problems
                for r in verify_orbit_table("s1").rows if r.problems}
    assert problems == {
        "I+": ["rank at (Fraction(1, 2), Fraction(-1, 3), Fraction(0, 1), "
               "Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)) != 1"],
        "VIII+": ["sample (Fraction(1, 2), Fraction(0, 1), Fraction(1, 3), "
                  "Fraction(0, 1), Fraction(0, 1), Fraction(3, 2)) fails "
                  "the mCYBE"]}
    real = darboux.locus_sampler
    monkeypatch.setattr(darboux, "locus_sampler",
                        lambda branch: real(TreeBranch(branch.label, [])))
    _edited_copy(tmp_path / "tree", monkeypatch, "trees/s1.txt",
                 (TREE_I, TREE_I + " sample=1/2,-1/3,0,0,0,0"))
    [reason] = [r for label, _, r in verify_tree("s1").failures
                if label == "I"]
    assert reason == ("I: sample (Fraction(1, 2), Fraction(-1, 3), "
                      "Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), "
                      "Fraction(0, 1)) not in locus")


S1_I_MINUS = ("orbit I-    : dim=1 star=no rep=-e12 x1=- x2=0 x3=0 x4=0 "
              "x5=0 x6=0")
S1_II = "orbit II    : dim=1 star=no rep=e13 x1=0 x2=* x3=0 x4=0 x5=0 x6=0"
S1_VI = "orbit VI    : dim=3 star=no rep=e14 x1=. x2=. x3=* x4=0 x5=0 x6=0"


def test_representative_checks_report_every_problem_in_order(tmp_path,
                                                             monkeypatch):
    """Each check of a row's representative, failed on its own row of an
    edited s1 file: I+ with a representative off its locus, I- with the
    wrong orbit dimension (the representative, the first sample, then
    fails the rank check too), II with the wrong star mark, and VI with a
    representative off the mCYBE (x5 loosened, dimension 4 so that the
    rank check passes: the representative fails as the first sample, as
    itself and through the CYBE test behind the star mark)."""
    _edited_copy(tmp_path, monkeypatch, "families/s1.txt",
                 (S1_I_PLUS, S1_I_PLUS.replace("rep=e12", "rep=-e12")),
                 (S1_I_MINUS, S1_I_MINUS.replace("dim=1", "dim=2")),
                 (S1_II, S1_II.replace("star=no", "star=yes")),
                 (S1_VI, S1_VI.replace("dim=3", "dim=4")
                  .replace("rep=e14", "rep=e14+e24").replace("x5=0", "x5=.")))
    point = ("(" + ", ".join(f"Fraction({x}, 1)" for x in (0, 0, 1, 0, 1, 0))
             + ")")
    problems = {r.label: r.problems
                for r in verify_orbit_table("s1").rows if r.problems}
    assert problems == {
        "I+": ["representative violates its own constraints"],
        "I-": ["orbit dim 1 != expected 2",
               "rank at (Fraction(-1, 1), Fraction(0, 1), Fraction(0, 1), "
               "Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)) != 2"],
        "II": ["star mark inconsistent with the CYBE test"],
        "VI": [f"sample {point} fails the mCYBE",
               "representative fails the mCYBE",
               "star mark inconsistent with the CYBE test"]}
    code, out = run_cli(*S1_TABLES)
    assert code == 1
    assert [line.strip() for line in out.splitlines()
            if line.startswith("      ")] == [
        msg for label in ("I+", "I-", "II", "VI") for msg in problems[label]]


def test_unreached_sign_components_fail_verify_tables(tmp_path, monkeypatch,
                                                      capsys):
    # without T(+,-) and T(-,-) nothing maps x6 > 0 to x6 < 0 on the rows
    # VII, VIII+ and VIII-, whose representatives all have x6 = 1
    _edited_copy(tmp_path, monkeypatch, "families/s1.txt",
                 ("T(+,-) : 1 0 0 0 ; 0 1 0 0 ; 0 0 -1 0 ; 0 0 0 1", ""),
                 ("T(-,-) : -1 0 0 0 ; 0 -1 0 0 ; 0 0 -1 0 ; 0 0 0 1", ""))
    table = verify_orbit_table("s1")
    assert all(r.ok for r in table.rows)
    assert [label for label, _, _ in table.unmerged_components] == [
        "VII", "VIII+", "VIII-"]
    assert not table.passed
    code, out = run_cli("verify-tables", "--algebra", "s1")
    assert code == 1
    gaps = [line for line in out.splitlines() if "GAP" in line]
    assert [g.split()[1] for g in gaps] == ["VII", "VIII+", "VIII-"]
    assert all(g.endswith("GAP: sign components (-) not reached by the "
                          "shipped automorphisms") for g in gaps)
    assert out.splitlines()[0] == "family file s1: FAIL"
    assert out.endswith("verify-tables: FAILURES\n")


def _fraction_merge_gaps(lifted, rec):
    """The merge walk in Fraction arithmetic, the reference for
    ``classify._component_merge_gaps``: each lift applied to
    Fraction points by ``matvec``, the locus and the signs read with ``Poly.eval``.
    Returns the missed sign components and the number of components the
    samples show."""
    branch = rec.branch
    strict = [f for f, op in branch.inequalities
              if op == "!=" and f.degree() == 1]

    def signature(p):
        return tuple(1 if f.eval(p) > 0 else -1 for f in strict)

    def on_locus(p):
        values = [(f.eval(p), op) for f, op in branch.inequalities]
        return (not any(f.eval(p) for f in branch.equalities)
                and all({"!=": v != 0, ">": v > 0, "<": v < 0}[op]
                        for v, op in values))

    comps = dict.fromkeys(signature(rational_point(*s)) for s in rec.samples)
    if not strict or len(comps) <= 1:
        return [], len(comps)
    start = rec.rep.coords()
    reached, frontier = {signature(start)}, [start]
    while frontier:
        p = frontier.pop()
        for L in lifted:
            image = L.matvec(p)
            if on_locus(image) and signature(image) not in reached:
                reached.add(signature(image))
                frontier.append(image)
    return [s for s in comps if s not in reached], len(comps)


def _merge_walks(stem):
    """(label, integer walk, Fraction walk, components) for every orbit
    record of every parameter sample of a family file."""
    fam = load_family(stem)
    out = []
    for ps, _, g in classify.qualifying_samples(fam):
        ctx = AlgebraContext(g)
        lifted = [ctx.lift_automorphism(T)
                  for _, T in load_automorphisms(fam, ps, ctx)]
        for rec in expand_rows(fam, ps):
            want, ncomps = _fraction_merge_gaps(lifted, rec)
            out.append((rec.label, classify._component_merge_gaps(
                lifted, rec), want, ncomps))
    return out


def test_integer_merge_walk_matches_the_fraction_walk(tmp_path, monkeypatch):
    """On every shipped row, and on the s1 copy without T(+,-) and T(-,-),
    the walk on integer points misses the sign components that the walk
    on Fraction points misses."""
    walks = [w for stem in FAMILY_FILES for w in _merge_walks(stem)]
    assert [w[1] for w in walks] == [w[2] for w in walks]
    assert sum(ncomps > 1 for *_, ncomps in walks) >= 20
    assert not any(got for _, got, _, _ in walks)
    _edited_copy(tmp_path, monkeypatch, "families/s1.txt",
                 ("T(+,-) : 1 0 0 0 ; 0 1 0 0 ; 0 0 -1 0 ; 0 0 0 1", ""),
                 ("T(-,-) : -1 0 0 0 ; 0 -1 0 0 ; 0 0 -1 0 ; 0 0 0 1", ""))
    edited = _merge_walks("s1")
    assert [w[1] for w in edited] == [w[2] for w in edited]
    assert [(label, got) for label, got, _, _ in edited if got] == [
        ("VII", [(-1,)]), ("VIII+", [(-1,)]), ("VIII-", [(-1,)])]


def test_merge_walk_keeps_the_denominators():
    """A strict form with a constant term, x6 != 1, and a lift that scales
    x6 by 1/4: the sign of x6 - 1 at an image, and whether the image is on
    the locus, depend on the denominators of the point and of the lift,
    and the integer walk keeps both.  From x6 = 2 the lift reaches x6 < 1;
    from x6 = 4 it lands on x6 = 1, off the locus."""
    quarter = RatMatrix([[Fraction(int(i == j), 4 if i == 5 else 1)
                          for j in range(6)]
                         for i in range(6)])
    for rep, lifted, want in ((2, [], [(-1,)]), (2, [quarter], []),
                              (4, [quarter], [(-1,)])):
        rec = expand_rows(load_family("s1"), {})[0]
        rec.branch = TreeBranch("c", [], [(Poly.var(5) - 1, "!=")])
        rec.rep = MultiVector.from_coords(4, 2, [0, 0, 0, 0, 0, rep])
        # the points x6 = 2, 1/2 and 3 as (den, q)
        rec.samples = [(d, (0,) * 5 + (n,)) for d, n in ((1, 2), (2, 1),
                                                         (1, 3))]
        assert classify._component_merge_gaps(lifted, rec) == want
        assert _fraction_merge_gaps(lifted, rec) == (want, 2)


# ---------------------------------------------------------------------------
# generated one-line mutations of the shipped files
# ---------------------------------------------------------------------------

GOLDEN = ([("families", s, lambda s=s: load_family(s)) for s in FAMILY_FILES]
          + [("trees", s, lambda s=s: load_tree(s)) for s in TREE_FILES]
          + [("schouten", spec[0].removesuffix(".txt"),
              lambda spec=spec: load_schouten_table(*spec))
             for spec in SCHOUTEN_TABLES])

#: names that a changed key or section name may take
NAMES = ["orbit", "orbits", "class", "classes", "skipclasses", "deg2",
         "deg3", "deg4", "mcybe", "cybe", "bricks", "rr", "family",
         "algebra", "when", "samples", "tree", "branch", "nosol", "dim", "k",
         "sample", "rep", "star", "forall", "note", "x1", "x7", "e1", "e12",
         "s1", "n1", "if", "alpha"]


def _lines(kind, stem):
    text = (SHIPPED / kind / f"{stem}.txt").read_text().splitlines()
    return [i for i, line in enumerate(text)
            if line.split("#", 1)[0].strip()], text


def _mutate(line, how, pick, name):
    if how == "section" or (line.startswith("[") and line.endswith("]")):
        return f"[{name}]" if line.startswith("[") else f"{name} {line}"
    toks = line.split()
    i = pick % len(toks)
    key, eq, val = toks[i].partition("=")
    if how == "delete":
        del toks[i]
    elif how == "key":
        toks[i] = f"{name}={val}" if eq else name
    else:  # a zero denominator
        toks[i] = f"{key}=1/0" if eq else "1/0"
    return " ".join(toks)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(which=st.sampled_from(GOLDEN), line_pick=st.integers(0, 10**6),
       how=st.sampled_from(["delete", "key", "section", "zero"]),
       pick=st.integers(0, 50), name=st.sampled_from(NAMES))
def test_mutated_golden_file_loads_or_is_an_input_error(
        which, line_pick, how, pick, name, tmp_path, monkeypatch):
    kind, stem, load = which
    usable, text = _lines(kind, stem)
    i = usable[line_pick % len(usable)]
    text = list(text)
    text[i] = _mutate(text[i], how, pick, name)
    (tmp_path / kind).mkdir(exist_ok=True)
    (tmp_path / kind / f"{stem}.txt").write_text("\n".join(text) + "\n")
    monkeypatch.setenv("DARBOUXLIE_DATA", str(tmp_path))
    try:
        load()
    except classify.GoldenDataError as e:
        assert str(e).startswith(f"{tmp_path / kind / stem}.txt:")
    except ValueError:
        pass
    finally:
        monkeypatch.delenv("DARBOUXLIE_DATA")


# ---------------------------------------------------------------------------
# expression-syntax mutations: every expression is compiled at load
# ---------------------------------------------------------------------------

def _golden_exprs(obj):
    """Every GoldenExpr read from a line of a loaded golden file."""
    if isinstance(obj, classify.GoldenExpr):
        if obj.where:
            yield obj
    elif isinstance(obj, (list, tuple)):
        for o in obj:
            yield from _golden_exprs(o)
    elif isinstance(obj, dict):
        for o in obj.values():
            yield from _golden_exprs(o)
    elif hasattr(obj, "__dict__"):  # a plain-class record: OrbitRow
        yield from _golden_exprs(vars(obj))


@functools.cache
def _shipped_exprs(kind, stem, load):
    """(line number, text) of each expression of a shipped file."""
    return sorted({(int(e.where.rsplit(":", 1)[1]), e.text)
                   for e in _golden_exprs(load())})


def _load_with_syntax_error(kind, stem, load, lineno, text, junk, tmp_path,
                            monkeypatch):
    """Append ``junk`` to every occurrence of ``text`` on line ``lineno``
    of a copy of the shipped file, and check that the load names it."""
    lines = (SHIPPED / kind / f"{stem}.txt").read_text().splitlines()
    lines[lineno - 1] = lines[lineno - 1].replace(text, text + junk)
    (tmp_path / kind).mkdir(exist_ok=True)
    path = tmp_path / kind / f"{stem}.txt"
    path.write_text("\n".join(lines) + "\n")
    monkeypatch.setenv("DARBOUXLIE_DATA", str(tmp_path))
    try:
        with pytest.raises(classify.GoldenDataError) as info:
            load()
    finally:
        monkeypatch.delenv("DARBOUXLIE_DATA")
    assert str(info.value).startswith(f"{path}:{lineno}: ")


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(which=st.sampled_from(GOLDEN), pick=st.integers(0, 10**6),
       junk=st.sampled_from(["+", "(", "*", "/)"]))
def test_expression_syntax_error_fails_the_load_at_its_line(
        which, pick, junk, tmp_path, monkeypatch):
    exprs = _shipped_exprs(*which)
    lineno, text = exprs[pick % len(exprs)]
    _load_with_syntax_error(*which, lineno, text, junk, tmp_path,
                            monkeypatch)


def _section(lines, lineno):
    for line in reversed(lines[:lineno]):
        text = line.split("#", 1)[0].strip()
        if text.startswith("[") and text.endswith("]"):
            return text
    return "header"


FAMILY_SECTIONS = ["header", "[invariants]", "[derivations]", "[fields]",
                   "[bricks]", "[rr]", "[mcybe]", "[cybe]", "[automorphisms]",
                   "[orbits]", "[classes]"]


@pytest.mark.parametrize("which, sections", [
    (GOLDEN[FAMILY_FILES.index("s3")], FAMILY_SECTIONS),
    (GOLDEN[len(FAMILY_FILES) + TREE_FILES.index("s3")], ["header"]),
    *[(GOLDEN[len(FAMILY_FILES) + len(TREE_FILES) + i],
       [f"[{f}]" for f in FAMILIES]) for i in range(len(SCHOUTEN_TABLES))]],
    ids=["families-s3", "trees-s3", *(spec[0] for spec in SCHOUTEN_TABLES)])
def test_expression_syntax_error_in_every_section(which, sections, tmp_path,
                                                  monkeypatch):
    kind, stem, _ = which
    lines = (SHIPPED / kind / f"{stem}.txt").read_text().splitlines()
    first = {}
    for lineno, text in _shipped_exprs(*which):
        first.setdefault(_section(lines, lineno), (lineno, text))
    assert sorted(first) == sorted(sections)
    for lineno, text in first.values():
        for junk in ("+", "("):
            _load_with_syntax_error(*which, lineno, text, junk, tmp_path,
                                    monkeypatch)
