"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is exact (tolerance zero); the stated runtime budgets are
asserted.  Printed-table entries whose printed value is refuted by the
exact engine are carried as machine-verified errata (three Schouten
entries, a handful of orbit dimensions and representative pairings); the
suite requires every such erratum to be explicitly recorded in the golden
data, never silently patched.
"""

import random
import time
from fractions import Fraction

from darbouxlie.classify import (FAMILY_FILES, TREE_FILES, expand_rows,
                                 load_family, verify_coboundary_classes,
                                 verify_orbit_table, verify_schouten_family,
                                 verify_tree, qualifying_samples)
from darbouxlie.centerext import build_rep, solve_grading
from darbouxlie.darboux import find_bricks
from darbouxlie.derivations import derivation_basis, fundamental_fields
from darbouxlie.exactmath import RatMatrix, normalize_poly
from darbouxlie.grassmann import (MultiVector, blades, invariants, schouten,
                                  wedge)
from darbouxlie.liealg import bracket, catalog, center, from_brackets
from darbouxlie.yangbaxter import is_mcybe_solution, yb_system
from oracles import cocycle_defect, commutator, span_contains

ALL_FAMILIES = ["s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9",
                "s10", "s11", "s12", "n1"]


def report(num, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_schouten_golden_suite():
    t0 = time.time()
    mismatches = []
    errata = []
    for fam in ALL_FAMILIES:
        bad, err = verify_schouten_family(fam)
        mismatches.extend(bad)
        errata.extend(err)
    dt = time.time() - t0
    ok = not mismatches and dt < 5.0 and len(errata) == 3
    report(1, ok, f"all bracket-table entries exact across {len(ALL_FAMILIES)}"
                  f" families, {len(errata)} recorded errata, {dt:.2f}s")


def _int_polys(polys):
    out = []
    for p in polys:
        q = normalize_poly(p)
        out.append([(int(c), m) for m, c in q.terms.items()])
    return out


def _eval_int(poly, pt):
    total = 0
    for c, m in poly:
        v = c
        for var, e in m:
            v *= pt[var] ** e
        total += v
    return total


def test_criterion_2_yang_baxter_loci():
    t0 = time.time()
    rng = random.Random(20240131)
    failures = []
    for stem in FAMILY_FILES:
        fam = load_family(stem)
        for ps, sp, g in qualifying_samples(fam):
            golden = next(([e.poly(sp) for e in polys]
                           for cond, polys in fam.mcybe if cond(sp)), None)
            if golden is None:
                continue
            computed = [p for p in yb_system(g).mcybe if not p.is_zero()]
            A = _int_polys(computed)
            B = _int_polys([q for q in golden if not q.is_zero()])
            agreements = 0
            for _ in range(10_000):
                pt = [0] * 6
                for i in rng.sample(range(6), rng.randint(0, 6)):
                    pt[i] = rng.randint(-3, 3)
                on_a = all(_eval_int(p, pt) == 0 for p in A)
                on_b = all(_eval_int(p, pt) == 0 for p in B)
                if on_a != on_b:
                    failures.append((stem, ps, pt))
                    break
                agreements += on_a
            # loci_agree's seeded integer points plus the exact span
            # equality of the reduced systems
            from darbouxlie.classify import (_poly_span_equal,
                                             _same_real_locus, loci_agree)
            gold_nz = [q for q in golden if not q.is_zero()]
            if not loci_agree(computed, gold_nz, npoints=200):
                failures.append((stem, ps, "loci_agree"))
            if not _poly_span_equal([normalize_poly(q) for q in gold_nz],
                                    yb_system(g).reduced):
                failures.append((stem, ps, "span"))
            # the exact certificate that verify-tables checks: the
            # reduction's witnesses tie the raw locus to the reduced one
            ybs = yb_system(g)
            if not _same_real_locus(computed, ybs.witnesses, ybs.reduced):
                failures.append((stem, ps, "certificate"))
    dt = time.time() - t0
    ok = not failures and dt < 30.0
    report(2, ok, f"mCYBE loci match the published systems at 10^4 points "
                  f"per block sample plus exact span reduction and its "
                  f"locus certificate, {dt:.1f}s"
                  + (f"; failures {failures[:2]}" if failures else ""))


INVARIANT_CASES = [
    ("s1", {}, ["e12"], []),
    ("s2", {}, [], []),
    ("s3", dict(alpha=Fraction(-1, 2), beta=Fraction(-1, 2)), [], ["e123"]),
    ("s3", dict(alpha=1, beta=-1), ["e13", "e23"], []),
    ("s3", dict(alpha=Fraction(1, 2), beta=Fraction(-1, 2)), ["e23"], []),
    ("s3", dict(alpha=-1, beta=Fraction(1, 2)), ["e12"], []),
    ("s4", dict(alpha=-1), ["e13"], []),
    ("s4", dict(alpha=-2), [], ["e123"]),
    ("s4", dict(alpha=2), [], []),
    ("s5", dict(alpha=1, beta=0), ["e23"], []),
    ("s5", dict(alpha=2, beta=-1), [], ["e123"]),
    ("s6", {}, [], ["e123"]),
    ("s7", {}, [], ["e123"]),
    ("s8", dict(alpha=Fraction(-1, 2)), ["e13"], []),
    ("s8", dict(alpha=1), [], []),
    ("s9", dict(alpha=2), [], []),
    ("s10", {}, [], []),
    ("s11", {}, [], []),
    ("s12", {}, [], []),
    ("n1", {}, ["e12"], ["e123", "e124"]),
]


def test_criterion_3_invariant_spaces():
    bad = []
    for fam, params, inv2, inv3 in INVARIANT_CASES:
        g = catalog(fam, **params)
        got2 = sorted(w.text() for w in invariants(g, 2))
        got3 = sorted(w.text() for w in invariants(g, 3))
        if got2 != sorted(inv2) or got3 != sorted(inv3):
            bad.append((fam, params, got2, got3))
    report(3, not bad, f"invariant bivector/trivector spaces match all "
                       f"{len(INVARIANT_CASES)} published statements"
                       + (f"; bad {bad[:2]}" if bad else ""))


def test_criterion_4_orbit_dimensions_and_5_star_consistency():
    t0 = time.time()
    dim_failures = []
    star_failures = []
    errata = []
    nrows = 0
    for stem in FAMILY_FILES:
        table = verify_orbit_table(stem)
        for row in table.rows:
            nrows += 1
            for p in row.problems:
                if "dim" in p or "rank" in p:
                    dim_failures.append((stem, row.label, p))
                elif "star" in p or "mCYBE" in p or "CYBE" in p:
                    star_failures.append((stem, row.label, p))
                else:
                    dim_failures.append((stem, row.label, p))
            errata.extend(row.errata)
        if table.unmerged_components:
            dim_failures.append((stem, "components",
                                 table.unmerged_components[:1]))
    dt = time.time() - t0
    ok4 = not dim_failures and dt < 30.0
    report(4, ok4, f"orbit dimensions match the published Dim column on all "
                   f"{nrows} records ({len(errata)} recorded errata), {dt:.1f}s"
                   + (f"; failures {dim_failures[:2]}" if dim_failures else ""))
    report(5, not star_failures,
           "starred representatives fail the CYBE, unstarred pass it, and "
           "every representative solves the mCYBE"
           + (f"; failures {star_failures[:2]}" if star_failures else ""))


def test_criterion_6_darboux_verification():
    t0 = time.time()
    brick_expect = {"s1": ["x5", "x6"],
                    "s5": ["x3"],
                    "s6": ["x5", "x6"]}
    params = {"s5": dict(alpha=1, beta=1)}
    bad = []
    for fam, want in brick_expect.items():
        g = catalog(fam, **params.get(fam, {}))
        got = [b.poly.text() for b in find_bricks(fundamental_fields(g, 2))]
        if got != want:
            bad.append((fam, got))
    tree_failures = []
    unconfirmed = []
    nbranches = ncert = 0
    for stem in TREE_FILES:
        rep = verify_tree(stem)
        nbranches += len(rep.verified)
        ncert += len(rep.nosol)
        tree_failures.extend(rep.failures)
        unconfirmed.extend(rep.unconfirmed)
    dt = time.time() - t0
    ok = not bad and not tree_failures and not unconfirmed and dt < 120.0
    report(6, ok, f"bricks match; {nbranches} tree branches verified with "
                  f"exact cofactors and {ncert} no-solution leaves "
                  f"certified exactly, 0 unconfirmed, {dt:.1f}s"
                  + (f"; problems {(bad + tree_failures)[:2]}"
                     if bad or tree_failures else ""))


def test_criterion_7_central_extension():
    t0 = time.time()
    problems = []
    feasible = []
    for fam in ALL_FAMILIES:
        ps = {"s3": dict(alpha=Fraction(1, 2), beta=Fraction(1, 3)),
              "s4": dict(alpha=2), "s5": dict(alpha=1, beta=0),
              "s8": dict(alpha=Fraction(1, 2)),
              "s9": dict(alpha=1)}.get(fam, {})
        g = catalog(fam, **ps)
        if not center(g):
            continue
        sol = solve_grading(g)
        if sol is None:
            problems.append((fam, "infeasible despite nontrivial center"))
            continue
        build_rep(g, sol)  # raises on any fidelity/faithfulness failure
        feasible.append(fam)
    # the printed matrices for the first family
    g = catalog("s1")
    sol = solve_grading(g)
    if sol.alphas != (1, 1, 0, 0):
        problems.append(("s1", f"grading {sol.alphas}"))
    R = build_rep(g, sol).matrices

    def M(entries):
        m = [[Fraction(0)] * 5 for _ in range(5)]
        for (i, j), v in entries.items():
            m[i - 1][j - 1] = Fraction(v)
        return RatMatrix(m)

    printed = [M({(1, 5): -1}), M({(1, 4): -1, (2, 5): -1}),
               M({(3, 4): -1}), M({(1, 2): 1, (3, 3): 1})]
    if R != printed:
        problems.append(("s1", "matrices differ from the printed ones"))
    # the six- and seven-dimensional counterexamples
    g6 = from_brackets(6, {(1, 2): [1, 0, 0, 0, 0, 0],
                           (4, 0): [1, 0, 0, 0, 0, 0],
                           (4, 1): [0, 1, 0, 0, 0, 0],
                           (5, 0): [1, 0, 0, 0, 0, 0],
                           (5, 2): [0, 0, 1, 0, 0, 0],
                           (5, 4): [0, 0, 0, 1, 0, 0]})
    g7 = from_brackets(7, {(0, 1): [0, 0, 1, 0, 0, 0, 0],
                           (0, 2): [0, 0, 0, 1, 0, 0, 0],
                           (0, 3): [0, 0, 0, 0, 1, 0, 0],
                           (0, 5): [0, 0, 0, 0, 0, 0, 1],
                           (1, 2): [0, 0, 0, 0, 0, 1, 0],
                           (1, 3): [0, 0, 0, 0, 0, 0, 1],
                           (1, 4): [0, 0, 0, 0, 0, 0, 1],
                           (1, 5): [0, 0, 0, 0, 0, 0, 1],
                           (2, 3): [0, 0, 0, 0, 0, 0, -1]})
    if solve_grading(g6) is not None:
        problems.append(("6-dim", "should be infeasible"))
    if solve_grading(g7) is not None:
        problems.append(("7-dim", "should be infeasible"))
    dt = time.time() - t0
    ok = not problems and feasible == ["s1", "s6", "s7", "n1"] and dt < 5.0
    report(7, ok, f"graded extensions verified for {feasible} (commutation "
                  f"fidelity + faithfulness), printed matrices reproduced, "
                  f"both counterexamples infeasible, {dt:.2f}s"
                  + (f"; problems {problems[:2]}" if problems else ""))


def test_criterion_8_coboundary_classes():
    unwitnessed = []
    nclasses = 0
    skipped = []
    for stem in FAMILY_FILES:
        for rep in verify_coboundary_classes(stem):
            if rep.skipped:
                skipped.append((stem, rep.skipped))
                continue
            nclasses += len(rep.witnessed)
            unwitnessed.extend((stem, u) for u in rep.unwitnessed)
    ok = not unwitnessed
    report(8, ok, f"{nclasses} printed class groupings machine-witnessed via "
                  f"the shipped automorphisms; {len(unwitnessed)} unwitnessed"
                  f"; {len(skipped)} parameter regime(s) without a printed "
                  f"grouping skipped")


def test_criterion_9_property_suites():
    rng = random.Random(424242)
    instances = 0
    failures = []

    def rmv(deg):
        terms = {}
        for mask in blades(4, deg):
            if rng.random() < 0.6:
                terms[mask] = Fraction(rng.randint(-4, 4),
                                       rng.randint(1, 3))
        return MultiVector(4, deg, terms)

    params = {"s3": dict(alpha=Fraction(1, 2), beta=Fraction(1, 3)),
              "s4": dict(alpha=3), "s5": dict(alpha=1, beta=-2),
              "s8": dict(alpha=Fraction(1, 2)), "s9": dict(alpha=2)}
    algebras = [catalog(f, **params.get(f, {})) for f in ALL_FAMILIES]

    # graded symmetry and graded Leibniz of the bracket
    for _ in range(320):
        g = rng.choice(algebras)
        s, l = rng.choice([(1, 1), (1, 2), (2, 2), (2, 3), (3, 1)])
        a, b = rmv(s), rmv(l)
        sym = schouten(g, a, b) + ((-1) ** ((s - 1) * (l - 1))) * \
            schouten(g, b, a)
        if not sym.is_zero():
            failures.append(("symmetry", g.name))
        c = rmv(1)
        lhs = schouten(g, a, wedge(b, c))
        rhs = wedge(schouten(g, a, b), c) + \
            ((-1) ** ((s - 1) * l)) * wedge(b, schouten(g, a, c))
        if lhs != rhs:
            failures.append(("leibniz", g.name))
        instances += 2

    # Jacobi on random rational triples
    for g in algebras:
        for _ in range(16):
            u, v, w = ([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                        for _ in range(4)] for _ in range(3))
            total = [a + b + c for a, b, c in zip(
                bracket(g, bracket(g, u, v), w),
                bracket(g, bracket(g, v, w), u),
                bracket(g, bracket(g, w, u), v))]
            if any(t != 0 for t in total):
                failures.append(("jacobi", g.name))
            instances += 1

    # derivation-space closure under the commutator
    for g in algebras:
        ders = derivation_basis(g)
        basis = [d.flat() for d in ders]
        for a in ders:
            for b in ders:
                if not span_contains(basis, commutator(a, b).flat()):
                    failures.append(("closure", g.name))
                instances += 1

    # cocycle identity for every table representative
    for stem in FAMILY_FILES:
        fam = load_family(stem)
        for ps, _, g in qualifying_samples(fam):
            for rec in expand_rows(fam, ps):
                if not is_mcybe_solution(g, rec.rep):
                    failures.append(("mcybe-rep", rec.label))
                for i in range(4):
                    for j in range(i + 1, 4):
                        if not cocycle_defect(g, rec.rep, i, j).is_zero():
                            failures.append(("cocycle", stem, rec.label))
                        instances += 1
    ok = not failures and instances >= 1000
    report(9, ok, f"{instances} randomized exact instances across the "
                  f"graded-symmetry, Leibniz, Jacobi, derivation-closure and "
                  f"cocycle suites, {len(failures)} failures"
                  + (f": {failures[:3]}" if failures else ""))
