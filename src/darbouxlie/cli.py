"""Command-line front end.

Subcommands: validate, derivations, invariants, schouten, ybe, bricks,
darboux-verify, orbit-dim, rank-at, center-ext, verify-tables,
coboundary-classes.  Algebras come from the catalog (``--algebra s3
--param alpha=1/2 --param beta=1/3``) or from a bracket-table file.
Output is deterministic text or JSON; exit status is 0 on success or
all-pass, 1 on verification failure, 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import classify
from .centerext import RepresentationInvalid, build_rep, solve_grading
from .darboux import BranchInvalid, find_bricks
from .derivations import derivation_basis, fundamental_fields, orbit_dim, rank_at
from .exactmath import Poly, RatMatrix, mono_str
from .grassmann import MultiVector, invariants
from .liealg import FAMILIES, catalog, parse_algebra, validate
from .yangbaxter import NotAnAutomorphism, yb_system
from .classify import (FAMILY_FILES, TREE_FILES, WitnessMissing,
                       parse_multivector, verify_coboundary_classes,
                       verify_orbit_table, verify_schouten_family, verify_tree)


class InputError(ValueError):
    pass


#: ValueErrors that report a failed check (exit 1), not bad input (exit 2)
VERIFICATION_FAILURES = (WitnessMissing, BranchInvalid, NotAnAutomorphism,
                         RepresentationInvalid)


def _rat_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _fraction(text: str) -> Fraction:
    """An exact rational given on the command line."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise InputError(f"zero denominator in {text.strip()!r}") from None


def _load_algebra(args, check: bool = True):
    """The algebra that ``--algebra`` names.  With ``check``, a file whose
    brackets fail the Jacobi identity is an input error."""
    params = {}
    for p in args.param or []:
        if "=" not in p:
            raise InputError(f"bad --param {p!r}, expected name=value")
        k, v = p.split("=", 1)
        k = k.strip()
        if k in params:
            raise InputError(f"--param {k} is given twice")
        params[k] = _fraction(v)
    src = args.algebra
    if src in FAMILIES:
        return catalog(src, **params)
    if params:
        raise InputError(f"--param needs a catalog family, not {src!r}")
    try:
        text = open(src).read()
    except OSError as e:
        raise InputError(f"cannot read algebra source {src!r}: {e}") from e
    g = parse_algebra(text, name=src)
    bad = validate(g) if check else []
    if bad:
        raise InputError(f"{src} is not a Lie algebra: {bad[0]}")
    return g


def _mv_json(w: MultiVector) -> dict:
    terms = {}
    for mask in sorted(w.terms, key=lambda m: tuple(
            i for i in range(8) if m & (1 << i))):
        key = "".join(str(i + 1) for i in range(8) if mask & (1 << i))
        terms[key] = _rat_str(w.terms[mask])
    return {"deg": w.degree, "terms": terms}


def _poly_json(p: Poly) -> dict:
    return {mono_str(m): _rat_str(c) for m, c in p.sorted_terms()}


def _matrix_lines(m: RatMatrix) -> list[str]:
    return [" ".join(_rat_str(x) for x in row) for row in m.entries]


def _emit(args, text_lines, json_obj) -> None:
    if args.format == "json":
        payload = json.dumps(json_obj, indent=2)
    else:
        payload = "\n".join(text_lines)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload + "\n")
        except OSError as e:
            raise InputError(f"cannot write {args.out!r}: {e.strerror}") from e
    else:
        print(payload)


def cmd_validate(args):
    g = _load_algebra(args, check=False)
    bad = validate(g)
    _emit(args, [f"algebra {g.name}: " + ("valid" if not bad else "INVALID")]
          + bad, {"algebra": g.name, "valid": not bad, "violations": bad})
    return 0 if not bad else 1


def cmd_derivations(args):
    g = _load_algebra(args)
    ders = derivation_basis(g)
    lines = [f"derivation algebra of {g.name}: dimension {len(ders)}"]
    for i, d in enumerate(ders):
        lines.append(f"d{i + 1}:")
        lines.extend("  " + s for s in _matrix_lines(d))
    _emit(args, lines, {"algebra": g.name, "dimension": len(ders),
                        "basis": [_matrix_lines(d) for d in ders]})
    return 0


def cmd_invariants(args):
    if args.degree < 0:
        raise InputError(f"--degree must be at least 0, got {args.degree}")
    g = _load_algebra(args)
    inv = invariants(g, args.degree)
    lines = [f"({chr(0x39b)}^{args.degree} g)^g of {g.name}: dimension {len(inv)}"]
    lines += ["  " + v.text() for v in inv]
    _emit(args, lines, {"algebra": g.name, "degree": args.degree,
                        "dimension": len(inv),
                        "basis": [_mv_json(v) for v in inv]})
    return 0


def cmd_schouten(args):
    g = _load_algebra(args)
    from .grassmann import schouten
    a = parse_multivector(args.left, {}, g.dim)
    b = parse_multivector(args.right, {}, g.dim)
    out = schouten(g, a, b)
    _emit(args, [f"[{args.left}, {args.right}] = {out.text()}"],
          {"algebra": g.name, "left": args.left, "right": args.right,
           "bracket": _mv_json(out)})
    return 0


def cmd_ybe(args):
    g = _load_algebra(args)
    ybs = yb_system(g)
    lines = [f"Yang-Baxter data for {g.name}"]
    lines.append("mCYBE generators (reduced): {" +
                 ", ".join(p.text() for p in ybs.reduced) + "}")
    lines.append("mCYBE component span: {" +
                 ", ".join(p.text() for p in ybs.mcybe if not p.is_zero())
                 + "}")
    lines.append("CYBE components: {" +
                 ", ".join(p.text() for p in ybs.cybe if not p.is_zero())
                 + "}")
    lines.append("(L^3 g)^g basis: {" +
                 ", ".join(v.text() for v in ybs.inv3) + "}")
    _emit(args, lines, {
        "algebra": g.name,
        "mcybe_reduced": [_poly_json(p) for p in ybs.reduced],
        "mcybe_span": [_poly_json(p) for p in ybs.mcybe if not p.is_zero()],
        "cybe": [_poly_json(p) for p in ybs.cybe if not p.is_zero()],
        "invariant3": [_mv_json(v) for v in ybs.inv3]})
    return 0


def cmd_bricks(args):
    g = _load_algebra(args)
    bricks = find_bricks(fundamental_fields(g, 2))
    lines = [f"bricks of {g.name}: {{" +
             ", ".join(b.poly.text() for b in bricks) + "}"]
    for b in bricks:
        lines.append(f"  {b.poly.text()}: eigenvalues "
                     f"({', '.join(_rat_str(x) for x in b.eigenvalues)})")
    _emit(args, lines, {"algebra": g.name,
                        "bricks": [{"poly": _poly_json(b.poly),
                                    "eigenvalues": [_rat_str(x)
                                                    for x in b.eigenvalues]}
                                   for b in bricks]})
    return 0


def cmd_orbit_dim(args):
    g = _load_algebra(args)
    w = parse_multivector(args.bivector, {}, g.dim)
    d = orbit_dim(g, w)
    _emit(args, [f"orbit dimension of {args.bivector} under Aut({g.name}): {d}"],
          {"algebra": g.name, "bivector": args.bivector, "orbit_dim": d})
    return 0


def cmd_rank_at(args):
    g = _load_algebra(args)
    coords = [_fraction(v) for v in args.point.split(",")]
    need = g.dim * (g.dim - 1) // 2
    if len(coords) != need:
        raise InputError(f"a point of Λ²({g.name}) needs {need} coordinates, "
                         f"got {len(coords)}")
    fields = fundamental_fields(g, 2)
    r = rank_at(fields, coords)
    _emit(args, [f"rank of the fundamental distribution at ({args.point}): {r}"],
          {"algebra": g.name, "point": args.point, "rank": r})
    return 0


def cmd_center_ext(args):
    g = _load_algebra(args)
    sol = solve_grading(g)
    if sol is None:
        _emit(args, [f"{g.name}: no admissible grading extension exists"],
              {"algebra": g.name, "feasible": False})
        return 1
    rep = build_rep(g, sol)
    lines = [f"grading for {g.name}: alpha = ("
             + ", ".join(_rat_str(x) for x in sol.alphas) + ")"]
    for i, m in enumerate(rep.matrices):
        lines.append(f"R_e{i + 1}:")
        lines.extend("  " + s for s in _matrix_lines(m))
    _emit(args, lines, {"algebra": g.name, "feasible": True,
                        "alphas": [_rat_str(x) for x in sol.alphas],
                        "matrices": [_matrix_lines(m) for m in rep.matrices]})
    return 0


def cmd_darboux_verify(args):
    stems = TREE_FILES if args.tree == "all" else [args.tree]
    lines = []
    ok = True
    payload = []
    for stem in stems:
        rep = verify_tree(stem)
        ok = ok and rep.passed
        lines.append(f"tree {stem}: "
                     f"{'PASS' if rep.passed else 'FAIL'} "
                     f"({len(rep.verified)} branches, {len(rep.nosol)} "
                     f"no-solution leaves certified, "
                     f"{len(rep.unconfirmed)} unconfirmed)")
        for label, ps, reason in rep.failures:
            lines.append(f"  FAIL {label} {_pstr(ps)}: {reason}")
        for label, ps in rep.unconfirmed:
            lines.append(f"  UNCONFIRMED {label} {_pstr(ps)}")
        payload.append({"tree": stem, "passed": rep.passed,
                        "verified": len(rep.verified),
                        "nosol": len(rep.nosol),
                        "unconfirmed": [l for l, _ in rep.unconfirmed],
                        "failures": [f"{l}: {r}"
                                     for l, _, r in rep.failures]})
    _emit(args, lines, payload)
    return 0 if ok else 1


def _pstr(ps: dict) -> str:
    if not ps:
        return ""
    return "(" + ",".join(f"{k}={_rat_str(Fraction(v))}"
                          for k, v in sorted(ps.items())) + ")"


def _verify_one_family(stem: str):
    """The orbit-table and bundle checks of one family file: whether they
    pass, their report lines, the errata, and the file's algebra, whose
    Schouten tables ``cmd_verify_tables`` checks next."""
    lines = []
    ok = True
    errata = []
    table = verify_orbit_table(stem)
    for r in table.rows:
        mark = "ok" if r.ok else "FAIL"
        lines.append(f"  row {r.label:12s} {_pstr(r.params):24s} {mark}")
        if not r.ok:
            ok = False
            lines.extend(f"      {p}" for p in r.problems)
        for e in r.errata:
            errata.append(f"{stem} {r.label} {_pstr(r.params)}: {e}")
    for label, ps, missed in table.unmerged_components:
        ok = False
        signs = ", ".join("(" + ",".join("+" if x > 0 else "-" for x in s)
                          + ")" for s in missed)
        lines.append(f"  row {label:12s} {_pstr(ps):24s} GAP: sign "
                     f"components {signs} not reached by the shipped "
                     f"automorphisms")
    for b in table.bundles:
        mark = "ok" if b.ok else "FAIL"
        ok = ok and b.ok
        lines.append(f"  bundle {_pstr(b.params):24s} {mark}" +
                     ("" if b.ok else " " + "; ".join(b.problems)))
    return ok, lines, errata, table.algebra


def _family_stems(args, groups: dict) -> list[str]:
    """The golden family files that ``--algebra`` names for a verb that
    reads only the catalog's data (``groups`` maps a name to several)."""
    if args.algebra in (None, "all"):
        return FAMILY_FILES
    stems = groups.get(args.algebra, [args.algebra])
    if any(s not in FAMILY_FILES for s in stems):
        raise InputError(f"{args.verb} needs a catalog family stem "
                         f"({', '.join(FAMILY_FILES)} or all), "
                         f"got {args.algebra!r}")
    return stems


def cmd_verify_tables(args):
    stems = _family_stems(args, {"s3": ["s3", "s3aa", "s3a1", "s311"],
                                 "s4": ["s4", "s41"], "s8": ["s8", "s81"]})
    lines = []
    payload = {"families": {}, "schouten": {}, "errata": []}
    ok = True
    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    # a fork-based pool starts all of its workers at once
    jobs = min(args.jobs, len(stems))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            results = list(ex.map(_verify_one_family, stems))
    else:
        results = [_verify_one_family(stem) for stem in stems]
    for stem, (fok, flines, errata, _) in zip(stems, results):
        ok = ok and fok
        lines.append(f"family file {stem}: {'PASS' if fok else 'FAIL'}")
        lines.extend(flines)
        payload["families"][stem] = fok
        payload["errata"].extend(errata)
    schouten_families = sorted({algebra for *_, algebra in results})
    tables = classify.load_schouten_tables()
    for famname in schouten_families:
        bad, errata = verify_schouten_family(famname, tables)
        mark = "PASS" if not bad else "FAIL"
        ok = ok and not bad
        lines.append(f"schouten tables {famname}: {mark}")
        lines.extend("  " + b for b in bad)
        payload["schouten"][famname] = not bad
        payload["errata"].extend(errata)
    if payload["errata"]:
        lines.append("printed-table errata (verified values asserted):")
        lines.extend("  ~ " + e for e in payload["errata"])
    lines.append("verify-tables: " + ("ALL PASS" if ok else "FAILURES"))
    _emit(args, lines, payload)
    return 0 if ok else 1


def cmd_coboundary_classes(args):
    stems = _family_stems(args, {})
    lines = []
    ok = True
    payload = []
    for stem in stems:
        for rep in verify_coboundary_classes(stem):
            if rep.skipped:
                lines.append(f"{stem} {_pstr(rep.params)}: skipped "
                             f"({rep.skipped})")
                continue
            tag = "PASS" if rep.passed else "INCOMPLETE"
            ok = ok and rep.passed
            lines.append(f"{stem} {_pstr(rep.params)}: {tag}, "
                         f"{len(rep.witnessed)} classes witnessed, "
                         f"{len(rep.unwitnessed)} unwitnessed, "
                         f"{len(rep.separations)} separations certified")
            for cname, members, hops in rep.witnessed:
                lines.append(f"  class {cname}: {' '.join(members)}"
                             + (f"  [{'; '.join(hops)}]" if hops else ""))
            for cname, pair in rep.unwitnessed:
                lines.append(f"  UNWITNESSED {cname}: {pair[0]} ~ {pair[1]}"
                             f" (asserted, no machine certificate)")
            payload.append({"family": stem, "params": _pstr(rep.params),
                            "witnessed": len(rep.witnessed),
                            "unwitnessed": [f"{c}: {p[0]}~{p[1]}"
                                            for c, p in rep.unwitnessed]})
    _emit(args, lines, payload)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="darbouxlie",
        description="Exact toolkit for r-matrices and coboundary Lie "
                    "bialgebras on structure-constant Lie algebras.")
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p, algebra=True):
        if algebra:
            p.add_argument("--algebra", required=True,
                           help="catalog id (s1..s12, n1) or algebra file")
            p.add_argument("--param", action="append",
                           help="rational parameter, e.g. alpha=1/2")
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--out", help="write output to a file")

    p = sub.add_parser("validate", help="check antisymmetry and Jacobi")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("derivations", help="basis of the derivation algebra")
    common(p)
    p.set_defaults(func=cmd_derivations)

    p = sub.add_parser("invariants", help="basis of (L^m g)^g")
    common(p)
    p.add_argument("--degree", type=int, default=2)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("schouten", help="bracket of two multivectors")
    common(p)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_schouten)

    p = sub.add_parser("ybe", help="mCYBE/CYBE polynomial systems")
    common(p)
    p.set_defaults(func=cmd_ybe)

    p = sub.add_parser("bricks", help="one-dimensional linear families")
    common(p)
    p.set_defaults(func=cmd_bricks)

    p = sub.add_parser("orbit-dim", help="automorphism orbit dimension")
    common(p)
    p.add_argument("bivector", help="e.g. 'e12+e34'")
    p.set_defaults(func=cmd_orbit_dim)

    p = sub.add_parser("rank-at", help="rank of the fundamental fields")
    common(p)
    p.add_argument("point", help="six rationals, e.g. '1,0,0,0,0,1'")
    p.set_defaults(func=cmd_rank_at)

    p = sub.add_parser("center-ext",
                       help="faithful matrix representation via grading")
    common(p)
    p.set_defaults(func=cmd_center_ext)

    p = sub.add_parser("darboux-verify", help="verify classification trees")
    common(p, algebra=False)
    p.add_argument("--tree", default="all",
                   help="tree name (s1..s12, s311, n1) or 'all'")
    p.set_defaults(func=cmd_darboux_verify)

    p = sub.add_parser("verify-tables",
                       help="verify the golden classification tables")
    common(p, algebra=False)
    p.add_argument("--algebra", default="all",
                   help="family (s1..s12, n1) or 'all'")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_verify_tables)

    p = sub.add_parser("coboundary-classes",
                       help="witness the printed coboundary groupings")
    common(p, algebra=False)
    p.add_argument("--algebra", default="all")
    p.set_defaults(func=cmd_coboundary_classes)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe; send what is still buffered to
        # devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed before all output was "
              "written", file=sys.stderr)
        return 2
    except VERIFICATION_FAILURES as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return 1
    except (InputError, FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
