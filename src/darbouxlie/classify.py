"""Verification harness for the classification tables: golden data loading,
orbit-row checks (locus, dimension, mCYBE/CYBE/star), Schouten-table
reproduction, bricks, derivation forms, fundamental fields, Yang-Baxter
systems, tree branches, automorphism witnesses, and coboundary-class
grouping.

Golden files live in the package data directory (override with the
DARBOUXLIE_DATA environment variable): one family file per table block,
one tree file per family, and the three Schouten tables.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .darboux import (TreeBranch, branch_samples, certify_no_solutions,
                      find_bricks, locus_contains, verify_branch)
from .derivations import (derivation_basis, fundamental_fields, lift,
                          orbit_dim, rank_at)
from .exactmath import (Poly, RatMatrix, ideal_membership, normalize_poly,
                        rank, rat, row_space_equal)
from .exprparse import ExprError, parse_condition, parse_expr, parse_poly
from .grassmann import MultiVector, apply_linear, blades, invariants, schouten
from .liealg import LieAlgebra, catalog
from .yangbaxter import (generic_bivector, is_automorphism, is_cybe_solution,
                         is_mcybe_solution, necessary_checks, reduce_system,
                         same_coboundary, yb_system)


class GoldenDataMissing(FileNotFoundError):
    pass


class WitnessMissing(ValueError):
    pass


def data_dir() -> Path:
    env = os.environ.get("DARBOUXLIE_DATA")
    if env:
        return Path(env)
    return Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# expression helpers bound to the multivector coordinates of an algebra
# (dimension 4 unless told otherwise)
# ---------------------------------------------------------------------------

NVARS = 6


def _bivector_env(params: dict, dim: int = 4) -> dict:
    env: dict = {}
    for m in range(1, dim + 1):
        for mask_indices in itertools.combinations(range(dim), m):
            name = "e" + "".join(str(i + 1) for i in mask_indices)
            env[name] = MultiVector.blade(dim, list(mask_indices))
    env.update({k: Fraction(v) for k, v in params.items()})
    return env


def parse_multivector(s: str, params: dict, dim: int = 4) -> MultiVector:
    """Parse a multivector over a dim-dimensional algebra, written in the
    blade names e1, e12, ... (the literal 0 is the zero bivector)."""
    s = s.strip()
    v = parse_expr(s, _bivector_env(params, dim))
    if isinstance(v, (int, Fraction)):
        if Fraction(v) == 0:
            return MultiVector.zero(dim, 2)
        raise ExprError(f"{s!r} is not a multivector")
    return v


_PARAM_NAMES = ("a", "b", "k")


def _short_params(params: dict) -> dict:
    """Map alpha/beta to the short names used inside data files."""
    out = {}
    for key, val in params.items():
        short = {"alpha": "a", "beta": "b"}.get(key, key)
        out[short] = Fraction(val)
    return out


# ---------------------------------------------------------------------------
# family golden files
# ---------------------------------------------------------------------------

@dataclass
class OrbitRow:
    label: str
    dim: int
    rep_expr: str
    star: str                      # "yes" | "no" | "if:<cond>"
    cond: str = ""
    coords: dict = field(default_factory=dict)   # token -> value string
    extra_eqs: list = field(default_factory=list)
    extra_ineqs: list = field(default_factory=list)   # (expr, op)
    samples: list = field(default_factory=list)
    forall: Optional[tuple] = None  # (name, [values])
    paperdim: Optional[int] = None
    papernote: str = ""
    note: str = ""


@dataclass
class ClassLine:
    name: str
    members: list
    cond: str = ""
    unwitnessed: bool = False


@dataclass
class FamilyData:
    name: str
    algebra: str
    when: str
    samples: list                 # list of param dicts (long names)
    invariants: dict              # degree -> list of (cond, blade expr)
    der_form: list                # rows of entry strings, or []
    fields: list                  # rows of pipe-separated polys, or []
    bricks: list                  # poly strings
    rr: list                      # 4 poly strings or []
    mcybe: list                   # list of (cond, [poly strings])
    cybe: list
    automorphisms: list           # (name, 4x4 entry strings)
    orbits: list                  # OrbitRow
    classes: list                 # ClassLine
    skipclasses: list             # (cond, note)


def _split_sections(text: str):
    header: list[str] = []
    sections: dict[str, list[str]] = {}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = []
        elif current is None:
            header.append(line)
        else:
            sections[current].append(line)
    return header, sections


def _parse_samples(line: str) -> list[dict]:
    body = line.split(":", 1)[1].strip()
    if body == "-":
        return [{}]
    out = []
    for chunk in body.split(";"):
        d = {}
        for tok in chunk.split():
            k, v = tok.split("=", 1)
            d[k] = Fraction(v)
        out.append(d)
    return out


def load_family(stem: str) -> FamilyData:
    path = data_dir() / "families" / f"{stem}.txt"
    if not path.exists():
        raise GoldenDataMissing(str(path))
    header, sections = _split_sections(path.read_text())
    name = algebra = ""
    when = ""
    samples = [{}]
    for line in header:
        if line.startswith("family"):
            name = line.split(None, 1)[1].strip()
        elif line.startswith("algebra"):
            algebra = line.split(None, 1)[1].strip()
        elif line.startswith("when"):
            when = line.split(None, 1)[1].strip()
        elif line.startswith("samples"):
            samples = _parse_samples(line)

    invs: dict[int, list] = {2: [], 3: []}
    for line in sections.get("invariants", []):
        head, expr = line.split(":", 1)
        head = head.strip()
        cond = ""
        if " if " in f" {head} ":
            head, cond = head.split("if", 1)
        deg = int(head.strip().replace("deg", ""))
        invs[deg].append((cond.strip(), expr.strip()))

    der_form = [line.split() for line in sections.get("derivations", [])]
    fields = [[p.strip() for p in line.split("|")]
              for line in sections.get("fields", [])]
    # a missing [bricks] section means "no golden claim here"; an empty one
    # asserts that the family has no bricks
    bricks = (" ".join(sections["bricks"]).split()
              if "bricks" in sections else None)

    rr = []
    for line in sections.get("rr", []):
        rr = [p.strip() for p in line.split("|")]

    def parse_system(lines):
        out = []
        for line in lines:
            head, body = line.split(":", 1)
            head = head.strip()
            cond = ""
            if " if " in f" {head} ":
                cond = head.split("if", 1)[1].strip()
            out.append((cond, [p.strip() for p in body.split("|") if p.strip()]))
        return out

    mcybe = parse_system(sections.get("mcybe", []))
    cybe = parse_system(sections.get("cybe", []))

    auts = []
    for line in sections.get("automorphisms", []):
        nme, body = line.split(":", 1)
        rows = [r.split() for r in body.split(";")]
        auts.append((nme.strip(), rows))

    orbits = []
    for line in sections.get("orbits", []):
        head, body = line.split(":", 1)
        label = head.split(None, 1)[1].strip()
        row = OrbitRow(label=label, dim=-1, rep_expr="0", star="no")
        for tok in body.split():
            key, val = tok.split("=", 1)
            if key == "dim":
                row.dim = int(val)
            elif key == "rep":
                row.rep_expr = val
            elif key == "paperrep":
                row.papernote = (row.papernote + " printed-rep=" + val).strip()
            elif key == "star":
                row.star = val
            elif key == "cond":
                row.cond = val
            elif key == "paperdim":
                row.paperdim = int(val)
            elif key == "papernote":
                row.papernote = (row.papernote + " " + val).strip()
            elif key == "note":
                row.note = val
            elif key == "forall":
                nme, vals = val.split(":")
                row.forall = (nme, [Fraction(v) for v in vals.split(",")])
            elif key == "eq":
                row.extra_eqs.append(val)
            elif key == "ineq":
                row.extra_ineqs.append((val, "!="))
            elif key == "pos":
                row.extra_ineqs.append((val, ">"))
            elif key == "neg":
                row.extra_ineqs.append((val, "<"))
            elif key == "sample":
                row.samples.append(val)
            elif key in {f"x{i}" for i in range(1, 7)}:
                row.coords[key] = val
            else:
                raise ValueError(f"unknown orbit token {tok!r} in {stem}")
        orbits.append(row)

    classes = []
    skipclasses = []
    for line in sections.get("classes", []):
        if line.strip().startswith("skipclasses"):
            head, note = line.split(":", 1)
            cond = head.split("when", 1)[1].strip()
            skipclasses.append((cond, note.strip()))
            continue
        head, body = line.split(":", 1)
        head = head.strip()
        cond = ""
        if " when " in f" {head} ":
            head, cond = head.split("when", 1)
        cname = head.replace("class", "", 1).strip()
        members = body.split()
        unwitnessed = "unwitnessed" in members
        members = [m for m in members if m != "unwitnessed"]
        classes.append(ClassLine(name=cname, members=members,
                                 cond=cond.strip(), unwitnessed=unwitnessed))

    return FamilyData(name=name, algebra=algebra, when=when, samples=samples,
                      invariants=invs, der_form=der_form, fields=fields,
                      bricks=bricks, rr=rr, mcybe=mcybe, cybe=cybe,
                      automorphisms=auts, orbits=orbits, classes=classes,
                      skipclasses=skipclasses)


FAMILY_FILES = ["s1", "s2", "s3", "s3aa", "s3a1", "s311", "s4", "s41",
                "s5", "s6", "s7", "s8", "s81", "s9", "s10", "s11",
                "s12", "n1"]
TREE_FILES = ["s1", "s2", "s3", "s311", "s4", "s5", "s6", "s7", "s8",
              "s9", "s10", "s11", "s12", "n1"]
#: which family file carries the derivation form used by each tree
TREE_FAMILY = {"s311": "s311", "s8": "s8", "s3": "s3", "s4": "s4"}


# ---------------------------------------------------------------------------
# concrete records at fixed parameter values
# ---------------------------------------------------------------------------

@dataclass
class OrbitRecord:
    label: str
    algebra: LieAlgebra
    rep: MultiVector
    dim: int
    branch: TreeBranch
    star: bool
    samples: list
    paperdim: Optional[int] = None
    papernote: str = ""


def _row_branch(row: OrbitRow, env_params: dict) -> TreeBranch:
    eqs: list[Poly] = []
    ineqs: list = []
    dep_vars = []
    for key, val in row.coords.items():
        i = int(key[1:]) - 1
        if val == ".":
            continue
        if val == "dep":
            dep_vars.append(i)
            continue
        if val == "0":
            eqs.append(Poly.var(i))
        elif val == "*":
            ineqs.append((Poly.var(i), "!="))
        elif val == "+":
            ineqs.append((Poly.var(i), ">"))
        elif val == "-":
            ineqs.append((Poly.var(i), "<"))
        else:
            expr = parse_poly(val, NVARS, env_params)
            eqs.append(Poly.var(i) - expr)
    for e in row.extra_eqs:
        eqs.append(parse_poly(e, NVARS, env_params))
    for e, op in row.extra_ineqs:
        ineqs.append((parse_poly(e, NVARS, env_params), op))
    return TreeBranch(label=row.label, equalities=eqs, inequalities=ineqs)


def _row_samples(row: OrbitRow, branch: TreeBranch, rep: MultiVector,
                 env_params: dict) -> list[tuple[Fraction, ...]]:
    out: list[tuple[Fraction, ...]] = []

    def push(pt):
        pt = tuple(rat(x) for x in pt)
        if locus_contains(branch, pt) and pt not in out:
            out.append(pt)

    push(rep.coords())
    for s in row.samples:
        vals = [parse_expr(v, dict(env_params)) for v in s.split(",")]
        push([Fraction(v) for v in vals])

    roles = {}
    for key, val in row.coords.items():
        i = int(key[1:]) - 1
        roles[i] = val
    grid_axes = []
    for i in range(NVARS):
        val = roles.get(i, ".")
        if val == ".":
            grid_axes.append((i, [Fraction(0), Fraction(1), Fraction(-2)]))
        elif val == "*":
            grid_axes.append((i, [Fraction(1), Fraction(-1), Fraction(2)]))
        elif val == "+":
            grid_axes.append((i, [Fraction(1), Fraction(2)]))
        elif val == "-":
            grid_axes.append((i, [Fraction(-1), Fraction(-2)]))
    dep = [int(k[1:]) - 1 for k, v in row.coords.items() if v == "dep"]
    expr_coords = {int(k[1:]) - 1: parse_poly(v, NVARS, env_params)
                   for k, v in row.coords.items()
                   if v not in {".", "*", "+", "-", "0", "dep"}}
    eq_polys = [parse_poly(e, NVARS, env_params) for e in row.extra_eqs]

    axes = [vals for _, vals in grid_axes]
    idxs = [i for i, _ in grid_axes]
    count = 0
    for combo in itertools.product(*axes) if axes else [()]:
        if count > 400 or len(out) > 24:
            break
        count += 1
        pt = [Fraction(0)] * NVARS
        for i, v in zip(idxs, combo):
            pt[i] = v
        for i, expr in expr_coords.items():
            pt[i] = expr.eval(pt)
        for d in dep:
            for e in eq_polys:
                de = e.derivative(d)
                if _mentions(de, d) or not _mentions(e, d):
                    continue  # not linear in x_d, or independent of it
                coef = de.eval(pt)
                if coef:
                    pt[d] = -e.subs({d: Fraction(0)}).eval(pt) / coef
                    break
        push(pt)
    return out


def _mentions(p: Poly, v: int) -> bool:
    return v in p.variables()


def expand_rows(fam: FamilyData, params: dict) -> list[OrbitRecord]:
    """Concrete orbit records for one parameter assignment (long names)."""
    g = catalog(fam.algebra, **params)
    sp = _short_params(params)
    records = []
    for row in fam.orbits:
        variants = [(None, None)]
        if row.forall:
            variants = [(row.forall[0], v) for v in row.forall[1]]
        for nme, val in variants:
            env = dict(sp)
            label = row.label
            if nme is not None:
                env[nme] = val
                label = f"{row.label}[{nme}={val}]"
            if row.cond and not parse_condition(row.cond, env):
                continue
            branch = _row_branch(row, env)
            branch.label = label
            rep = parse_multivector(row.rep_expr, env)
            if row.star == "yes":
                star = True
            elif row.star == "no":
                star = False
            else:
                star = parse_condition(row.star.split("if:", 1)[1], env)
            records.append(OrbitRecord(
                label=label, algebra=g, rep=rep, dim=row.dim, branch=branch,
                star=star, samples=_row_samples(row, branch, rep, env),
                paperdim=row.paperdim, papernote=row.papernote))
    return records


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------

@dataclass
class RowResult:
    label: str
    params: dict
    ok: bool
    problems: list
    errata: list
    dims_checked: int


@dataclass
class TableReport:
    family: str
    rows: list
    unmerged_components: list
    auts_validated: int

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)


def load_automorphisms(fam: FamilyData, params: dict,
                       g: LieAlgebra) -> list[tuple[str, RatMatrix]]:
    sp = _short_params(params)
    out = []
    for nme, rows in fam.automorphisms:
        T = RatMatrix([[parse_expr(x, dict(sp)) for x in r] for r in rows])
        if not is_automorphism(g, T):
            raise WitnessMissing(
                f"{fam.name}: shipped matrix {nme} fails bracket preservation")
        out.append((nme, T))
    return out


def verify_orbit_table(stem: str, params: Optional[dict] = None,
                       check_components: bool = True) -> TableReport:
    """Check every qualifying golden row of one family file: representative
    in its locus, orbit dimension, rank constancy across the sample grid,
    mCYBE membership, and star consistency."""
    fam = load_family(stem)
    param_sets = [params] if params is not None else fam.samples
    rows: list[RowResult] = []
    unmerged = []
    auts_count = 0
    for ps in param_sets:
        sp = _short_params(ps)
        if fam.when and not parse_condition(fam.when, sp):
            continue
        g = catalog(fam.algebra, **ps)
        auts = load_automorphisms(fam, ps, g)
        auts_count += len(auts)
        ders = derivation_basis(g)
        fields = [lift(d, 2) for d in ders]
        for rec in expand_rows(fam, ps):
            problems = []
            errata = []
            if rec.papernote:
                errata.append(rec.papernote)
            if not locus_contains(rec.branch, rec.rep.coords()):
                problems.append("representative violates its own constraints")
            d = orbit_dim(g, rec.rep, ders)
            if d != rec.dim:
                problems.append(f"orbit dim {d} != expected {rec.dim}")
            if rec.paperdim is not None and rec.paperdim != rec.dim:
                errata.append(f"printed dim {rec.paperdim}, verified {rec.dim}")
            if not rec.samples:
                problems.append("no usable sample points")
            for p in rec.samples:
                if rank_at(fields, p) != rec.dim:
                    problems.append(f"rank at {p} != {rec.dim}")
                    break
                if not is_mcybe_solution(g, p):
                    problems.append(f"sample {p} fails the mCYBE")
                    break
            if not is_mcybe_solution(g, rec.rep):
                problems.append("representative fails the mCYBE")
            if is_cybe_solution(g, rec.rep) != (not rec.star):
                problems.append("star mark inconsistent with the CYBE test")
            rows.append(RowResult(label=rec.label, params=dict(ps),
                                  ok=not problems, problems=problems,
                                  errata=errata, dims_checked=len(rec.samples)))
            if check_components and not problems:
                miss = _component_merge_gaps(g, auts, rec)
                if miss:
                    unmerged.append((rec.label, dict(ps), miss))
    return TableReport(family=fam.name, rows=rows,
                       unmerged_components=unmerged, auts_validated=auts_count)


def _component_merge_gaps(g, auts, rec: OrbitRecord) -> list:
    """Sign components of the row locus not reachable from the
    representative's component via the shipped automorphisms."""
    strict = [f for f, op in rec.branch.inequalities if op == "!="
              and f.degree() == 1]
    if not strict:
        return []

    def signature(p):
        return tuple(1 if f.eval(p) > 0 else -1 for f in strict)

    comps = {}
    for p in rec.samples:
        comps.setdefault(signature(p), p)
    if len(comps) <= 1:
        return []
    reached = {signature(rec.rep.coords())}
    frontier = [rec.rep.coords()]
    while frontier:
        p = frontier.pop()
        for _, T in auts:
            q = apply_linear(T, MultiVector.from_coords(4, 2, p)).coords()
            if locus_contains(rec.branch, q):
                s = signature(q)
                if s not in reached:
                    reached.add(s)
                    frontier.append(q)
    return [s for s in comps if s not in reached]


# ---------------------------------------------------------------------------
# bundle checks: invariants, derivations, fields, bricks, systems, [r,r]
# ---------------------------------------------------------------------------

@dataclass
class BundleResult:
    family: str
    params: dict
    ok: bool
    problems: list


def _der_form_basis(form_rows, params: dict) -> list[RatMatrix]:
    syms = sorted({tok for row in form_rows for e in row
                   for tok in _m_symbols(e)})
    out = []
    for s in syms:
        env = {t: Fraction(1 if t == s else 0) for t in syms}
        env.update({k: Fraction(v) for k, v in params.items()})
        out.append(RatMatrix([[parse_expr(e, env) for e in row]
                              for row in form_rows]))
    return out


def _m_symbols(expr: str) -> list[str]:
    out = []
    i = 0
    while i < len(expr):
        if expr[i] == "m" and i + 2 < len(expr) + 1:
            j = i + 1
            while j < len(expr) and expr[j].isdigit():
                j += 1
            if j > i + 1:
                out.append(expr[i:j])
            i = j
        else:
            i += 1
    return out


def verify_family_bundle(stem: str) -> list[BundleResult]:
    """Golden checks per parameter sample: invariant spaces, derivation
    form span, fundamental-field span, bricks, the displayed [r,r], and
    span/locus agreement of the Yang-Baxter systems."""
    fam = load_family(stem)
    results = []
    for ps in fam.samples:
        sp = _short_params(ps)
        if fam.when and not parse_condition(fam.when, sp):
            continue
        g = catalog(fam.algebra, **ps)
        problems = []

        for deg in (2, 3):
            want = [parse_multivector(e, sp).coords()
                    for cond, e in fam.invariants[deg]
                    if parse_condition(cond, sp)]
            got = [v.coords() for v in invariants(g, deg)]
            if not _same_span(want, got):
                problems.append(f"invariants deg {deg} disagree")

        if fam.der_form:
            form = _der_form_basis(fam.der_form, sp)
            comp = derivation_basis(g)
            if not _same_span([m.flat() for m in form],
                              [m.flat() for m in comp]):
                problems.append("derivation form span disagrees")

        if fam.fields:
            want_rows = []
            for frow in fam.fields:
                mat = _field_matrix(frow, sp)
                want_rows.append(mat.flat())
            comp = [lift(d, 2).matrix.flat() for d in derivation_basis(g)]
            if not _same_span(want_rows, comp):
                problems.append("fundamental field span disagrees")

        if fam.bricks is not None:
            want_bricks = [normalize_poly(parse_poly(bstr, NVARS, sp))
                           for bstr in fam.bricks]
            got_bricks = [b.poly
                          for b in find_bricks(fundamental_fields(g, 2))]
            if sorted(p.text() for p in want_bricks) != \
                    sorted(p.text() for p in got_bricks):
                problems.append(
                    f"bricks disagree: expected "
                    f"{[p.text() for p in want_bricks]},"
                    f" got {[p.text() for p in got_bricks]}")

        ybs = yb_system(g)
        if fam.rr:
            r = generic_bivector(g)
            rrv = schouten(g, r, r)
            for bl, expr in zip(blades(4, 3), fam.rr):
                want = parse_poly(expr, NVARS, sp)
                got = rrv.terms.get(bl, Poly.zero())
                if want != got:
                    problems.append(f"[r,r] coefficient at blade {bl} differs")

        for kind, lines, computed in (("mcybe", fam.mcybe, ybs.reduced),
                                      ("cybe", fam.cybe,
                                       reduce_system([p for p in ybs.cybe
                                                      if not p.is_zero()]))):
            golden = _pick_system(lines, sp)
            if golden is None:
                continue
            gp = [normalize_poly(q) for q in golden if not q.is_zero()]
            if not _poly_span_equal(gp, computed):
                problems.append(f"{kind} system span disagrees")
            if kind == "mcybe" and not loci_agree(
                    [p for p in ybs.mcybe if not p.is_zero()], gp):
                problems.append("mcybe locus equality fails")

        results.append(BundleResult(family=fam.name, params=dict(ps),
                                    ok=not problems, problems=problems))
    return results


def _field_matrix(entries: Sequence[str], params: dict) -> RatMatrix:
    rows = []
    for e in entries:
        pe = parse_poly(e, NVARS, params)
        row = [Fraction(0)] * NVARS
        for mono, c in pe.terms.items():
            if len(mono) != 1 or mono[0][1] != 1:
                raise ExprError(f"field entry {e!r} is not linear")
            row[mono[0][0]] = c
        rows.append(row)
    return RatMatrix(rows)


def _pick_system(lines, sp) -> Optional[list[Poly]]:
    for cond, polys in lines:
        if parse_condition(cond, sp):
            return [parse_poly(p, NVARS, sp) for p in polys]
    return None


def _same_span(a, b) -> bool:
    a = [list(map(rat, v)) for v in a]
    b = [list(map(rat, v)) for v in b]
    if not a and not b:
        return True
    width = len(a[0]) if a else len(b[0])
    ma = RatMatrix(a) if a else RatMatrix.zero(0, width)
    mb = RatMatrix(b) if b else RatMatrix.zero(0, width)
    if not a or not b:
        return rank(ma) == rank(mb) == 0
    return row_space_equal(ma, mb)


def _poly_span_equal(a: Sequence[Poly], b: Sequence[Poly]) -> bool:
    from .exactmath import mono_key
    support = sorted({m for p in list(a) + list(b) for m in p.terms},
                     key=mono_key)
    va = [[p.terms.get(m, Fraction(0)) for m in support] for p in a]
    vb = [[p.terms.get(m, Fraction(0)) for m in support] for p in b]
    return _same_span(va, vb)


def loci_agree(system_a: Sequence[Poly], system_b: Sequence[Poly],
               npoints: int = 800, seed: int = 7) -> bool:
    """Variety-level agreement of two polynomial systems.

    Two routes, both exact: ideal-containment certificates with cofactor
    degree <= 2 in each direction (a found certificate proves one-way
    containment outright; radical steps like x5 against x5^2 legitimately
    have none), and mutual vanishing on a biased random grid whose random
    zero patterns make the sampled points actually hit the loci.  Any
    containment certificate that fails to reproduce its target, or any
    sampled point on one locus but not the other, refutes agreement."""
    for target_side, other_side in ((system_a, system_b),
                                    (system_b, system_a)):
        for p in target_side:
            cofs = ideal_membership(p, list(other_side), 2)
            if cofs is not None:
                total = Poly.zero()
                for c, q in zip(cofs, other_side):
                    total = total + c * q
                if total != p:
                    return False
    rng = random.Random(seed)
    for _ in range(npoints):
        pt = [Fraction(0)] * NVARS
        nz = rng.randint(0, NVARS)
        for i in rng.sample(range(NVARS), nz):
            pt[i] = Fraction(rng.randint(-3, 3))
        on_a = all(p.eval(pt) == 0 for p in system_a)
        on_b = all(p.eval(pt) == 0 for p in system_b)
        if on_a != on_b:
            return False
    return True


# ---------------------------------------------------------------------------
# Schouten golden tables
# ---------------------------------------------------------------------------

def _load_schouten_table(fname: str) -> dict:
    path = data_dir() / "schouten" / fname
    if not path.exists():
        raise GoldenDataMissing(str(path))
    table: dict[str, list] = {}
    current = None
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            table[current] = []
        else:
            left, body = line.split(":", 1)
            table[current].append(
                (left.strip(), [e.strip() for e in body.split("|")]))
    return table


SCHOUTEN_TABLES = (
    ("table_g_l2.txt", 1, 2),
    ("table_l2_l2.txt", 2, 2),
    ("table_g_l3.txt", 1, 3),
)

#: default parameter samples for checking parameterized Schouten entries
SCHOUTEN_PARAMS = {
    "s3": {"alpha": Fraction(1, 2), "beta": Fraction(-1, 3)},
    "s4": {"alpha": Fraction(3)},
    "s5": {"alpha": Fraction(2), "beta": Fraction(-1, 2)},
    "s8": {"alpha": Fraction(1, 2)},
    "s9": {"alpha": Fraction(3)},
}


def _blade_from_name(name: str) -> MultiVector:
    idxs = [int(c) - 1 for c in name[1:]]
    return MultiVector.blade(4, idxs)


def verify_schouten_family(family: str, params: Optional[dict] = None
                           ) -> tuple[list[str], list[str]]:
    """Compare every golden entry of the three bracket tables for one
    family against the engine.  Returns (mismatches, errata): entries
    recorded as `printed=>verified` must match the verified value and are
    reported in the errata list with their printed value."""
    if params is None:
        params = SCHOUTEN_PARAMS.get(family, {})
    g = catalog(family, **params)
    sp = _short_params(params)
    bad: list[str] = []
    errata: list[str] = []
    for fname, degl, degr in SCHOUTEN_TABLES:
        table = _load_schouten_table(fname)
        cols = [("e" + "".join(str(i + 1) for i in idxs))
                for idxs in itertools.combinations(range(4), degr)]
        for left, entries in table[family]:
            lv = _blade_from_name(left)
            for cname, entry in zip(cols, entries):
                if entry == ".":
                    continue
                if "=>" in entry:
                    printed, entry = entry.split("=>")
                    errata.append(f"{family}: printed [{left}, {cname}] = "
                                  f"{printed}, verified {entry}")
                want = parse_multivector(entry, sp) if entry != "0" else \
                    MultiVector.zero(4, degl + degr - 1)
                got = schouten(g, lv, _blade_from_name(cname))
                if got != want:
                    bad.append(f"{family}: [{left}, {cname}] = {got.text()}"
                               f" but table says {entry}")
    return bad, errata


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------

@dataclass
class TreeData:
    name: str
    family_stem: str
    samples: list
    branches: list      # (kind, label, eq strs, ineq strs, meta dict)


def load_tree(stem: str) -> TreeData:
    path = data_dir() / "trees" / f"{stem}.txt"
    if not path.exists():
        raise GoldenDataMissing(str(path))
    name = stem
    samples = [{}]
    branches = []
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("tree"):
            name = line.split(None, 1)[1].strip()
            continue
        if line.startswith("samples"):
            samples = _parse_samples(line)
            continue
        kind, rest = line.split(None, 1)
        label, body = rest.split(":", 1)
        meta: dict = {"when": "", "dim": None, "k": None, "samples": []}
        if ";" in body:
            body, metastr = body.split(";", 1)
            toks = metastr.split()
            i = 0
            while i < len(toks):
                tok = toks[i]
                if tok == "when":
                    i += 1
                    meta["when"] = toks[i]
                elif tok.startswith("when"):
                    meta["when"] = tok.split("=", 1)[-1]
                elif tok.startswith("dim="):
                    meta["dim"] = int(tok.split("=", 1)[1])
                elif tok.startswith("k="):
                    meta["k"] = [Fraction(v)
                                 for v in tok.split("=", 1)[1].split(",")]
                elif tok.startswith("sample="):
                    meta["samples"].append(tok.split("=", 1)[1])
                elif tok.startswith("skip="):
                    meta["skip"] = tok.split("=", 1)[1]
                i += 1
        eq_part, _, ineq_part = body.partition("|")
        eqs = [e.strip() for e in eq_part.split(",") if e.strip()]
        ineqs = [e.strip() for e in ineq_part.split(",") if e.strip()]
        branches.append((kind, label.strip(), eqs, ineqs, meta))
    fam_stem = {"s311": "s311", "s3": "s3", "s4": "s4", "s8": "s8"}.get(
        name, name)
    return TreeData(name=name, family_stem=fam_stem, samples=samples,
                    branches=branches)


@dataclass
class TreeReport:
    tree: str
    verified: list     # (label, params, dim info)
    nosol: list        # (label, params, certificate)
    unconfirmed: list  # (label, params) -- certificate not found
    failures: list     # (label, params, reason)

    @property
    def passed(self) -> bool:
        return not self.failures and not self.unconfirmed


def verify_tree(stem: str, flow_order: int = 8) -> TreeReport:
    """Check every branch of a classification tree at every qualifying
    parameter sample: solution branches pass verify_branch (Darboux family,
    constant rank, mCYBE membership, truncated-flow invariance) and
    no-solution branches get an exact infeasibility certificate."""
    tree = load_tree(stem)
    fam = load_family(tree.family_stem)
    verified, nosol, unconfirmed, failures = [], [], [], []
    family_cache: dict = {}
    for ps in tree.samples:
        sp = _short_params(ps)
        g = catalog(fam.algebra, **ps)
        if fam.der_form:
            ders = _der_form_basis(fam.der_form, sp)
        else:
            ders = derivation_basis(g)
        fields = [lift(d, 2) for d in ders]
        ybs = yb_system(g)
        msys = [p for p in ybs.mcybe if not p.is_zero()]
        for kind, label, eqs, ineqs, meta in tree.branches:
            if meta.get("skip"):
                continue
            kvals = meta.get("k") or [None]
            for kv in kvals:
                env = dict(sp)
                blabel = label
                if kv is not None:
                    env["k"] = kv
                    blabel = f"{label}[k={kv}]"
                if meta["when"] and not parse_condition(meta["when"], env):
                    continue
                branch = TreeBranch(
                    label=blabel,
                    equalities=[parse_poly(e, NVARS, env) for e in eqs],
                    inequalities=[(parse_poly(e, NVARS, env), "!=")
                                  for e in ineqs],
                    expected_dim=meta["dim"])
                if kind == "nosol":
                    cert = certify_no_solutions(branch, msys, NVARS)
                    if cert is None:
                        unconfirmed.append((blabel, dict(ps)))
                    else:
                        nosol.append((blabel, dict(ps), cert))
                    continue
                extra = []
                for s in meta["samples"]:
                    extra.append([Fraction(parse_expr(v, dict(env)))
                                  for v in s.split(",")])
                pts = branch_samples(branch, NVARS, extra=extra)
                try:
                    rep = verify_branch(g, fields, branch, pts,
                                        flow_order=flow_order,
                                        family_cache=family_cache)
                except Exception as e:   # BranchInvalid and friends
                    failures.append((blabel, dict(ps), str(e)))
                    continue
                if not rep.passed:
                    failures.append((blabel, dict(ps),
                                     f"ranks={rep.ranks} expected={rep.expected_dim}"
                                     f" mcybe_ok={rep.mcybe_ok}"))
                else:
                    verified.append((blabel, dict(ps), rep.ranks[0]))
    return TreeReport(tree=tree.name, verified=verified, nosol=nosol,
                      unconfirmed=unconfirmed, failures=failures)


# ---------------------------------------------------------------------------
# automorphism witnesses and coboundary classes
# ---------------------------------------------------------------------------

def verify_automorphism_witness(g: LieAlgebra, T: RatMatrix,
                                r_from: MultiVector,
                                target: TreeBranch) -> bool:
    """Whether the lifted automorphism maps the representative into the
    target branch's locus."""
    if not is_automorphism(g, T):
        raise WitnessMissing("matrix fails bracket preservation")
    image = apply_linear(T, r_from)
    return locus_contains(target, image.coords())


@dataclass
class ClassReport:
    family: str
    params: dict
    witnessed: list      # (class name, members, witness names)
    unwitnessed: list    # (class name, pair lacking a witness)
    separations: list    # ((class1, class2), certificate)
    skipped: Optional[str] = None

    @property
    def passed(self) -> bool:
        return not self.unwitnessed


def verify_coboundary_classes(stem: str,
                              params: Optional[dict] = None) -> list[ClassReport]:
    """For each printed class grouping, find witness chains through the
    shipped automorphisms (identity included): consecutive members r_i,
    r_{i+1} need some T with (Λ²T) r_i equal to r_{i+1} modulo invariant
    bivectors.  Groupings that cannot be machine-witnessed are enumerated,
    never fabricated.  Cross-class separation certificates are recorded
    where the necessary conditions distinguish representatives."""
    fam = load_family(stem)
    param_sets = [params] if params is not None else fam.samples
    reports = []
    for ps in param_sets:
        sp = _short_params(ps)
        if fam.when and not parse_condition(fam.when, sp):
            continue
        g = catalog(fam.algebra, **ps)
        skip = None
        for cond, note in fam.skipclasses:
            if parse_condition(cond, sp):
                skip = note
        if skip:
            reports.append(ClassReport(family=fam.name, params=dict(ps),
                                       witnessed=[], unwitnessed=[],
                                       separations=[], skipped=skip))
            continue
        records = {r.label: r for r in expand_rows(fam, ps)}
        auts = [("id", RatMatrix.identity(4))] + load_automorphisms(fam, ps, g)
        applied: list[tuple[str, list[str]]] = []
        for cl in fam.classes:
            if cl.cond and not parse_condition(cl.cond, sp):
                continue
            members = [m for m in cl.members if m in records]
            if len(members) >= 1:
                applied.append((cl.name, members))
        covered = {m for _, ms in applied for m in ms}
        for label in records:
            if label not in covered:
                applied.append((label, [label]))
        witnessed, unwitnessed = [], []
        for cname, members in applied:
            names = []
            ok = True
            anchor = records[members[0]].rep
            for m in members[1:]:
                found = None
                for tname, T in auts:
                    if same_coboundary(g, records[m].rep, anchor, T):
                        found = tname
                        break
                if found is None:
                    ok = False
                    unwitnessed.append((cname, (members[0], m)))
                else:
                    names.append(f"{m}->{members[0]} via {found}")
            if ok:
                witnessed.append((cname, members, names))
        separations = []
        reps = [(cname, records[ms[0]].rep) for cname, ms in applied]
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                rep_i = reps[i][1]
                rep_j = reps[j][1]
                nc = necessary_checks(g, rep_i, rep_j)
                if nc.provably_inequivalent:
                    separations.append(((reps[i][0], reps[j][0]),
                                        nc.reasons[0]))
        reports.append(ClassReport(family=fam.name, params=dict(ps),
                                   witnessed=witnessed,
                                   unwitnessed=unwitnessed,
                                   separations=separations))
    return reports
