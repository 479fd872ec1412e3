"""Verification harness for the classification tables: golden data loading,
orbit-row checks (locus, dimension, mCYBE/CYBE/star), Schouten-table
reproduction, bricks, derivation forms, fundamental fields, Yang-Baxter
systems, tree branches, automorphism witnesses, and coboundary-class
grouping.

Golden files live in the package data directory (override with the
DARBOUXLIE_DATA environment variable): one family file per table block,
one tree file per family, and the three Schouten tables.  Every
expression and condition in them is compiled once, when its line is read
(a ``GoldenExpr``), and evaluated at each parameter sample.
"""

from __future__ import annotations

import itertools
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from pathlib import Path
from typing import Iterator, Optional, Sequence

from .darboux import (BranchInvalid, IncompatibleFields, TreeBranch,
                      branch_samples, certify_no_solutions, find_bricks,
                      locus_contains, locus_contains_ints, locus_sampler,
                      solve_linear, verify_branch)
# rank_at stays importable from here: perfbench's tracer wraps it by name
from .derivations import _rank_at_ints, rank_at  # noqa: F401
from .exactmath import (IntPoly, Poly, RatMatrix, clear_denominators,
                        normalize_poly, poly_rref, row_space_equal)
from .exprparse import (ExprError, as_poly, compile_condition, compile_expr,
                        poly_env)
from .grassmann import (MultiVector, apply_linear, blades, lambda_matrix,
                        schouten)
from .liealg import FAMILIES, LieAlgebra, catalog
from .yangbaxter import (AlgebraContext, NecessaryReport, is_automorphism,
                         is_cybe_solution, reduce_system)


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
_XS = poly_env(NVARS)


@cache
def _blade_env(dim: int) -> dict:
    return {"e" + "".join(str(i + 1) for i in idxs):
            MultiVector.blade(dim, idxs) for m in range(1, dim + 1)
            for idxs in itertools.combinations(range(dim), m)}


def as_multivector(v, s: str, dim: int = 4) -> MultiVector:
    """The value v of expression s as a multivector (0 is the zero one)."""
    if isinstance(v, (int, Fraction)):
        if v == 0:
            return MultiVector.zero(dim, 2)
        raise ExprError(f"{s.strip()!r} is not a multivector")
    return v


def parse_multivector(s: str, params: dict, dim: int = 4) -> MultiVector:
    """Parse a multivector over a dim-dimensional algebra, written in the
    blade names e1, e12, ... (the literal 0 is the zero bivector)."""
    env = {**_blade_env(dim), **{k: Fraction(v) for k, v in params.items()}}
    return as_multivector(compile_expr(s)(env), s, dim)


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

class GoldenDataError(ValueError):
    """A golden data file that does not parse; the message names the file
    and the line."""


class GoldenExpr:
    """An expression or condition of a golden file, compiled when its line
    ``where`` (``<file>:<line>``) is read.  Calling it evaluates it in a
    symbol environment; an ExprError there names the line."""

    __slots__ = ("text", "where", "fn")

    def __init__(self, text: str, where: str, compiler=compile_expr):
        self.text, self.where, self.fn = text, where, compiler(text)

    def __call__(self, env: dict, convert=None):
        try:
            v = self.fn(env)
            return convert(v, self.text) if convert else v
        except ExprError as e:
            raise GoldenDataError(f"{self.where}: {e}") from None

    def poly(self, params: dict) -> Poly:
        return self({**_XS, **params}, as_poly)

    def mv(self, params: dict) -> MultiVector:
        return self({**_blade_env(4), **params}, as_multivector)


def _cond(text: str, where: str) -> GoldenExpr:
    return GoldenExpr(text, where, compile_condition) if text else _ALWAYS


#: defaults that cannot fail, so they name no line
_ALWAYS = GoldenExpr("", "", compile_condition)
_ZERO = GoldenExpr("0", "")


@dataclass
class OrbitRow:
    label: str
    dim: int
    rep: GoldenExpr                # multivector
    star: bool | GoldenExpr        # yes, no, or the condition of if:COND
    cond: GoldenExpr               # when the row exists
    coords: dict = field(default_factory=dict)   # x1.. -> role or poly expr
    extra_eqs: list = field(default_factory=list)     # poly exprs
    extra_ineqs: list = field(default_factory=list)   # (poly expr, op)
    samples: list = field(default_factory=list)   # NVARS number exprs each
    forall: Optional[tuple] = None  # (name, [values])
    paperdim: Optional[int] = None
    papernote: str = ""

    def variants(self) -> list[tuple[str, dict]]:
        """(label, forall binding) of each concrete row: the row itself,
        or one LABEL[name=value] per value of its forall."""
        if not self.forall:
            return [(self.label, {})]
        name, vals = self.forall
        return [(f"{self.label}[{name}={v}]", {name: v}) for v in vals]


@dataclass
class ClassLine:
    name: str
    members: list
    cond: GoldenExpr
    unwitnessed: bool = False


@dataclass
class FamilyData:
    name: str
    algebra: str
    when: GoldenExpr              # condition on the parameters
    samples: list                 # list of param dicts (long names)
    invariants: dict              # degree -> list of (cond, blade expr)
    der_form: list                # rows of 4 number exprs in m11.., or []
    fields: list                  # rows of NVARS linear poly exprs, or []
    bricks: Optional[list]        # poly exprs; None without [bricks]
    rr: list                      # 4 poly exprs or []
    mcybe: list                   # list of (cond, [poly exprs])
    cybe: list
    automorphisms: list           # (name, 4x4 number exprs)
    orbits: list                  # OrbitRow
    classes: list                 # ClassLine
    skipclasses: list             # (cond, note)
    path: Path                    # the file it was read from


def _read_golden(kind: str, fname: str, parse_header,
                 sections: dict) -> tuple[list, dict]:
    """The one reader of the golden data.  Strips '#' comments and blank
    lines, parses each line before the first ``[name]`` line with
    parse_header and each line of a section with ``sections[name]``, given
    the text and its ``<file>:<line>``, and returns (header values,
    {section name: values}).  An unknown or repeated section, a ValueError
    of a parser (such as an expression that does not compile) or a zero
    denominator is a GoldenDataError naming the file and line."""
    path = data_dir() / kind / fname
    if not path.exists():
        raise GoldenDataMissing(str(path))
    header: list = []
    out: dict = {}
    values, parse = header, parse_header
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        text = raw.split("#", 1)[0].strip()
        try:
            if text.startswith("[") and text.endswith("]"):
                name = text[1:-1]
                if name in out or name not in sections:
                    what = "repeated" if name in out else "unknown"
                    raise ValueError(f"{what} section [{name}]")
                values = out[name] = []
                parse = sections[name]
            elif text:
                values.append(parse(text, f"{path}:{lineno}"))
        except (ValueError, ZeroDivisionError) as e:
            reason = e if isinstance(e, ValueError) else "zero denominator"
            raise GoldenDataError(f"{path}:{lineno}: {reason}") from None
    return header, out


def _keyed(parsers: dict):
    """Parser of 'KEY value' lines: (KEY, parsers[KEY](value, where))."""
    def parse(text: str, where: str):
        key, _, value = text.partition(" ")
        if key not in parsers:
            raise ValueError(f"unknown line {key!r}, expected one of: "
                             f"{', '.join(parsers)}" if parsers else
                             f"line {key!r} before the first [section]")
        return key, parsers[key](value.strip(), where)
    return parse


def _colon(text: str) -> tuple[str, str]:
    head, sep, body = text.partition(":")
    if not sep:
        raise ValueError(f"expected 'HEAD : BODY', got {text!r}")
    return head.strip(), body.strip()


def _key_value(tok: str) -> tuple[str, str]:
    key, eq, val = tok.partition("=")
    if not eq:
        raise ValueError(f"expected KEY=VALUE, got {tok!r}")
    return key, val


def _split_cond(head: str, word: str) -> tuple[str, str]:
    """'head <word> cond' -> (head, cond), with cond '' when absent."""
    head, _, cond = f" {head} ".partition(f" {word} ")
    return head.strip(), cond.strip()


def _cells(text: str, width: int, sep=None) -> list[str]:
    cells = [c.strip() for c in text.split(sep)]
    if len(cells) != width:
        raise ValueError(f"expected {width} entries, got {len(cells)}")
    return cells


def _exprs(cells: Sequence[str], where: str) -> list[GoldenExpr]:
    return [GoldenExpr(c, where) for c in cells]


def _text(value: str, where: str) -> str:
    return value


def _parse_samples(value: str, where: str) -> list[dict]:
    if not value.startswith(":"):
        raise ValueError("expected 'samples : ...'")
    body = value[1:].strip()
    if body == "-":
        return [{}]
    return [{k: Fraction(v) for k, v in map(_key_value, chunk.split())}
            for chunk in body.split(";")]


def _if(parse_body):
    """Parser of '[if COND] : BODY' values: (COND, parse_body(BODY))."""
    def parse(value: str, where: str):
        head, body = _colon(value)
        rest, cond = _split_cond(head, "if")
        if rest:
            raise ValueError(f"expected 'if COND', got {head!r}")
        return _cond(cond, where), parse_body(body, where)
    return parse


_system = _if(lambda body, where: _exprs(
    [p.strip() for p in body.split("|") if p.strip()], where))


def _automorphism(text: str, where: str):
    name, body = _colon(text)
    return name, [_exprs(_cells(r, 4), where) for r in _cells(body, 4, ";")]


_SIGN_OPS = {"ineq": "!=", "pos": ">", "neg": "<"}
#: coordinate roles in orbit rows: sign constraints and sample grids
_ROLE_OPS = {"*": "!=", "+": ">", "-": "<"}
_ROLE_GRID = {".": (0, 1, -2), "*": (1, -1, 2), "+": (1, 2), "-": (-1, -2)}
_ROLES = {*_ROLE_GRID, "0", "dep"}
_COORDS = {f"x{i}" for i in range(1, NVARS + 1)}


def _orbit(value: str, where: str) -> OrbitRow:
    label, body = _colon(value)
    row = OrbitRow(label=label, dim=-1, rep=_ZERO, star=False, cond=_ALWAYS)
    for tok in body.split():
        key, val = _key_value(tok)
        if key in ("dim", "paperdim"):
            setattr(row, key, int(val))
        elif key == "rep":
            row.rep = GoldenExpr(val, where)
        elif key == "cond":
            row.cond = _cond(val, where)
        elif key == "star":
            if val not in ("yes", "no") and not val.startswith("if:"):
                raise ValueError(f"star must be yes, no or if:COND, "
                                 f"got {val!r}")
            row.star = (val == "yes" if val in ("yes", "no")
                        else _cond(val[3:], where))
        elif key in ("paperrep", "papernote"):
            note = "printed-rep=" + val if key == "paperrep" else val
            row.papernote = (row.papernote + " " + note).strip()
        elif key == "forall":
            name, colon, vals = val.partition(":")
            if not colon:
                raise ValueError(f"expected forall=NAME:VALUES, got {tok!r}")
            row.forall = (name, [Fraction(v) for v in vals.split(",")])
        elif key == "eq":
            row.extra_eqs.append(GoldenExpr(val, where))
        elif key in _SIGN_OPS:
            row.extra_ineqs.append((GoldenExpr(val, where), _SIGN_OPS[key]))
        elif key == "sample":
            row.samples.append(_exprs(_cells(val, NVARS, ","), where))
        elif key in _COORDS:
            row.coords[key] = val if val in _ROLES else GoldenExpr(val, where)
        elif key != "note":
            raise ValueError(f"unknown orbit token {tok!r}")
    return row


def _class(value: str, where: str) -> ClassLine:
    head, body = _colon(value)
    name, cond = _split_cond(head, "when")
    members = body.split()
    return ClassLine(name=name, cond=_cond(cond, where),
                     members=[m for m in members if m != "unwitnessed"],
                     unwitnessed="unwitnessed" in members)


def _skipclasses(value: str, where: str) -> tuple[GoldenExpr, str]:
    head, note = _colon(value)
    rest, cond = _split_cond(head, "when")
    if rest or not cond:
        raise ValueError(f"expected 'when COND', got {head!r}")
    return _cond(cond, where), note


_FAMILY_HEADER = _keyed({"family": _text, "algebra": _text, "when": _cond,
                         "samples": _parse_samples})
_FAMILY_SECTIONS = {
    "invariants": _keyed({"deg2": _if(GoldenExpr), "deg3": _if(GoldenExpr)}),
    "derivations": lambda t, w: _exprs(_cells(t, 4), w),
    "fields": lambda t, w: _exprs(_cells(t, NVARS, "|"), w),
    "bricks": lambda t, w: _exprs(t.split(), w),
    "rr": lambda t, w: _exprs(_cells(t, 4, "|"), w),
    "mcybe": _keyed({"mcybe": _system}),
    "cybe": _keyed({"cybe": _system}),
    "automorphisms": _automorphism,
    "orbits": _keyed({"orbit": _orbit}),
    "classes": _keyed({"class": _class, "skipclasses": _skipclasses}),
}


def load_family(stem: str) -> FamilyData:
    path = data_dir() / "families" / f"{stem}.txt"
    header, sec = _read_golden("families", f"{stem}.txt", _FAMILY_HEADER,
                               _FAMILY_SECTIONS)
    header = dict(header)

    def keyed(section: str, key: str) -> list:
        return [v for k, v in sec.get(section, []) if k == key]
    fam = FamilyData(
        name=header.get("family", ""), algebra=header.get("algebra", ""),
        when=header.get("when", _ALWAYS),
        samples=header.get("samples", [{}]),
        invariants={2: keyed("invariants", "deg2"),
                    3: keyed("invariants", "deg3")},
        der_form=sec.get("derivations", []), fields=sec.get("fields", []),
        # a missing [bricks] section means "no golden claim here"; an
        # empty one asserts that the family has no bricks
        bricks=sum(sec["bricks"], []) if "bricks" in sec else None,
        rr=sec["rr"][-1] if sec.get("rr") else [],
        mcybe=keyed("mcybe", "mcybe"), cybe=keyed("cybe", "cybe"),
        automorphisms=sec.get("automorphisms", []),
        orbits=keyed("orbits", "orbit"), classes=keyed("classes", "class"),
        skipclasses=keyed("classes", "skipclasses"), path=path)
    labels = {label for row in fam.orbits for label, _ in row.variants()}
    for cl in fam.classes:
        for m in cl.members:
            if m not in labels:
                raise GoldenDataError(f"{fam.path}: class {cl.name}: "
                                      f"member {m!r} names no orbit row")
    return fam


def qualifying_samples(fam: FamilyData, samples: Optional[list] = None
                       ) -> Iterator[tuple[dict, dict, LieAlgebra]]:
    """(params, short params, algebra) at each parameter sample (those
    given, or the family's own) where the family's ``when`` holds."""
    for ps in fam.samples if samples is None else samples:
        sp = _short_params(ps)
        if fam.when(sp):
            yield ps, sp, catalog(fam.algebra, **ps)


@lru_cache(maxsize=8)
def _sample_context(g: LieAlgebra) -> AlgebraContext:
    """The context of one parameter sample's algebra, shared by the
    orbit-table and bundle checks of a family file.  The cache holds more
    contexts than any family file has samples, so the bundle check finds
    every one that the orbit-table check built, and it stays bounded over
    a run of all the files."""
    return AlgebraContext(g)


FAMILY_FILES = ["s1", "s2", "s3", "s3aa", "s3a1", "s311", "s4", "s41",
                "s5", "s6", "s7", "s8", "s81", "s9", "s10", "s11",
                "s12", "n1"]
TREE_FILES = ["s1", "s2", "s3", "s311", "s4", "s5", "s6", "s7", "s8",
              "s9", "s10", "s11", "s12", "n1"]


# ---------------------------------------------------------------------------
# concrete records at fixed parameter values
# ---------------------------------------------------------------------------

@dataclass
class OrbitRecord:
    """One orbit-table row at fixed parameters.  Its sample points are
    built on first use of ``samples``: only the orbit-table check reads
    them."""

    label: str
    rep: MultiVector
    dim: int
    branch: TreeBranch
    star: bool
    row: OrbitRow = field(repr=False)
    env: dict = field(repr=False)

    @cached_property
    def samples(self) -> list[tuple[Fraction, ...]]:
        row, env = self.row, self.env
        out, push = locus_sampler(self.branch)
        push(self.rep.coords())
        for s in row.samples:
            push([Fraction(e(env)) for e in s])

        roles = [row.coords.get(f"x{i + 1}", ".") for i in range(NVARS)]
        grid_axes = [(i, [Fraction(v) for v in _ROLE_GRID[val]])
                     for i, val in enumerate(roles) if val in _ROLE_GRID]
        dep = [int(k[1:]) - 1 for k, v in row.coords.items() if v == "dep"]
        expr_coords = {int(k[1:]) - 1: v.poly(env)
                       for k, v in row.coords.items()
                       if isinstance(v, GoldenExpr)}
        eq_polys = [e.poly(env) for e in row.extra_eqs]

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
                    x = solve_linear(e, d, pt)
                    if x is not None:
                        pt[d] = x
                        break
            push(pt)
        return out

    @cached_property
    def cleared(self) -> list[tuple[int, list[int]]]:
        """Each sample point p as ``clear_denominators`` gives it: the lcm
        den of its denominators and the ints q = den * p."""
        return [clear_denominators(p) for p in self.samples]


def _row_branch(label: str, row: OrbitRow, env: dict) -> TreeBranch:
    eqs: list[Poly] = []
    ineqs: list = []
    for key, val in row.coords.items():
        i = int(key[1:]) - 1
        if val == "0":
            eqs.append(Poly.var(i))
        elif val in _ROLE_OPS:
            ineqs.append((Poly.var(i), _ROLE_OPS[val]))
        elif isinstance(val, GoldenExpr):
            eqs.append(Poly.var(i) - val.poly(env))
    eqs += [e.poly(env) for e in row.extra_eqs]
    ineqs += [(e.poly(env), op) for e, op in row.extra_ineqs]
    return TreeBranch(label=label, equalities=eqs, inequalities=ineqs)


def expand_rows(fam: FamilyData, params: dict) -> list[OrbitRecord]:
    """Concrete orbit records for one parameter assignment (long names)."""
    sp = _short_params(params)
    records = []
    for row in fam.orbits:
        for label, binding in row.variants():
            env = {**sp, **binding}
            if not row.cond(env):
                continue
            branch = _row_branch(label, row, env)
            star = row.star if isinstance(row.star, bool) else row.star(env)
            records.append(OrbitRecord(
                label=label, rep=row.rep.mv(env), dim=row.dim, branch=branch,
                star=star, row=row, env=env))
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
        return all(r.ok for r in self.rows) and not self.unmerged_components


def load_automorphisms(fam: FamilyData, params: dict,
                       g: LieAlgebra) -> list[tuple[str, RatMatrix]]:
    sp = _short_params(params)
    out = []
    for nme, rows in fam.automorphisms:
        T = RatMatrix([[e(sp) for e in r] for r in rows])
        if not is_automorphism(g, T):
            raise WitnessMissing(
                f"{fam.name}: shipped matrix {nme} fails bracket preservation")
        out.append((nme, T))
    return out


def verify_orbit_table(stem: str) -> TableReport:
    """Check every qualifying golden row of one family file: representative
    in its locus, orbit dimension, rank constancy across the sample grid,
    mCYBE membership, star consistency, and that the shipped automorphisms
    join the sign components of each row's locus."""
    fam = load_family(stem)
    rows: list[RowResult] = []
    unmerged = []
    auts_count = 0
    for ps, sp, g in qualifying_samples(fam):
        auts = load_automorphisms(fam, ps, g)
        auts_count += len(auts)
        lifted = [lambda_matrix(T, 2) for _, T in auts]
        ctx = _sample_context(g)
        for rec in expand_rows(fam, ps):
            problems = []
            errata = []
            if rec.row.papernote:
                errata.append(rec.row.papernote)
            if not locus_contains(rec.branch, rec.rep.coords()):
                problems.append("representative violates its own constraints")
            d = ctx.orbit_dim(rec.rep)
            if d != rec.dim:
                problems.append(f"orbit dim {d} != expected {rec.dim}")
            if rec.row.paperdim not in (None, rec.dim):
                errata.append(f"printed dim {rec.row.paperdim}, "
                              f"verified {rec.dim}")
            if not rec.samples:
                problems.append("no usable sample points")
            for p, (_, q) in zip(rec.samples, rec.cleared):
                if _rank_at_ints(ctx.fields, q) != rec.dim:
                    problems.append(f"rank at {p} != {rec.dim}")
                    break
                if not ctx._is_mcybe_ints(q):
                    problems.append(f"sample {p} fails the mCYBE")
                    break
            if not ctx.is_mcybe_at(rec.rep):
                problems.append("representative fails the mCYBE")
            if is_cybe_solution(g, rec.rep) != (not rec.star):
                problems.append("star mark inconsistent with the CYBE test")
            rows.append(RowResult(label=rec.label, params=dict(ps),
                                  ok=not problems, problems=problems,
                                  errata=errata, dims_checked=len(rec.samples)))
            if not problems:
                miss = _component_merge_gaps(lifted, rec)
                if miss:
                    unmerged.append((rec.label, dict(ps), miss))
    return TableReport(family=fam.name, rows=rows,
                       unmerged_components=unmerged, auts_validated=auts_count)


def _component_merge_gaps(lifted: Sequence[RatMatrix],
                          rec: OrbitRecord) -> list:
    """Sign components of the row locus not reachable from the
    representative's component via the shipped automorphisms, given as
    their lifts Λ²T.

    The walk runs on integer points (den, q) for q/den: with L = D·Λ²T the
    integer form of a lift, the image of q/den is (den·D, L·q).  The locus
    and the signs are read by ``eval(q, den)`` with the denominator kept,
    since the forms may have constant terms."""
    strict = [f for f, op in rec.branch.int_forms[1] if op == "!="
              and f.degree == 1]
    if not strict:
        return []

    def signature(den, q):
        return tuple(1 if f.eval(q, den) > 0 else -1 for f in strict)

    comps = dict.fromkeys(signature(den, q) for den, q in rec.cleared)
    if len(comps) <= 1:
        return []
    start = clear_denominators(rec.rep.coords())
    reached = {signature(*start)}
    frontier = [start]
    forms = [L._integer_form() for L in lifted]
    while frontier:
        den, q = frontier.pop()
        for scale, rows in forms:
            d, image = den * scale, [sum(x * q[j] for j, x in r)
                                     for r in rows]
            if locus_contains_ints(rec.branch, image, d):
                s = signature(d, image)
                if s not in reached:
                    reached.add(s)
                    frontier.append((d, image))
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
                   for tok in re.findall(r"m\d+", e.text)})
    out = []
    for s in syms:
        env = {**{t: Fraction(t == s) for t in syms}, **params}
        out.append(RatMatrix([[e(env) for e in row] for row in form_rows]))
    return out


def verify_family_bundle(stem: str) -> list[BundleResult]:
    """Golden checks per parameter sample: invariant spaces, derivation
    form span, fundamental-field span, bricks, the displayed [r,r], and
    span/locus agreement of the Yang-Baxter systems."""
    fam = load_family(stem)
    results = []
    for ps, sp, g in qualifying_samples(fam):
        ctx = _sample_context(g)
        problems = []

        for deg, (inv, _) in ((2, ctx.inv2), (3, ctx.inv3)):
            want = [e.mv(sp).coords() for cond, e in fam.invariants[deg]
                    if cond(sp)]
            got = [v.coords() for v in inv]
            if not _same_span(want, got):
                problems.append(f"invariants deg {deg} disagree")

        if fam.der_form:
            form = _der_form_basis(fam.der_form, sp)
            if not _same_span([m.flat() for m in form],
                              [m.flat() for m in ctx.ders]):
                problems.append("derivation form span disagrees")

        if fam.fields:
            env = {**_XS, **sp}
            want_rows = [[c for e in frow for c in e(env, _linear_row)]
                         for frow in fam.fields]
            comp = [X.matrix.flat() for X in ctx.fields]
            if not _same_span(want_rows, comp):
                problems.append("fundamental field span disagrees")

        if fam.bricks is not None:
            want_bricks = [normalize_poly(b.poly(sp)) for b in fam.bricks]
            got_bricks = [b.poly for b in find_bricks(ctx.fields)]
            if sorted(p.text() for p in want_bricks) != \
                    sorted(p.text() for p in got_bricks):
                problems.append(
                    f"bricks disagree: expected "
                    f"{[p.text() for p in want_bricks]},"
                    f" got {[p.text() for p in got_bricks]}")

        ybs = ctx.yb_system
        if fam.rr:
            for bl, expr, got in zip(blades(4, 3), fam.rr, ctx.rr):
                if expr.poly(sp) != got:
                    problems.append(f"[r,r] coefficient at blade {bl} differs")

        for kind, lines, computed in (("mcybe", fam.mcybe, ybs.reduced),
                                      ("cybe", fam.cybe,
                                       reduce_system([p for p in ybs.cybe
                                                      if not p.is_zero()]))):
            golden = next((polys for cond, polys in lines if cond(sp)), None)
            if golden is None:
                continue
            gp = [normalize_poly(q) for q in (e.poly(sp) for e in golden)
                  if not q.is_zero()]
            if not _poly_span_equal(gp, computed):
                problems.append(f"{kind} system span disagrees")
            if kind == "mcybe" and not loci_agree(
                    [p for p in ybs.mcybe if not p.is_zero()], gp):
                problems.append("mcybe locus equality fails")

        results.append(BundleResult(family=fam.name, params=dict(ps),
                                    ok=not problems, problems=problems))
    return results


def _linear_row(v, text: str) -> list[Fraction]:
    row = [Fraction(0)] * NVARS
    for mono, c in as_poly(v, text).terms.items():
        if len(mono) != 1 or mono[0][1] != 1:
            raise ExprError(f"field entry {text!r} is not linear")
        row[mono[0][0]] = c
    return row


def _same_span(a, b) -> bool:
    if not a and not b:
        return True
    width = len(a[0] if a else b[0])
    ma = RatMatrix(a) if a else RatMatrix.zero(0, width)
    mb = RatMatrix(b) if b else RatMatrix.zero(0, width)
    return row_space_equal(ma, mb)


def _poly_span_equal(a: Sequence[Poly], b: Sequence[Poly]) -> bool:
    return poly_rref(a) == poly_rref(b)


def loci_agree(system_a: Sequence[Poly], system_b: Sequence[Poly],
               npoints: int = 800, seed: int = 7) -> bool:
    """Variety-level agreement of two polynomial systems: mutual vanishing
    on a biased random grid whose random zero patterns make the sampled
    points actually hit the loci (integer points, tested exactly on the
    ``IntPoly`` forms of both systems).  Any sampled point on one locus but
    not the other refutes agreement.  Only the zero sets are compared, so
    x5 agrees with x5^2 although x5 is not in the ideal of x5^2."""
    int_a = [IntPoly(p) for p in system_a]
    int_b = [IntPoly(p) for p in system_b]
    for pt in _loci_points(npoints, seed):
        on_a = all(p.eval(pt) == 0 for p in int_a)
        on_b = all(p.eval(pt) == 0 for p in int_b)
        if on_a != on_b:
            return False
    return True


@cache
def _loci_points(npoints: int, seed: int) -> tuple[tuple[int, ...], ...]:
    """The sample points of ``loci_agree``, drawn once per process from
    ``random.Random(seed)``: per point a count of nonzero coordinates, their
    positions, and values in -3..3."""
    rng = random.Random(seed)
    out = []
    for _ in range(npoints):
        pt = [0] * NVARS
        nz = rng.randint(0, NVARS)
        for i in rng.sample(range(NVARS), nz):
            pt[i] = rng.randint(-3, 3)
        out.append(tuple(pt))
    return tuple(out)


# ---------------------------------------------------------------------------
# Schouten golden tables
# ---------------------------------------------------------------------------

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


def _blades(degree: int) -> dict[str, MultiVector]:
    return {k: v for k, v in _blade_env(4).items() if v.degree == degree}


def _schouten_entry(cell: str, where: str):
    """'.' -> None, '[PRINTED=>]VERIFIED' -> (PRINTED or None, VERIFIED)"""
    if cell == ".":
        return None
    printed, arrow, verified = cell.partition("=>")
    if not arrow:
        printed, verified = None, cell
    return printed, GoldenExpr(verified, where)


def load_schouten_table(fname: str, degl: int, degr: int) -> dict:
    """One bracket table: family -> [(left blade, column entries)], the
    left blades of degree degl and one column per blade of degree degr,
    each entry as ``_schouten_entry`` reads it."""
    lefts, ncols = _blades(degl), len(_blades(degr))

    def row(text: str, where: str):
        left, body = _colon(text)
        if left not in lefts:
            raise ValueError(f"{left!r} is not a blade of degree {degl}")
        return left, [_schouten_entry(c, where)
                      for c in _cells(body, ncols, "|")]
    table = _read_golden("schouten", fname, _keyed({}),
                         dict.fromkeys(FAMILIES, row))[1]
    for family, rows in table.items():
        got = [left for left, _ in rows]
        for left in lefts:
            if got.count(left) != 1:
                raise GoldenDataError(
                    f"{data_dir() / 'schouten' / fname}: section [{family}] "
                    f"has {got.count(left)} rows for {left}, expected 1")
    return table


def load_schouten_tables() -> list[dict]:
    """The SCHOUTEN_TABLES, in order, each read by ``load_schouten_table``."""
    return [load_schouten_table(*spec) for spec in SCHOUTEN_TABLES]


def verify_schouten_family(family: str,
                           tables: Optional[Sequence[dict]] = None
                           ) -> tuple[list[str], list[str]]:
    """Compare every golden entry of the three bracket tables for one
    family, at its SCHOUTEN_PARAMS sample, against the engine.  Returns
    (mismatches, errata): entries recorded as `printed=>verified` must
    match the verified value and are reported in the errata list with
    their printed value.  ``tables`` are the ``load_schouten_tables``
    result, read here when not given; a check of several families reads
    them once and passes them to each."""
    params = SCHOUTEN_PARAMS.get(family, {})
    g = catalog(family, **params)
    sp = _short_params(params)
    bad: list[str] = []
    errata: list[str] = []
    if tables is None:
        tables = load_schouten_tables()
    for (fname, degl, degr), table in zip(SCHOUTEN_TABLES, tables):
        if family not in table:
            raise GoldenDataError(f"schouten/{fname}: no section [{family}]")
        lefts, cols = _blades(degl), _blades(degr)
        for left, entries in table[family]:
            for (cname, right), entry in zip(cols.items(), entries):
                if entry is None:
                    continue
                printed, want = entry
                if printed is not None:
                    errata.append(f"{family}: printed [{left}, {cname}] = "
                                  f"{printed}, verified {want.text}")
                # a zero multivector equals the zero of any degree
                got = schouten(g, lefts[left], right)
                if got != want.mv(sp):
                    bad.append(f"{family}: [{left}, {cname}] = {got.text()}"
                               f" but table says {want.text}")
    return bad, errata


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------

@dataclass
class TreeData:
    name: str
    family_stem: str
    samples: list
    branches: list      # (kind, label, eq exprs, ineq exprs, meta dict)


def _tree_meta(text: str, where: str) -> dict:
    meta: dict = {"when": _ALWAYS, "dim": None, "k": None, "samples": []}
    toks = iter(text.split())
    for tok in toks:
        key, eq, val = tok.partition("=")
        if tok == "when":
            meta["when"] = _cond(next(toks, ""), where)
            if meta["when"] is _ALWAYS:
                raise ValueError("'when' needs a condition")
        elif key == "dim" and eq:
            meta["dim"] = int(val)
        elif key == "k" and eq:
            meta["k"] = [Fraction(v) for v in val.split(",")]
        elif key == "sample" and eq:
            meta["samples"].append(_exprs(_cells(val, NVARS, ","), where))
        else:
            raise ValueError(f"unknown tree token {tok!r}")
    return meta


def _branch(value: str, where: str):
    """'LABEL : f1, f2 | g1 ; dim=N k=... sample=... when COND'"""
    label, body = _colon(value)
    body, _, meta = body.partition(";")
    eq_part, _, ineq_part = body.partition("|")
    eqs = [e.strip() for e in eq_part.split(",") if e.strip()]
    ineqs = [e.strip() for e in ineq_part.split(",") if e.strip()]
    return (label, _exprs(eqs, where), _exprs(ineqs, where),
            _tree_meta(meta, where))


_TREE_LINE = _keyed({"tree": _text, "samples": _parse_samples,
                     "branch": _branch, "nosol": _branch})


def load_tree(stem: str) -> TreeData:
    lines = _read_golden("trees", f"{stem}.txt", _TREE_LINE, {})[0]
    header = dict(lines)
    name = header.get("tree", stem)
    return TreeData(name=name, family_stem=name,
                    samples=header.get("samples", [{}]),
                    branches=[(kind, *b) for kind, b in lines
                              if kind in ("branch", "nosol")])


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


def verify_tree(stem: str) -> TreeReport:
    """Check every branch of a classification tree at every qualifying
    parameter sample: solution branches pass verify_branch (Darboux family
    with exact cofactors, which makes its zero set flow-invariant; constant
    rank; mCYBE membership) and no-solution branches get an exact
    infeasibility certificate."""
    tree = load_tree(stem)
    fam = load_family(tree.family_stem)
    verified, nosol, unconfirmed, failures = [], [], [], []
    family_cache: dict = {}
    for ps in tree.samples:
        sp = _short_params(ps)
        g = catalog(fam.algebra, **ps)
        ctx = AlgebraContext(g, _der_form_basis(fam.der_form, sp)
                             if fam.der_form else None)
        msys = [p for p in ctx.yb_system.mcybe if not p.is_zero()]
        for kind, label, eqs, ineqs, meta in tree.branches:
            for kv in meta["k"] or [None]:
                env = dict(sp) if kv is None else {**sp, "k": kv}
                blabel = label if kv is None else f"{label}[k={kv}]"
                if not meta["when"](env):
                    continue
                branch = TreeBranch(
                    label=blabel, equalities=[e.poly(env) for e in eqs],
                    inequalities=[(e.poly(env), "!=") for e in ineqs],
                    expected_dim=meta["dim"])
                extra = [[Fraction(e(env)) for e in s]
                         for s in meta["samples"]]
                if kind == "nosol":
                    cert = certify_no_solutions(branch, msys, NVARS)
                    if cert is None:
                        unconfirmed.append((blabel, dict(ps)))
                    else:
                        nosol.append((blabel, dict(ps), cert))
                    continue
                pts = branch_samples(branch, NVARS, extra=extra)
                try:
                    rep = verify_branch(ctx, ctx.fields, branch, pts,
                                        family_cache=family_cache)
                except (BranchInvalid, IncompatibleFields) as e:
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
    reports = []
    for ps, sp, g in qualifying_samples(
            fam, None if params is None else [params]):
        skip = next((note for cond, note in reversed(fam.skipclasses)
                     if cond(sp)), None)
        if skip:
            reports.append(ClassReport(family=fam.name, params=dict(ps),
                                       witnessed=[], unwitnessed=[],
                                       separations=[], skipped=skip))
            continue
        ctx = AlgebraContext(g)
        records = {r.label: r for r in expand_rows(fam, ps)}
        auts = [("id", RatMatrix.identity(4))] + load_automorphisms(fam, ps, g)
        applied = [(cl.name, [m for m in cl.members if m in records])
                   for cl in fam.classes if cl.cond(sp)]
        applied = [(name, ms) for name, ms in applied if ms]
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
                    if ctx.same_coboundary(records[m].rep, anchor, T):
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
        sigs = [(cname, ctx.signature(records[ms[0]].rep))
                for cname, ms in applied]
        for i, (name_i, sig_i) in enumerate(sigs):
            for name_j, sig_j in sigs[i + 1:]:
                nc = NecessaryReport.compare(sig_i, sig_j)
                if nc.provably_inequivalent:
                    separations.append(((name_i, name_j), nc.reasons[0]))
        reports.append(ClassReport(family=fam.name, params=dict(ps),
                                   witnessed=witnessed,
                                   unwitnessed=unwitnessed,
                                   separations=separations))
    return reports
