"""Lie algebras given by structure constants, with exact validation and the
built-in catalog of the thirteen real four-dimensional indecomposable
families (s1..s12, n1).

Conventions: basis indices are 0-based internally and displayed 1-based;
``c[i][j][k]`` holds the e_k-coefficient of [e_i, e_j].  Structure constants
are exact rationals; parameterized families take exact rational parameters
only.

Each algebra also holds its integer table (``LieAlgebra.int_table``): the
lcm D of the constants' denominators and the ints D·c, computed once.  The
per-algebra systems (the center here, derivations, invariants, the grading
system of ``centerext``) are linear and homogeneous in c, so they are built
from D·c: every row is scaled by D, which keeps the row space, its reduced
row-echelon form and the kernel basis exactly.
"""

from __future__ import annotations

import itertools
import re
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .exactmath import clear_denominators, int_kernel_basis, rat

MAX_DIM = 8  # exterior-basis bitmasks are fixed-width; larger inputs rejected


class DimensionMismatch(ValueError):
    pass


class ParamOutOfRange(ValueError):
    pass


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    c: tuple  # c[i][j][k] : Fraction
    name: str = ""
    params: dict = field(default_factory=dict, compare=False)

    @cached_property
    def int_table(self) -> tuple[int, tuple]:
        """D, the lcm of the denominators of the constants (1 if they are
        all integers), and D·c as ints in the nested layout of ``c``."""
        n = self.dim
        d, flat = clear_denominators(x for plane in self.c for row in plane
                                     for x in row)
        it = iter(flat)
        return d, tuple(tuple(tuple(next(it) for _ in range(n))
                              for _ in range(n)) for _ in range(n))


def from_brackets(dim: int, brackets: dict, name: str = "",
                  params: Optional[dict] = None) -> LieAlgebra:
    """Build a LieAlgebra from nonzero brackets {(i, j): vector}, i < j.
    Zero constants are not negated: a zero entry and its antisymmetric
    partner are the same object.  A vector longer than ``dim`` raises
    ``DimensionMismatch``."""
    if dim > MAX_DIM:
        raise DimensionMismatch(f"dim {dim} exceeds supported maximum {MAX_DIM}")
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), vec in brackets.items():
        if not (0 <= i < dim and 0 <= j < dim):
            raise DimensionMismatch(f"bad basis index in bracket ({i},{j})")
        xs = [rat(x) for x in vec]
        if len(xs) > dim:
            raise DimensionMismatch(f"bracket ({i},{j}) has {len(xs)} "
                                    f"coordinates in dimension {dim}")
        row, neg = c[i][j], c[j][i]
        for k, x in enumerate(xs):
            row[k] = x
            neg[k] = -x if x else x
    frozen = tuple(tuple(tuple(row) for row in plane) for plane in c)
    return LieAlgebra(dim, frozen, name, dict(params or {}))


def bracket(g: LieAlgebra, v: Sequence, w: Sequence) -> tuple[Fraction, ...]:
    """[v, w] componentwise from the structure constants."""
    v = [rat(x) for x in v]
    w = [rat(x) for x in w]
    if len(v) != g.dim or len(w) != g.dim:
        raise DimensionMismatch("vector length does not match algebra dimension")
    out = [Fraction(0)] * g.dim
    for i in range(g.dim):
        if not v[i]:
            continue
        for j in range(g.dim):
            if not w[j]:
                continue
            coef = v[i] * w[j]
            row = g.c[i][j]
            for k in range(g.dim):
                if row[k]:
                    out[k] += coef * row[k]
    return tuple(out)


def validate(g: LieAlgebra) -> list[str]:
    """Empty list iff antisymmetry and the Jacobi identity hold exactly."""
    n = g.dim
    bad = [f"antisymmetry fails at c[{i+1}][{j+1}][{k+1}]"
           for i, j, k in itertools.product(range(n), repeat=3)
           if g.c[i][j][k] != -g.c[j][i][k]]
    # Jacobi: c[i][j][m]*c[m][k][l] + cyclic, summed over nonzero factors
    nz = [[[(m, x) for m, x in enumerate(r) if x] for r in plane]
          for plane in g.c]
    for i, j, k in itertools.combinations(range(n), 3):
        s = [Fraction(0)] * n
        for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
            for m, x in nz[a][b]:
                for l, y in nz[m][d]:
                    s[l] += x * y
        bad += [f"Jacobi fails on (e{i+1},e{j+1},e{k+1}) in e{l+1}: {v}"
                for l, v in enumerate(s) if v]
    return bad


def center(g: LieAlgebra) -> list[tuple[Fraction, ...]]:
    """Basis of {v : [v, w] = 0 for all w}, via one stacked kernel solve:
    the row of (e_j, e_k) holds the D·c[i][j][k] over i."""
    n = g.dim
    _, c = g.int_table
    rows = ({i: c[i][j][k] for i in range(n) if c[i][j][k]}
            for j in range(n) for k in range(n))
    return int_kernel_basis(rows, n)


# ---------------------------------------------------------------------------
# catalog of real four-dimensional indecomposable Lie algebras
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogId:
    family: str
    params: tuple = ()  # sorted (name, Fraction) pairs

    def as_dict(self) -> dict:
        return dict(self.params)

    def label(self) -> str:
        if not self.params:
            return self.family
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.family}({inner})"


FAMILIES = ["s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9",
            "s10", "s11", "s12", "n1"]

#: which parameters each family takes
FAMILY_PARAMS = {
    "s3": ("alpha", "beta"), "s4": ("alpha",), "s5": ("alpha", "beta"),
    "s8": ("alpha",), "s9": ("alpha",),
}


def _check_params(family: str, p: dict) -> None:
    a = p.get("alpha")
    b = p.get("beta")
    if family == "s3":
        if a == 0 or b == 0 or abs(b) > abs(a) or abs(a) > 1:
            raise ParamOutOfRange("s3 requires 0 < |beta| <= |alpha| <= 1")
        if (a, b) == (-1, -1):
            raise ParamOutOfRange("s3 excludes (alpha, beta) = (-1, -1)")
        if abs(a) == abs(b) and a < b:
            warnings.warn("s3 with |alpha| = |beta| and alpha < beta is "
                          "isomorphic to the swapped algebra; the catalog "
                          "convention is alpha >= beta", stacklevel=3)
    elif family == "s4":
        if a == 0:
            raise ParamOutOfRange("s4 requires alpha != 0")
    elif family == "s5":
        if a <= 0:
            raise ParamOutOfRange("s5 requires alpha > 0")
    elif family == "s8":
        if not (-1 < a <= 1) or a == 0:
            raise ParamOutOfRange("s8 requires alpha in (-1, 1] \\ {0}")
    elif family == "s9":
        if a <= 0:
            raise ParamOutOfRange("s9 requires alpha > 0")


def catalog(family, **params) -> LieAlgebra:
    """The Table of four-dimensional indecomposable algebras, by family name
    (or a CatalogId).  Parameter ranges are enforced exactly."""
    if isinstance(family, CatalogId):
        params = {**family.as_dict(), **params}
        family = family.family
    if family not in FAMILIES:
        raise ParamOutOfRange(f"unknown catalog family {family!r}")
    need = FAMILY_PARAMS.get(family, ())
    p = {k: rat(v) for k, v in params.items()}
    missing = [k for k in need if k not in p]
    extra = [k for k in p if k not in need]
    if missing or extra:
        raise ParamOutOfRange(
            f"{family} takes parameters {need}; got {tuple(p)}")
    _check_params(family, p)
    a = p.get("alpha")
    b = p.get("beta")
    one = Fraction(1)

    if family == "s1":
        br = {(1, 3): [-1, 0, 0, 0], (2, 3): [0, 0, -1, 0]}
    elif family == "s2":
        br = {(0, 3): [-1, 0, 0, 0], (1, 3): [-1, -1, 0, 0],
              (2, 3): [0, -1, -1, 0]}
    elif family == "s3":
        br = {(0, 3): [-1, 0, 0, 0], (1, 3): [0, -a, 0, 0],
              (2, 3): [0, 0, -b, 0]}
    elif family == "s4":
        br = {(0, 3): [-1, 0, 0, 0], (1, 3): [-1, -1, 0, 0],
              (2, 3): [0, 0, -a, 0]}
    elif family == "s5":
        br = {(0, 3): [-a, 0, 0, 0], (1, 3): [0, -b, one, 0],
              (2, 3): [0, -1, -b, 0]}
    elif family == "s6":
        br = {(1, 2): [1, 0, 0, 0], (1, 3): [0, -1, 0, 0],
              (2, 3): [0, 0, 1, 0]}
    elif family == "s7":
        br = {(1, 2): [1, 0, 0, 0], (1, 3): [0, 0, 1, 0],
              (2, 3): [0, -1, 0, 0]}
    elif family == "s8":
        br = {(0, 3): [-(1 + a), 0, 0, 0], (1, 2): [1, 0, 0, 0],
              (1, 3): [0, -1, 0, 0], (2, 3): [0, 0, -a, 0]}
    elif family == "s9":
        br = {(0, 3): [-2 * a, 0, 0, 0], (1, 2): [1, 0, 0, 0],
              (1, 3): [0, -a, one, 0], (2, 3): [0, -1, -a, 0]}
    elif family == "s10":
        br = {(0, 3): [-2, 0, 0, 0], (1, 2): [1, 0, 0, 0],
              (1, 3): [0, -1, 0, 0], (2, 3): [0, -1, -1, 0]}
    elif family == "s11":
        br = {(0, 3): [-1, 0, 0, 0], (1, 2): [1, 0, 0, 0],
              (1, 3): [0, -1, 0, 0]}
    elif family == "s12":
        br = {(0, 2): [-1, 0, 0, 0], (0, 3): [0, 1, 0, 0],
              (1, 2): [0, -1, 0, 0], (1, 3): [-1, 0, 0, 0]}
    else:  # n1
        br = {(1, 3): [1, 0, 0, 0], (2, 3): [0, 1, 0, 0]}

    name = family if not p else CatalogId(
        family, tuple(sorted(p.items()))).label()
    return from_brackets(4, br, name=name, params=p)


def abelian(dim: int) -> LieAlgebra:
    return from_brackets(dim, {}, name=f"abelian{dim}")


# ---------------------------------------------------------------------------
# text format for user algebras
# ---------------------------------------------------------------------------

_DIM_RE = re.compile(r"^dim\s+([+-]?\d+)$")
_BRACKET_RE = re.compile(r"^\[\s*(\d+)\s*,\s*(\d+)\s*\]\s*=\s*(.+)$")
_TERM_RE = re.compile(
    r"^\s*([+-]?)\s*(?:(\d+(?:/\d+)?)\s*\*?\s*)?e(\d+)\s*$")


def parse_algebra(text: str, name: str = "user") -> LieAlgebra:
    """Parse the bracket-table format::

        dim 4
        [2,4] = -e1
        [3,4] = -1*e3
        # comments and blank lines ignored; coefficients are p/q rationals
    """
    dim = None
    brackets: dict[tuple[int, int], list] = {}
    first_line: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = _DIM_RE.match(line)
        if head:
            if dim is not None:
                raise ValueError(f"line {lineno}: 'dim N' must be given "
                                 f"once, before the first bracket")
            dim = int(head.group(1))
            if dim <= 0 or dim > MAX_DIM:
                raise DimensionMismatch(
                    f"line {lineno}: dim must be in 1..{MAX_DIM}")
            continue
        m = _BRACKET_RE.match(line)
        if not m or dim is None:
            raise ValueError(f"line {lineno}: expected 'dim N' or "
                             f"'[i,j] = c1*e1 + ...', got {raw!r}")
        i, j = int(m.group(1)), int(m.group(2))
        if not (1 <= i <= dim and 1 <= j <= dim) or i == j:
            raise ValueError(f"line {lineno}: bad bracket indices [{i},{j}]")
        vec = [Fraction(0)] * dim
        rhs = m.group(3).strip()
        if rhs != "0":
            for piece in re.split(r"(?=[+-])", rhs.replace(" ", "")):
                if not piece:
                    continue
                t = _TERM_RE.match(piece)
                if not t:
                    raise ValueError(f"line {lineno}: bad term {piece!r}")
                sign = -1 if t.group(1) == "-" else 1
                try:
                    coef = Fraction(t.group(2)) if t.group(2) else Fraction(1)
                except ZeroDivisionError:
                    raise ValueError(f"line {lineno}: zero denominator in "
                                     f"{piece!r}") from None
                k = int(t.group(3))
                if not 1 <= k <= dim:
                    raise ValueError(f"line {lineno}: e{k} out of range")
                vec[k - 1] += sign * coef
        key = (i - 1, j - 1) if i < j else (j - 1, i - 1)
        if key in first_line:
            raise ValueError(f"line {lineno}: bracket [{i},{j}] was already "
                             f"given on line {first_line[key]}")
        first_line[key] = lineno
        if i > j:
            vec = [-x for x in vec]
        brackets[key] = vec
    if dim is None:
        raise ValueError("missing 'dim N' header line")
    return from_brackets(dim, brackets, name=name)
