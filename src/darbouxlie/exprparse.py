"""Arithmetic expressions of the text data formats.

Grammar: rationals, named symbols, ``+ - * / ^`` and parentheses, parsed
once per text by Python's own parser (``^`` read as a power) into a
function of the symbol environment that the caller supplies: x1..xN for
polynomials, blade names for multivectors, parameters for conditions.
Numbers are read exactly from their text; division is only by constants.
Nothing is evaluated by Python itself.
"""

from __future__ import annotations

import ast
import operator
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable

from .exactmath import Poly


class ExprError(ValueError):
    pass


def _mul(v, w):
    if not (isinstance(v, (int, Fraction)) or isinstance(w, (int, Fraction))
            or isinstance(v, Poly) and isinstance(w, Poly)):
        raise ExprError("multivectors multiply only by numbers")
    return v * w


def _div(v, w):
    if not isinstance(w, (int, Fraction)):
        raise ExprError("division only by constants")
    if not w:
        raise ExprError("division by zero")
    return v * (Fraction(1) / Fraction(w))


def _pow(v, e):
    if not isinstance(e, (int, Fraction)) or Fraction(e).denominator != 1:
        raise ExprError("exponents must be integers")
    if not isinstance(v, (int, Fraction, Poly)):
        raise ExprError("powers only of numbers and polynomials")
    if e < 0 and isinstance(v, (int, Fraction)) and not v:
        raise ExprError("division by zero")
    if e < 0 and isinstance(v, Poly):
        raise ExprError("polynomial powers must be nonnegative integers")
    return v ** int(Fraction(e))


_MEMO = 4096    # texts kept: the golden data has a few hundred distinct ones
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: _mul,
           ast.Div: _div, ast.Pow: _pow}


def _emit(node, code: list, lines: list[bytes]) -> None:
    """Append the postfix code of ``node`` to ``code``: a Fraction or a
    symbol name pushes its value, ``operator.neg`` negates the top of the
    stack and each other function combines the top two.  The left operands
    of a chain such as ``a+b-c`` are walked without recursion."""
    spine = []
    while type(node) is ast.BinOp and type(node.op) in _BINARY:
        spine.append(node)
        node = node.left
    if type(node) is ast.UnaryOp and type(node.op) in (ast.UAdd, ast.USub):
        _emit(node.operand, code, lines)
        if type(node.op) is ast.USub:
            code.append(operator.neg)
    elif type(node) is ast.Name:
        code.append(node.id)
    elif type(node) is ast.Constant and type(node.value) in (int, float):
        # read exactly from the source text; offsets are in UTF-8 bytes
        text = lines[node.lineno - 1][node.col_offset:node.end_col_offset]
        try:  # a space in place of "_": Fraction reads "_" only from 3.11 on
            code.append(Fraction(text.decode().replace("_", " ")))
        except ValueError:
            raise ExprError(f"bad number {text.decode()!r}") from None
    else:
        raise ExprError(f"unsupported {type(node).__name__.lower()} "
                        f"{ast.unparse(node)!r}")
    for op in reversed(spine):
        _emit(op.right, code, lines)
        code.append(_BINARY[type(op.op)])


def _run(code: tuple, env: dict):
    stack: list = []
    for c in code:
        if type(c) is Fraction:
            stack.append(c)
        elif type(c) is str:
            try:
                stack.append(env[c])
            except KeyError:
                raise ExprError(f"unknown symbol {c!r}") from None
        elif c is operator.neg:
            stack[-1] = -stack[-1]
        else:
            w = stack.pop()
            stack[-1] = c(stack[-1], w)
    return stack[-1]


@lru_cache(maxsize=_MEMO)
def compile_expr(text: str) -> Callable[[dict], object]:
    """The expression ``text`` as a function of a symbol environment.  A
    syntax error, or a construct outside the grammar, is an ExprError
    here; an unknown symbol or a division by zero is one when the function
    is called."""
    if "**" in text:
        raise ExprError(f"write powers as ^, not ** in {text!r}")
    src = text.strip().replace("^", "**")
    code: list = []
    try:
        _emit(ast.parse(src, mode="eval").body, code,
              src.encode().splitlines())
    except SyntaxError as e:
        raise ExprError(f"cannot parse {text!r}: {e.msg}") from None
    except (RecursionError, MemoryError) as e:
        # the parser's stack overflow is a MemoryError, with no message
        # before Python 3.12; no text under 200 characters overflows it
        if isinstance(e, MemoryError) and (len(src) < 200 or str(e) and not
                                           str(e).startswith("Parser stack")):
            raise
        raise ExprError(f"{text!r} is nested too deeply") from None
    return partial(_run, tuple(code))


def parse_expr(s: str, env: dict):
    """Evaluate expression s in the given symbol environment."""
    return compile_expr(s)(env)


def poly_env(nvars: int, params: dict[str, Fraction] | None = None) -> dict:
    """Symbol environment mapping x1..xN to Poly variables plus parameters."""
    env: dict = {f"x{i + 1}": Poly.var(i) for i in range(nvars)}
    if params:
        env.update({k: Fraction(v) for k, v in params.items()})
    return env


def as_poly(v, s: str) -> Poly:
    """The value v of expression s as a polynomial."""
    if isinstance(v, (int, Fraction)):
        v = Poly.const(v)
    if not isinstance(v, Poly):
        raise ExprError(f"{s!r} is not a polynomial expression")
    return v


def parse_poly(s: str, nvars: int,
               params: dict[str, Fraction] | None = None) -> Poly:
    return as_poly(parse_expr(s, poly_env(nvars, params)), s)


@lru_cache(maxsize=_MEMO)
def compile_condition(s: str) -> Callable[[dict], bool]:
    """Parameter condition: '|'-separated clauses of '&'-separated atoms,
    each atom '<expr>=<expr>' or '<expr>!=<expr>' over parameter symbols
    ('' and 'always' hold everywhere), as a function of the parameter
    environment."""
    s = s.strip()
    if not s or s == "always":
        return lambda env: True

    def atom(a: str):
        ne = "!=" in a
        lhs, eq, rhs = a.partition("!=" if ne else "=")
        if not eq:
            raise ExprError(f"bad condition atom {a!r}")
        return ne, compile_expr(lhs), compile_expr(rhs)

    clauses = [[atom(a) for a in clause.split("&")] for clause in s.split("|")]
    return lambda env: any(all((lhs(env) != rhs(env)) == ne
                               for ne, lhs, rhs in clause)
                           for clause in clauses)

