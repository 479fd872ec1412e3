"""Tiny arithmetic-expression parser for the text data formats.

Grammar: rationals, named symbols, ``+ - * / ^`` and parentheses.  The
caller supplies the symbol environment, so the same parser reads
polynomials in x1..xN (``2*x1*x6 + (1+a)*x3*x4``), bivector expressions
(``e12 - 2*e34``), and parameter conditions.  Division is only allowed by
constants.
"""

from __future__ import annotations

from fractions import Fraction

from .exactmath import Poly


class ExprError(ValueError):
    pass


_TOKEN_CHARS = set("+-*/^() \t")


def _tokenize(s: str) -> list[str]:
    out = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch in " \t":
            i += 1
        elif ch in "+-*/^()":
            out.append(ch)
            i += 1
        else:
            j = i
            while j < len(s) and s[j] not in _TOKEN_CHARS:
                j += 1
            out.append(s[i:j])
            i = j
    return out


class _Parser:
    def __init__(self, tokens: list[str], env: dict):
        self.toks = tokens
        self.pos = 0
        self.env = env

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        t = self.peek()
        self.pos += 1
        return t

    def expect(self, t):
        got = self.take()
        if got != t:
            raise ExprError(f"expected {t!r}, got {got!r}")

    def parse(self):
        v = self.expr()
        if self.peek() is not None:
            raise ExprError(f"trailing input at {self.peek()!r}")
        return v

    def expr(self):
        v = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            w = self.term()
            v = v + w if op == "+" else v - w
        return v

    def term(self):
        v = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            w = self.unary()
            if op == "*":
                if not (isinstance(v, (int, Fraction))
                        or isinstance(w, (int, Fraction))
                        or isinstance(v, Poly) and isinstance(w, Poly)):
                    raise ExprError("multivectors multiply only by numbers")
                v = v * w
            else:
                if not isinstance(w, (int, Fraction)):
                    raise ExprError("division only by constants")
                if not w:
                    raise ExprError("division by zero")
                v = v * (Fraction(1) / Fraction(w))
        return v

    def unary(self):
        if self.peek() == "-":
            self.take()
            return -self.unary()
        if self.peek() == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self):
        v = self.atom()
        if self.peek() == "^":
            self.take()
            e = self.atom()
            if not isinstance(e, (int, Fraction)) or Fraction(e).denominator != 1:
                raise ExprError("exponents must be integers")
            if not isinstance(v, (int, Fraction, Poly)):
                raise ExprError("powers only of numbers and polynomials")
            if e < 0 and isinstance(v, (int, Fraction)) and not v:
                raise ExprError("division by zero")
            if e < 0 and isinstance(v, Poly):
                raise ExprError("polynomial powers must be nonnegative "
                                "integers")
            return v ** int(Fraction(e))
        return v

    def atom(self):
        t = self.take()
        if t is None:
            raise ExprError("unexpected end of expression")
        if t == "(":
            v = self.expr()
            self.expect(")")
            return v
        if t[0].isdigit():
            try:
                return Fraction(t)
            except ValueError as e:
                raise ExprError(f"bad number {t!r}") from e
        if t in self.env:
            return self.env[t]
        raise ExprError(f"unknown symbol {t!r}")


def parse_expr(s: str, env: dict):
    """Evaluate expression s in the given symbol environment."""
    return _Parser(_tokenize(s), env).parse()


def poly_env(nvars: int, params: dict[str, Fraction] | None = None) -> dict:
    """Symbol environment mapping x1..xN to Poly variables plus parameters."""
    env: dict = {f"x{i + 1}": Poly.var(i) for i in range(nvars)}
    if params:
        env.update({k: Fraction(v) for k, v in params.items()})
    return env


def parse_poly(s: str, nvars: int, params: dict[str, Fraction] | None = None) -> Poly:
    v = parse_expr(s, poly_env(nvars, params))
    if isinstance(v, (int, Fraction)):
        v = Poly.const(v)
    if not isinstance(v, Poly):
        raise ExprError(f"{s!r} is not a polynomial expression")
    return v


def parse_condition(s: str, params: dict[str, Fraction]) -> bool:
    """Parameter condition: '|'-separated clauses of '&'-separated atoms,
    each atom '<expr>=<expr>' or '<expr>!=<expr>' over parameter symbols."""
    s = s.strip()
    if not s or s == "always":
        return True
    env = {k: Fraction(v) for k, v in params.items()}

    def atom(a: str) -> bool:
        if "!=" in a:
            lhs, rhs = a.split("!=", 1)
            return parse_expr(lhs, env) != parse_expr(rhs, env)
        if "=" in a:
            lhs, rhs = a.split("=", 1)
            return parse_expr(lhs, env) == parse_expr(rhs, env)
        raise ExprError(f"bad condition atom {a!r}")

    return any(all(atom(a) for a in clause.split("&"))
               for clause in s.split("|"))
