"""Expression parser for the text data formats."""

from fractions import Fraction

import pytest

from darbouxlie.exactmath import Poly
from darbouxlie.exprparse import (ExprError, compile_condition,
                                  compile_expr, parse_expr, parse_poly,
                                  poly_env)

x = Poly.var


def test_parse_poly_basic():
    assert parse_poly("x1*x6 + 2*x3", 6) == x(0) * x(5) + 2 * x(2)
    assert parse_poly("x5^2", 6) == x(4) ** 2
    assert parse_poly("-(x1-x2)*x3", 6) == -(x(0) - x(1)) * x(2)
    assert parse_poly("x4/2", 6) == x(3) / 2
    assert parse_poly("3/4", 6) == Poly.const(Fraction(3, 4))


def test_parse_poly_with_params():
    p = parse_poly("(1+a)*x3+x4", 6, {"a": Fraction(1, 2)})
    assert p == Fraction(3, 2) * x(2) + x(3)


def test_parse_errors():
    with pytest.raises(ExprError):
        parse_poly("x9", 6)
    with pytest.raises(ExprError):
        parse_poly("x1/(x2)", 6)
    with pytest.raises(ExprError):
        parse_poly("x1 +", 6)
    with pytest.raises(ExprError):
        parse_poly("x1^x2", 6)
    with pytest.raises(ExprError):
        parse_poly("(x1", 6)


def test_multivectors_multiply_only_by_numbers():
    from darbouxlie.grassmann import MultiVector
    e12 = MultiVector.blade(4, [0, 1])
    env = {"e12": e12, "e34": MultiVector.blade(4, [2, 3]),
           "alpha": Fraction(3)}
    for text, scale in (("2*e12", 2), ("e12*2", 2), ("(1/2)*e12",
                        Fraction(1, 2)), ("alpha*e12", 3)):
        assert parse_expr(text, env) == e12 * scale
    for text in ("e12*e34", "e12*(e34+e12)", "2*e12*e34"):
        with pytest.raises(ExprError, match="multivectors multiply only by "
                                            "numbers"):
            parse_expr(text, env)
    assert parse_poly("x1*x2", 6) == x(0) * x(1)


def test_parse_condition():
    env = {"a": Fraction(-3, 4), "b": Fraction(-1, 4)}

    def parse_condition(s, params):
        return compile_condition(s)(params)

    assert parse_condition("a+b=-1", env)
    assert not parse_condition("a=1", env)
    assert parse_condition("a=1|a+b=-1", env)
    assert parse_condition("a!=1&b!=-1", env)
    assert parse_condition("", env)
    assert parse_condition("always", env)
    with pytest.raises(ExprError):
        parse_condition("a>1", env)


def test_nested_arithmetic():
    v = parse_expr("2*(1-(1/2))^3", {})
    assert v == Fraction(1, 4)


def test_division_by_zero_is_an_expr_error():
    for text in ("1/0", "x1/0", "x1/(1-1)", "e12/0", "(1-1)^(0-1)"):
        with pytest.raises(ExprError, match="division by zero"):
            parse_expr(text, {**poly_env(6), "e12": Poly.var(0)})


def test_power_of_a_non_scalar_is_an_expr_error():
    from darbouxlie.grassmann import MultiVector
    env = {"e12": MultiVector.blade(4, [0, 1])}
    with pytest.raises(ExprError, match="powers"):
        parse_expr("e12^2", env)
    assert parse_expr("(2*e12)^1*3", {"e12": Fraction(1)}) == 6
    assert parse_poly("(x1+x2)^2", 2) == (x(0) + x(1)) ** 2


def test_negative_power_of_a_polynomial_is_an_expr_error():
    for text in ("x5^(0-1)", "(x1+1)^(-2)", "(x1-x1+2)^(0-1)"):
        with pytest.raises(ExprError, match="polynomial powers must be "
                                            "nonnegative integers"):
            parse_poly(text, 6)
    assert parse_poly("x5^0", 6) == Poly.const(1)
    assert parse_expr("2^(0-1)", {}) == Fraction(1, 2)


@pytest.mark.parametrize("text", [
    "(" * 250 + "1" + ")" * 250, "0+" + "-" * 3000 + "1",
    "2^" * 3000 + "2"], ids=["250-parentheses", "3000-signs", "3000-powers"])
def test_deep_nesting_is_an_expr_error(text):
    with pytest.raises(ExprError):
        parse_expr(text, {})


@pytest.mark.parametrize("text, message", [
    ("x1+x2", ""), ("x1+" * 100 + "x3", "out of memory")],
    ids=["short-text", "other-message"])
def test_memory_error_other_than_the_parser_stack_overflow_propagates(
        monkeypatch, text, message):
    def parse(*args, **kwargs):
        raise MemoryError(message) if message else MemoryError
    monkeypatch.setattr("ast.parse", parse)
    with pytest.raises(MemoryError):
        compile_expr.__wrapped__(text)      # past the memo


def test_long_sum_is_evaluated_without_recursion():
    assert parse_poly("+".join(["x1"] * 1000), 6) == 1000 * x(0)
    assert parse_expr("-".join(["1"] * 1000), {}) == -998
    assert parse_expr("*".join(["2"] * 1000), {}) == 2 ** 1000


@pytest.mark.parametrize("text", [
    "x1**2", "x1^^2", "0x10", "0b1", "0o7", "1j", "'x1'", "None", "True",
    "f(x1)", "x1.real", "x1[0]", "x1<x2", "x1==x2", "x1//2", "x1%2",
    "x1 if x2 else x3", "not x1", "~x1", "(x1, x2)", "[x1]", "lambda: 1",
    "...", "", "x1 x2", "2x1", "007", "1_000"])
def test_outside_the_grammar_is_an_expr_error(text):
    with pytest.raises(ExprError):
        compile_expr(text)


def test_numbers_are_read_exactly_from_their_text():
    assert parse_expr("0.1", {}) == Fraction(1, 10)
    assert parse_expr("0.1+0.2", {}) == Fraction(3, 10)
    assert parse_expr("1e30", {}) == 10 ** 30
    assert parse_expr("3/4", {}) == Fraction(3, 4)


def test_compiled_once_per_text_and_evaluated_at_any_environment():
    f = compile_expr("(1+a)*x1")
    assert compile_expr("(1+a)*x1") is f
    for a in (Fraction(1, 2), Fraction(-1)):
        assert f(poly_env(6, {"a": a})) == (1 + a) * x(0)
    with pytest.raises(ExprError, match="unknown symbol 'a'"):
        f(poly_env(6))


def test_condition_syntax_is_checked_when_compiled():
    with pytest.raises(ExprError, match="bad condition atom"):
        compile_condition("a=1|b>2")
    with pytest.raises(ExprError, match="cannot parse"):
        compile_condition("a=1+")
    holds = compile_condition("a=1|a+b=-1")
    assert holds({"a": Fraction(1), "b": Fraction(5)})
    assert not holds({"a": Fraction(0), "b": Fraction(5)})


# ---------------------------------------------------------------------------
# differential test against sympy (skipped when it is absent)
# ---------------------------------------------------------------------------

def _random_expr(rng, depth=0):
    """A random polynomial expression in x1..x6 and the parameters a, b:
    decimals, p/q, small powers, unary signs and parentheses; division
    only by nonzero constants."""
    pick = rng.random()
    if depth > 3 or pick < 0.35:
        if rng.random() < 0.5:
            return f"x{rng.randint(1, 6)}"
        return rng.choice(["a", "b", str(rng.randint(0, 9)),
                           f"{rng.randint(0, 9)}.{rng.randint(0, 99)}",
                           f"({rng.randint(-5, 5)}/{rng.randint(1, 7)})"])
    if pick < 0.55:
        op = rng.choice("+-*")
        return (f"{_random_expr(rng, depth + 1)}{op}"
                f"{_random_expr(rng, depth + 1)}")
    if pick < 0.65:
        return f"{_random_expr(rng, depth + 1)}/{rng.randint(1, 9)}"
    if pick < 0.75:
        return f"({_random_expr(rng, depth + 1)})^{rng.randint(0, 3)}"
    if pick < 0.85:
        return f"{rng.choice('+-')}{_random_expr(rng, depth + 1)}"
    return f"({_random_expr(rng, depth + 1)})"


def test_parse_poly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    import random
    rng = random.Random(2024)
    xs = sympy.symbols("x1:7")
    for _ in range(300):
        text = _random_expr(rng)
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        got = parse_poly(text, 6, {"a": a, "b": b})
        want = sympy.sympify(text.replace("^", "**"), rational=True).subs(
            {"a": sympy.Rational(a.numerator, a.denominator),
             "b": sympy.Rational(b.numerator, b.denominator)})
        terms = sympy.Poly(want, *xs, domain="QQ").as_dict()
        assert {tuple((v, e) for v, e in enumerate(mono) if e):
                Fraction(int(c.numerator), int(c.denominator))
                for mono, c in terms.items()} == got.terms, text
