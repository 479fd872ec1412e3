"""Expression parser for the text data formats."""

from fractions import Fraction

import pytest

from darbouxlie.exactmath import Poly
from darbouxlie.exprparse import (ExprError, parse_condition, parse_expr,
                                  parse_poly, poly_env)

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
