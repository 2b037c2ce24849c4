"""Infix grammar: round trips and diagnostics."""

import random

import pytest

from gaugeflow import Expression, coordinate, multiplier, parse_expression, render_expression
from gaugeflow.errors import ExpressionSyntaxError
from gaugeflow.expr import ZERO
from gaugeflow.parse import _Tokens

from conftest import random_polynomial

x = coordinate("x")
y = coordinate("y")


def test_basic_forms():
    assert parse_expression("x + y") == Expression.var(x) + Expression.var(y)
    assert parse_expression("(x - y)^2 / 2") == (Expression.var(x) - Expression.var(y)) ** 2 / 2
    assert parse_expression("3/2*x") == Expression.const(3) / 2 * Expression.var(x)
    assert parse_expression("-x^2") == -(Expression.var(x) ** 2)
    assert parse_expression("x^-1") == 1 / Expression.var(x)


def test_variable_kinds():
    assert parse_expression("p_x") == Expression.var(x.momentum())
    assert parse_expression("x''") == Expression.var(x.jet(2))
    assert parse_expression("lam[2]") == Expression.var(multiplier(2))
    a = coordinate("A", (1, 0))
    assert parse_expression("p_A[1,0]") == Expression.var(a.momentum())
    assert parse_expression("A[1,0]'") == Expression.var(a.jet(1))


def test_momenta_reject_primes():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("p_x'")


def test_syntax_errors_carry_position():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("x + ")
    assert err.value.line == 1 and err.value.column >= 4
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("x ^ y")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("(x + y")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("x @ y")


def test_location_matches_count_and_rfind():
    text = "x +\n\n  y*\nz\n\n- x^2 \n"
    tokens = _Tokens(text, line_offset=4)
    for at in range(len(text) + 1):
        line = text.count("\n", 0, at) + 1 + 4
        col = at - (text.rfind("\n", 0, at) + 1) + 1
        assert tokens.location(at) == (line, col)


def test_long_sum_parses_to_its_left_fold():
    rng = random.Random(2000)
    signs = [rng.choice("+-") for _ in range(2000)]
    terms = [f"{rng.randint(1, 9)}/{rng.randint(1, 4)}*x^{rng.randint(0, 4)}*y^{rng.randint(0, 4)}"
             for _ in range(2000)]
    terms[-1] = "x/(y + 1)"
    expected = ZERO
    for sign, term in zip(signs, terms):
        e = parse_expression(term)
        expected = expected + e if sign == "+" else expected - e
    assert parse_expression(" ".join(f"{s} {t}" for s, t in zip(signs, terms))) == expected


def test_round_trip_handpicked():
    samples = [
        "0",
        "-7/3",
        "1/2*p_x^2 + p_x*y",
        "(x + 1)/(y)",
        "(x^2*y - 2)/(y^2 + 3*x)",
        "A[1,0,2]^3*p_A[1,0,2] + lam[0]*p_x - 1/3*A[1,0,2]''",
    ]
    for text in samples:
        e = parse_expression(text)
        assert render_expression(e) == text
        assert parse_expression(render_expression(e)) == e


def test_round_trip_random():
    rng = random.Random(20240817)
    pool = [x, y, x.jet(1), x.momentum(), y.momentum(),
            coordinate("A", (1, 2)), coordinate("A", (1, 2)).jet(1), multiplier(0)]
    for _ in range(300):
        e = random_polynomial(rng, pool, max_terms=5, max_factors=3)
        if rng.random() < 0.3:
            den = random_polynomial(rng, [x, y], max_terms=2, max_factors=1)
            if not den.is_zero():
                e = e / den
        assert parse_expression(render_expression(e)) == e
