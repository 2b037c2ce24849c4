"""Infix grammar: round trips and diagnostics."""

import random
import sys
import time

import pytest

from gaugeflow import (
    Expression,
    coordinate,
    multiplier,
    parse_expression,
    parse_model,
    render_expression,
)
from gaugeflow.errors import (
    ExpressionSyntaxError,
    GaugeflowError,
    IndexOutOfRange,
    ModelSyntaxError,
    NonPolynomialLagrangian,
    UnknownSymbol,
)
from gaugeflow.expr import ZERO
from gaugeflow.parse import MAX_NESTING, _Tokens, parse_variable

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


def test_parse_variable_reads_the_var_rule_only():
    a = coordinate("A", (1, 0))
    assert parse_variable("x") is x
    assert parse_variable(" A[1,0]'' ") is a.jet(2)
    assert parse_variable("p_A[1,0]") is a.momentum()
    for text in ("", "(x)", "x*1", "x + y", "-x", "2"):
        assert parse_variable(text) is None, text
    # the lexer and the resolver report as they do inside an expression
    with pytest.raises(ExpressionSyntaxError, match=r"\(line 3, column 3\)$"):
        parse_variable(" x$", line_offset=2)
    with pytest.raises(ExpressionSyntaxError, match="momenta carry no primes"):
        parse_variable("p_x'")


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


# (text, outcome of parse_expression, outcome as a model's Lagrangian on line
# 5); an outcome is (exception, exact message) or the rendered result
LEXER_CASES = [
    ("x $ y", (ExpressionSyntaxError, "unexpected character '$' (line 1, column 3)"),
     (ExpressionSyntaxError, "unexpected character '$' (line 5, column 3)")),
    ("x + + $", (ExpressionSyntaxError, "unexpected character '$' (line 1, column 7)"),
     (ExpressionSyntaxError, "unexpected character '$' (line 5, column 7)")),
    ("A[1,", (ExpressionSyntaxError, "indices must be integers (line 1, column 5)"),
     (ExpressionSyntaxError, "indices must be integers (line 5, column 5)")),
    ("A[ 1 , 2 ]'", "A[1,2]'",
     (IndexOutOfRange, "A[1,2] is outside the declared index ranges (line 5, column 1)")),
    ("p_x'", (ExpressionSyntaxError, "momenta carry no primes (line 1, column 1)"),
     (ExpressionSyntaxError, "momenta carry no primes (line 5, column 1)")),
    ("2^x", (ExpressionSyntaxError, "exponent must be an integer (line 1, column 3)"),
     (ExpressionSyntaxError, "exponent must be an integer (line 5, column 3)")),
    ("(x", (ExpressionSyntaxError, "expected ')', found None (line 1, column 3)"),
     (ExpressionSyntaxError, "expected ')', found None (line 5, column 3)")),
    ("", (ExpressionSyntaxError, "unexpected end of expression (line 1, column 1)"),
     (ModelSyntaxError, "a model needs a [lagrangian] section")),
    # the parser's own error comes first when it stops before the bad character
    ("2^x @", (ExpressionSyntaxError, "exponent must be an integer (line 1, column 3)"),
     (ExpressionSyntaxError, "exponent must be an integer (line 5, column 3)")),
    # a division by zero would come first if the parser passed the error token
    ("x/0 $", (ExpressionSyntaxError, "unexpected character '$' (line 1, column 5)"),
     (ExpressionSyntaxError, "unexpected character '$' (line 5, column 5)")),
    ("(x 5", (ExpressionSyntaxError, "expected ')', found 5 (line 1, column 4)"),
     (ExpressionSyntaxError, "expected ')', found 5 (line 5, column 4)")),
    ("(x)''", (ExpressionSyntaxError, "trailing input starting at 2 (line 1, column 4)"),
     (ExpressionSyntaxError, "trailing input starting at 2 (line 5, column 4)")),
    # a tab and a non-ASCII space between tokens
    ("x\t+\u00a0y", "x + y", (UnknownSymbol, "unknown symbol 'y' (line 5, column 5)")),
    ("x\t+\u00a0$", (ExpressionSyntaxError, "unexpected character '$' (line 1, column 5)"),
     (ExpressionSyntaxError, "unexpected character '$' (line 5, column 5)")),
    ("x\u2003*\tx ^ 2 @",
     (ExpressionSyntaxError, "unexpected character '@' (line 1, column 11)"),
     (ExpressionSyntaxError, "unexpected character '@' (line 5, column 11)")),
    ("lam[0]'", (ExpressionSyntaxError, "multipliers carry no primes (line 1, column 1)"),
     (UnknownSymbol, "unknown symbol 'lam' (line 5, column 1)")),
    ("x + )", (ExpressionSyntaxError, "expected a value, found ')' (line 1, column 5)"),
     (ExpressionSyntaxError, "expected a value, found ')' (line 5, column 5)")),
    ("A[1 2]", (ExpressionSyntaxError, "expected ',' or ']' in index list (line 1, column 5)"),
     (ExpressionSyntaxError, "expected ',' or ']' in index list (line 5, column 5)")),
]


def _outcome(parse, text):
    try:
        return render_expression(parse(text))
    except GaugeflowError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("text, expression, lagrangian", LEXER_CASES)
def test_lexer_outcomes(text, expression, lagrangian):
    assert _outcome(parse_expression, text) == expression
    model = "[vars]\nx\nA[0:2]\n[lagrangian]\n" + text + "\n"
    assert _outcome(lambda t: parse_model(t).lagrangian, model) == lagrangian


# a Lagrangian over several lines is parsed as the file's own lines, so a
# position in it is its position in the file
@pytest.mark.parametrize("last, outcome", [
    ("- $", (ExpressionSyntaxError, "unexpected character '$' (line 7, column 3)")),
    ("- z", (UnknownSymbol, "unknown symbol 'z' (line 7, column 3)")),
    ("- p_y", (NonPolynomialLagrangian, "the Lagrangian must be a function of coordinates "
                                        "and velocities; found p_y (line 7, column 3)")),
])
def test_three_line_lagrangian_outcomes(last, outcome):
    model = f"[vars]\nx\ny\n[lagrangian]\nx'^2\n+ y'^2\n{last}\n"
    assert _outcome(lambda t: parse_model(t).lagrangian, model) == outcome


# leading space, blank lines and comment lines keep their place
@pytest.mark.parametrize("lagrangian, outcome", [
    ("  x'^2 + $", "unexpected character '$' (line 5, column 10)"),
    ("x'^2 # c\n\n  # c\n\t+ y'^2 - $ # c", "unexpected character '$' (line 8, column 11)"),
    ("x'^2 + # c\n", "unexpected end of expression (line 5, column 7)"),
])
def test_lagrangian_positions_are_the_files(lagrangian, outcome):
    model = f"[vars]\nx\ny\n[lagrangian]\n{lagrangian}\n"
    assert _outcome(parse_model, model) == (ExpressionSyntaxError, outcome)


def test_literal_past_the_digit_limit_is_a_syntax_error():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts int literals of any length")
    digits = "1" * (limit + 1)
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression(f"x +\n  {digits}")
    assert str(err.value) == f"integer literal of {limit + 1} digits is too long (line 2, column 3)"
    assert (err.value.line, err.value.column) == (2, 3)
    assert parse_expression("1" * limit) == Expression.const(int("1" * limit))


def _nested(depth, inner="x"):
    return "(" * depth + inner + ")" * depth


def test_parentheses_nest_up_to_the_bound():
    assert MAX_NESTING == 100
    assert parse_expression(_nested(MAX_NESTING, "x + 1")) == Expression.var(x) + 1
    assert parse_expression("x^2 + " + "-(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == (
        Expression.var(x) ** 2 + (-1) ** MAX_NESTING * Expression.var(x))
    model = parse_model("[vars]\nx\n[lagrangian]\n" + _nested(MAX_NESTING, "x'^2") + "\n")
    assert model.lagrangian == Expression.var(x.jet(1)) ** 2


@pytest.mark.parametrize("text, column", [
    (_nested(MAX_NESTING + 1), MAX_NESTING + 1),
    ("x^2 + " + "-(" * 300 + "x" + ")" * 300, 6 + 2 * MAX_NESTING + 2),
    ("x\n + " + _nested(200), 3 + MAX_NESTING + 1),
], ids=["one-past", "negations", "second-line"])
def test_parentheses_past_the_bound_are_a_syntax_error(text, column):
    # the error stands at the first opening parenthesis past the bound
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression(text)
    line = text.count("\n") + 1
    assert str(err.value) == (f"parentheses nested deeper than {MAX_NESTING} levels "
                              f"(line {line}, column {column})")
    assert text.splitlines()[line - 1][column - 1] == "("


def test_deeply_nested_file_fails_in_bounded_time():
    # 3000 levels of parentheses around x' in a 6 KB file; before the
    # bound, 200 levels ended in an uncaught RecursionError
    source = "[vars]\nx\n[lagrangian]\n" + _nested(3000, "x'") + "\n"
    t0 = time.perf_counter()
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_model(source)
    assert time.perf_counter() - t0 < 5
    assert (err.value.line, err.value.column) == (4, MAX_NESTING + 1)


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
