import math
import random
import warnings

import numpy as np
import pytest

from hj_strata.expressions import ExpressionError, parse_expression


def test_basic_arithmetic():
    e = parse_expression("1 + 2*3 - 4/8")
    assert e() == pytest.approx(6.5)


def test_power_right_associative():
    assert parse_expression("2^3^2")() == pytest.approx(512.0)
    assert parse_expression("(2^3)^2")() == pytest.approx(64.0)


def test_unary_minus_binds_tighter_than_add():
    assert parse_expression("-2 + 3")() == pytest.approx(1.0)
    assert parse_expression("-(2 + 3)")() == pytest.approx(-5.0)
    assert parse_expression("2 - -3")() == pytest.approx(5.0)


def test_variables_and_vectorized_eval():
    e = parse_expression("y1^2 + y2^2")
    y1 = np.linspace(-1.0, 1.0, 7)
    y2 = np.linspace(0.0, 2.0, 7)
    out = e(y1=y1, y2=y2)
    assert np.allclose(out, y1**2 + y2**2)
    assert e.variables == {"y1", "y2"}


def test_function_calls():
    assert parse_expression("sqrt(2)")() == pytest.approx(math.sqrt(2))
    assert parse_expression("max(1, -3)")() == pytest.approx(1.0)
    assert parse_expression("min(1, -3)")() == pytest.approx(-3.0)
    assert parse_expression("abs(-2.5)")() == pytest.approx(2.5)
    assert parse_expression("cos(0)")() == pytest.approx(1.0)
    assert parse_expression("sin(0.5)")() == pytest.approx(math.sin(0.5))
    assert parse_expression("exp(0)")() == pytest.approx(1.0)


def test_wrap_is_periodic_reduction():
    e = parse_expression("wrap(y1, 2)")
    assert e(y1=2.5) == pytest.approx(0.5)
    assert e(y1=-0.5) == pytest.approx(1.5)
    assert e(y1=4.0) == pytest.approx(0.0)


def test_smoothstep_saturates_exactly():
    e = parse_expression("smoothstep(0, 1, y1)")
    # exact endpoints: clip makes saturation bit-exact, which seam checks rely on
    assert e(y1=-3.0) == 0.0
    assert e(y1=0.0) == 0.0
    assert e(y1=1.0) == 1.0
    assert e(y1=17.0) == 1.0
    assert e(y1=0.5) == pytest.approx(0.5)


def test_smoothstep_reversed_edges():
    # reversed edges give a descending ramp, used for fade-outs
    e = parse_expression("smoothstep(1, 0, y1)")
    assert e(y1=0.0) == 1.0
    assert e(y1=1.0) == 0.0
    assert e(y1=0.5) == pytest.approx(0.5)


def test_unknown_name_rejected_at_parse_time():
    with pytest.raises(ExpressionError, match="unknown name"):
        parse_expression("y1 + q")


def test_unbound_variable_raises_at_eval():
    e = parse_expression("y1 + x1")
    with pytest.raises(KeyError):
        e(y1=1.0)


# Python-only syntax that the language keeps rejecting
PYTHON_ONLY = ["2**3", "1//2", "1 % 2", "y1.real", "(1, 2)", "1_0", "0x1", "1j", "True", "sin(1,)", "{ a1 }", "1 # c",
               "y1 if x1 else y2", "not y1", "1and 2"]


def test_syntax_errors_carry_offset():
    for src in ["1 +", "(1", "sin()", "sin(1, 2)", "1 2", "foo(1)", "@", "", *PYTHON_ONLY]:
        with pytest.raises(ExpressionError) as exc:
            parse_expression(src)()
        assert exc.value.offset >= 0
    # an unsupported infix form is reported at its operator
    for src, offset in [("1//2", 1), ("y1 if x1 else y2", 3)]:
        with pytest.raises(ExpressionError, match="unsupported syntax") as exc:
            parse_expression(src)
        assert exc.value.offset == offset


def test_braced_controls_are_variables():
    e = parse_expression("{a1} + 2*{a2}")
    assert e.variables == {"a1", "a2"}
    assert e(a1=np.array([1.0, 3.0]), a2=0.5).tolist() == [2.0, 4.0]


def test_bare_control_name_is_unknown():
    with pytest.raises(ExpressionError, match="unknown name 'a1'") as exc:
        parse_expression("{a1} * a1")
    assert exc.value.offset == 7


@pytest.mark.parametrize("src, offset", [("y1 + {a3}", 5), ("{a2} - {a1", 7), ("{}", 0)])
def test_malformed_control_rejected_at_its_offset(src, offset):
    with pytest.raises(ExpressionError) as exc:
        parse_expression(src)
    assert exc.value.offset == offset


@pytest.mark.parametrize(
    "src, value", [("\n 1 +\t.5e1", 6.0), ("1.e1", 10.0), ("2^-1", 0.5), ("--y1", 3.0), ("007 + 01.5", 8.5)]
)
def test_whitespace_literals_and_stacked_signs_accepted(src, value):
    assert parse_expression(src)(y1=3.0) == value


TOKENS = ["1", "2.5", ".5", "1e3", "01", "x1", "y2", "{a1}", "{a2}", "+", "-", "*", "/", "^", "(", ")", ",", "sin",
          "max", "smoothstep", " ", "\n", "**", "//", "%", ".", "_", "j", "e", "0x1", "True", "and", "or", "not", "if",
          "else", "in", "lambda", ":", "[", "]", "=", "#", "'", "...", "a1", "{", "}", "{a3}", "q", "yield", ";", "\\"]


@pytest.mark.parametrize("action", ["default", "error"])
def test_only_expression_errors_leave_the_parser(action):
    # Python's own parser warns on some inputs ("1and 2"); neither a warning
    # nor another exception may escape, whatever the warning filter.
    rng = random.Random(25)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        for _ in range(4000):
            src = "".join(rng.choice(TOKENS) for _ in range(rng.randint(0, 8)))
            try:
                parse_expression(src)
            except ExpressionError as exc:
                assert 0 <= exc.offset <= len(src)
    assert not caught


def test_deep_nesting_is_an_expression_error():
    # past the limits of Python's parser (200 parentheses, its recursion depth)
    assert parse_expression("(" * 200 + "1" + ")" * 200)() == 1.0
    for src in ["(" * 201 + "1" + ")" * 201, "-" * 5000 + "1", "1+" * 5000 + "1"]:
        with pytest.raises(ExpressionError):
            parse_expression(src)
