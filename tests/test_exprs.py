import math

import numpy as np
import pytest

from sasakicheck.dual import Dual, _ipow, real_part, seed
from sasakicheck.errors import EvaluationError, ExprParseError
from sasakicheck.exprs import MAX_DEPTH, compile_expression, compile_map


@pytest.mark.parametrize("text,coords,expected", [
    ("s + t", [1.0, 2.0], 3.0),
    ("s*t - 2", [3.0, 4.0], 10.0),
    ("(s^2 + t^2)/2", [1.0, 3.0], 5.0),
    ("-s + +t", [1.0, 4.0], 3.0),
    ("s^-2", [2.0, 0.0], 0.25),
    ("exp(s)", [0.0, 0.0], 1.0),
    ("sin(s) * cos(t)", [0.5, 0.25], math.sin(0.5) * math.cos(0.25)),
    ("2.5", [0.0, 0.0], 2.5),
    ("s - t - 1", [5.0, 2.0], 2.0),
    ("1e-3*s", [2.0, 0.0], 0.002),
    ("2.5E+4", [0.0, 0.0], 25000.0),
    (".5e1 - t", [0.0, 1.0], 4.0),
    ("2E-1^2", [0.0, 0.0], 0.04),
])
def test_expression_values(text, coords, expected):
    e = compile_expression(text, ["s", "t"])
    assert e(coords) == pytest.approx(expected)


def test_expressions_differentiate_through_duals():
    e = compile_expression("exp(s + t) * s^2", ["s", "t"])
    out = e(seed([0.5, -0.2]))
    val = math.exp(0.3) * 0.25
    assert real_part(out) == pytest.approx(val)
    assert out.grad[0] == pytest.approx(math.exp(0.3) * (0.25 + 1.0))
    assert out.grad[1] == pytest.approx(val)


def test_unknown_identifier_reports_position():
    with pytest.raises(ExprParseError) as err:
        compile_expression("s + bogus", ["s", "t"])
    assert "bogus" in str(err.value)
    assert err.value.pos == 4


def test_trailing_garbage_rejected():
    with pytest.raises(ExprParseError, match="trailing"):
        compile_expression("s + t )", ["s", "t"])


def test_missing_parenthesis_rejected():
    with pytest.raises(ExprParseError, match="parenthesis"):
        compile_expression("exp(s", ["s"])


def test_only_a_literal_takes_an_exponent():
    # e1 stays a name and exp(...) a call
    assert compile_expression("e1 + exp(0)", ["e1"])([3.0]) == 4.0


@pytest.mark.parametrize("text", ["1e", "1e+", "1.2.3", "2E-"])
def test_malformed_numeric_literal_reports_position(text):
    with pytest.raises(ExprParseError, match="bad numeric literal") as err:
        compile_expression("s + " + text, ["s"])
    assert err.value.pos == 4


def test_fractional_exponent_rejected():
    with pytest.raises(ExprParseError, match="integer"):
        compile_expression("s^1.5", ["s"])


def test_function_requires_parentheses():
    with pytest.raises(ExprParseError):
        compile_expression("exp s", ["s"])


@pytest.mark.parametrize("x,n", [(1.0, 10**9), (-1.0, 10**9), (1.0 + 1e-10, 10**9), (2.0, -3)])
def test_large_and_negative_integer_powers(x, n):
    # repeated squaring: 10^9 costs 41 products, not n - 1
    e = compile_expression(f"s^{n}", ["s"])
    assert e([x]) == pytest.approx(x ** n, rel=1e-6)
    d = e(seed([x]))
    assert real_part(d) == pytest.approx(x ** n, rel=1e-6)
    assert d.grad[0] == pytest.approx(n * x ** (n - 1), rel=1e-6)


def _flat(x):
    """Value and every gradient entry of a (nested) dual, as one array."""
    if not isinstance(x, Dual):
        return np.asarray(x)
    return np.concatenate([_flat(x.val)] + [_flat(g) for g in x.grad])


@pytest.mark.parametrize("levels", [0, 1, 2])
def test_small_powers_keep_the_bits_of_written_out_products(levels):
    x = np.random.default_rng(3).normal(size=50)
    coords = [x, 2.0 * x]
    for _ in range(levels):
        coords = seed(coords)
    base = coords[0] * coords[1] + coords[0]
    assert np.array_equal(_flat(_ipow(base, 2)), _flat(base * base))
    assert np.array_equal(_flat(_ipow(base, 3)), _flat(base * base * base))


def test_nesting_past_max_depth_rejected():
    assert compile_expression("(" * MAX_DEPTH + "s" + ")" * MAX_DEPTH, ["s"])([2.0]) == 2.0
    assert compile_expression("-" * MAX_DEPTH + "s", ["s"])([2.0]) == (-1) ** MAX_DEPTH * 2.0
    for deep in ("(" * 400 + "s" + ")" * 400, "-" * 3000 + "s", "exp(" * 60 + "s" + ")" * 60):
        with pytest.raises(ExprParseError, match="nests deeper"):
            compile_expression(deep, ["s"])


def test_long_chains_evaluate_left_to_right():
    want = 0.1
    for _ in range(2999):
        want = want + 0.1
    assert compile_expression(" + ".join(["s"] * 3000), ["s"])([0.1]) == want
    d = compile_expression("*".join(["s"] * 3000), ["s"])(seed([1.0001]))
    assert real_part(d) == pytest.approx(1.0001 ** 3000)
    assert d.grad[0] == pytest.approx(3000 * 1.0001 ** 2999)


def test_compile_map_evaluates_componentwise():
    f = compile_map(["s", "t", "(s^2 + t^2)/2"], ["s", "t"])
    assert f([1.0, 2.0]) == [1.0, 2.0, 2.5]


@pytest.mark.parametrize("levels", [1, 2])
def test_stacked_failure_names_first_failing_point(levels):
    # only row 1 has s == t; a stack fails with the message that point gives alone
    e = compile_expression("1/(s-t)", ["s", "t"])
    columns = [np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.0, 2.0, 1.0, 4.0])]
    coords = seed(columns) if levels == 1 else seed(seed(columns))
    with pytest.raises(EvaluationError) as stacked:
        e(coords)
    with pytest.raises(EvaluationError) as single:
        e(seed([2.0, 2.0]) if levels == 1 else seed(seed([2.0, 2.0])))
    assert str(stacked.value) == str(single.value)
    assert "failed at [2.0, 2.0]" in str(stacked.value)
