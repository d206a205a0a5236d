import math

import numpy as np
import pytest

from sasakicheck import dual
from sasakicheck.dual import Dual, real_part, seed


def test_arithmetic_against_hand_values():
    x = Dual(3.0, (1.0, 0.0))
    y = Dual(2.0, (0.0, 1.0))
    p = x * y + x - y / x
    # f = xy + x - y/x: df/dx = y + 1 + y/x^2, df/dy = x - 1/x
    assert real_part(p) == pytest.approx(3 * 2 + 3 - 2 / 3)
    assert p.grad[0] == pytest.approx(2 + 1 + 2 / 9)
    assert p.grad[1] == pytest.approx(3 - 1 / 3)


def test_integer_powers_including_negative():
    x = Dual(2.0, (1.0,))
    assert real_part(x ** 3) == 8.0
    assert (x ** 3).grad[0] == pytest.approx(12.0)
    assert real_part(x ** 0) == 1.0
    inv2 = x ** -2
    assert real_part(inv2) == pytest.approx(0.25)
    assert inv2.grad[0] == pytest.approx(-2 / 8)
    with pytest.raises(TypeError):
        x ** 0.5


def test_division_by_zero_real_part_raises():
    x = Dual(0.0, (1.0,))
    with pytest.raises(ZeroDivisionError):
        Dual(1.0, (0.0,)) / x


def test_transcendental_chain_rule():
    t = Dual(0.7, (1.0,))
    f = dual.exp(dual.sin(t) * t) - dual.log(t + 2.0) + dual.cos(t) / dual.sqrt(t)
    g = 1e-7
    fp = (lambda s: math.exp(math.sin(s) * s) - math.log(s + 2.0) + math.cos(s) / math.sqrt(s))
    num = (fp(0.7 + g) - fp(0.7 - g)) / (2 * g)
    assert real_part(f) == pytest.approx(fp(0.7))
    assert f.grad[0] == pytest.approx(num, abs=1e-6)


def test_log_and_sqrt_domain_errors():
    with pytest.raises(ValueError):
        dual.log(Dual(-1.0, (1.0,)))
    with pytest.raises(ValueError):
        dual.sqrt(Dual(-1.0, (1.0,)))


def test_nested_duals_give_second_derivatives():
    # f(a, b) = a^2 b + b^3
    def f(c):
        return c[0] ** 2 * c[1] + c[1] ** 3

    inner = seed([1.5, -0.5])
    outer = seed(inner)
    out = f(outer)
    val = real_part(out)
    da = out.grad[0]
    db = out.grad[1]
    assert val == pytest.approx(1.5 ** 2 * -0.5 + (-0.5) ** 3)
    assert real_part(da) == pytest.approx(2 * 1.5 * -0.5)
    assert real_part(db) == pytest.approx(1.5 ** 2 + 3 * 0.25)
    # second partials: f_aa = 2b, f_ab = 2a, f_bb = 6b
    assert da.grad[0] == pytest.approx(-1.0)
    assert da.grad[1] == pytest.approx(3.0)
    assert db.grad[1] == pytest.approx(-3.0)


def test_random_polynomial_matches_finite_differences():
    rng = np.random.default_rng(3)
    coeffs = rng.uniform(-2, 2, size=(4, 3))

    def poly(c):
        acc = 0.0
        for i, row in enumerate(coeffs):
            acc = acc + row[0] * c[0] ** i + row[1] * c[1] ** i + row[2] * c[0] ** i * c[1]
        return acc

    for _ in range(20):
        a, b = rng.uniform(-1, 1, size=2)
        out = poly(seed([a, b]))
        h = 1e-6
        for k, (lo, hi) in enumerate([((a - h, b), (a + h, b)), ((a, b - h), (a, b + h))]):
            num = (poly(list(hi)) - poly(list(lo))) / (2 * h)
            assert out.grad[k] == pytest.approx(num, abs=1e-6)


def test_mixed_gradient_lengths_rejected():
    with pytest.raises(ValueError):
        Dual(1.0, (1.0,)) + Dual(1.0, (1.0, 0.0))


_ELEMENTARY = [(dual.exp, math.exp), (dual.log, math.log), (dual.sin, math.sin),
               (dual.cos, math.cos), (dual.sqrt, math.sqrt)]


@pytest.mark.parametrize("f, scalar", _ELEMENTARY)
def test_elementary_functions_accept_arrays(f, scalar):
    x = np.array([0.25, 0.5, 1.5, 3.0])
    out = f(x)
    assert isinstance(out, np.ndarray) and out.shape == x.shape
    np.testing.assert_allclose(out, [scalar(v) for v in x], rtol=1e-15)
    # floats keep the math functions, bit for bit
    assert type(f(0.5)) is float and f(0.5) == scalar(0.5)


@pytest.mark.parametrize("f, scalar", _ELEMENTARY)
def test_elementary_functions_on_array_duals_match_per_point(f, scalar):
    x = np.array([0.25, 0.5, 1.5])
    t = Dual(x, (np.ones(3), 2.0))
    out = f(t)
    for i, v in enumerate(x):
        one = f(Dual(float(v), (1.0, 2.0)))
        assert out.val[i] == pytest.approx(one.val, rel=1e-15)
        assert out.grad[0][i] == pytest.approx(one.grad[0], rel=1e-15)
        assert out.grad[1][i] == pytest.approx(one.grad[1], rel=1e-15)


@pytest.mark.parametrize("f, name", [(dual.log, "log"), (dual.sqrt, "sqrt")])
def test_array_domain_errors_name_first_bad_entry(f, name):
    with pytest.raises(ValueError, match=rf"{name} domain error: input must be .* got -2\.0"):
        f(np.array([1.0, -2.0, -3.0]))
    with pytest.raises(ValueError, match=rf"{name} domain error: real part -2\.0 <= 0"):
        f(Dual(np.array([1.0, -2.0, -3.0]), (1.0,)))


def test_array_duals_divide_like_per_point_duals():
    x = Dual(np.array([1.0, 2.0]), (1.0, 0.0))
    y = Dual(np.array([3.0, -4.0]), (0.0, 1.0))
    q = x / y
    for i in range(2):
        one = Dual(float(x.val[i]), (1.0, 0.0)) / Dual(float(y.val[i]), (0.0, 1.0))
        assert q.val[i] == one.val and (q.grad[0][i], q.grad[1][i]) == one.grad
    with pytest.raises(ZeroDivisionError):
        x / Dual(np.array([1.0, 0.0]), (0.0, 1.0))


def test_arrays_combine_with_duals_from_either_side():
    t = Dual(np.array([1.0, 2.0]), (1.0,))
    for out in (np.array([3.0, 4.0]) * t, t * np.array([3.0, 4.0])):
        assert isinstance(out, Dual)
        np.testing.assert_array_equal(out.val, [3.0, 8.0])
        np.testing.assert_array_equal(out.grad[0], [3.0, 4.0])


def test_array_exp_matches_math_exp_bit_for_bit():
    # numpy's exp rounds differently from libm's on a few percent of these
    # inputs; the array branch must give the per-point bits
    x = np.random.default_rng(5).uniform(-3.0, 3.0, size=200_000)
    assert np.array_equal(dual.exp(x), [math.exp(v) for v in x])
    assert np.array_equal(dual.exp(x.reshape(400, 500)), dual.exp(x).reshape(400, 500))
    with pytest.raises(OverflowError):
        dual.exp(np.array([1.0, 800.0]))
