import math

import numpy as np
import pytest

from sasakicheck import (
    Embedding,
    NormalField,
    Point,
    PointStack,
    ScalarField,
    TensorField,
    evaluate,
    fd_derivative,
    jet,
    standard_sasakian,
)
from sasakicheck.errors import DimensionMismatchError, NonFiniteValueError
from sasakicheck.hypersurface import frame_stack

from conftest import as_points, chart_points, constant_field


def test_point_validation():
    p = Point([1.0, 2.0, 0.0])
    assert p.dim == 3
    with pytest.raises(NonFiniteValueError):
        Point([1.0, math.inf])


def test_evaluate_constant_field():
    f = constant_field((0, 2), 3, [[1, 2, 0], [2, 5, 0], [0, 0, 1]])
    out = evaluate(f, Point([0.3, -0.7, 0.2]))
    np.testing.assert_array_equal(out, [[1, 2, 0], [2, 5, 0], [0, 0, 1]])


def test_evaluate_identity_field_gives_kronecker():
    out = evaluate(constant_field((1, 1), 4, np.eye(4)), Point([1, 2, 3, 4]))
    np.testing.assert_array_equal(out, np.eye(4))


def test_contact_form_components_at_point():
    # eta = (dz - y dx)/2 at (1, 2, 0) reads off as (-1, 0, 1/2)
    eta = TensorField((0, 1), 3, lambda c: [-0.5 * c[1], 0.0, 0.5])
    out = evaluate(eta, Point([1.0, 2.0, 0.0]))
    np.testing.assert_allclose(out, [-1.0, 0.0, 0.5])


def test_evaluate_dimension_mismatch():
    f = constant_field((1, 0), 3, [1, 0, 0])
    with pytest.raises(DimensionMismatchError):
        evaluate(f, Point([0.0, 0.0]))


def test_evaluate_reports_offending_component():
    f = TensorField((1, 0), 2, lambda c: [c[0], math.inf])
    with pytest.raises(NonFiniteValueError, match=r"\(1,\)"):
        evaluate(f, Point([0.0, 0.0]))


def test_jet_polynomial_by_hand():
    f = ScalarField(2, lambda c: c[0] ** 2 * c[1])
    j = jet(f, Point([1.0, 2.0]))
    assert j.value == pytest.approx(2.0)
    np.testing.assert_allclose(j.partials, [4.0, 1.0], atol=1e-12)


def test_jet_constant_field_zero_partials():
    f = constant_field((0, 2), 2, [[1, 0], [0, 1]])
    j = jet(f, Point([0.5, -0.5]))
    assert np.max(np.abs(j.partials)) == 0.0


def test_jet_exact_for_quadratics():
    rng = np.random.default_rng(5)
    A = rng.uniform(-1, 1, size=(3, 3))
    b = rng.uniform(-1, 1, size=3)

    def quad(c):
        return (sum(A[i][j] * c[i] * c[j] for i in range(3) for j in range(3))
                + sum(b[i] * c[i] for i in range(3)))

    f = ScalarField(3, quad)
    for p in as_points(chart_points(3, 10)):
        j = jet(f, p)
        x = np.array(p.coords)
        grad = (A + A.T) @ x + b
        np.testing.assert_allclose(j.partials, grad, atol=1e-12)


def test_jet_vs_fd_on_random_cubic():
    rng = np.random.default_rng(9)
    coeffs = rng.uniform(-1, 1, size=(3, 3, 3))

    def cubic(c):
        acc = 0.0
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    acc = acc + coeffs[i][j][k] * c[0] ** i * c[1] ** j * c[2] ** k
        return acc

    f = ScalarField(3, cubic)
    for p in as_points(chart_points(3, 20, seed=2)):
        ad = jet(f, p).partials
        fd = fd_derivative(f, p, step=1e-5).partials
        assert np.max(np.abs(ad - fd)) < 1e-6


def test_fd_square_at_three():
    f = ScalarField(1, lambda c: c[0] ** 2)
    j = fd_derivative(f, Point([3.0]), step=1e-5)
    assert j.partials[0] == pytest.approx(6.0, abs=1e-9)


def test_fd_constant_is_zero():
    f = constant_field((1, 0), 2, [4.0, 5.0])
    j = fd_derivative(f, Point([1.0, 1.0]))
    assert np.max(np.abs(j.partials)) == 0.0


def test_fd_step_must_be_positive():
    f = ScalarField(1, lambda c: c[0])
    with pytest.raises(ValueError):
        fd_derivative(f, Point([0.0]), step=0.0)


@pytest.mark.parametrize("n", [1, 2])
def test_jet_vs_fd_on_builtin_fields(n):
    S = standard_sasakian(n)
    fields = [S.phi, S.xi, S.eta, S.g.tensor]
    for p in as_points(chart_points(S.dim, 50, seed=13)):
        for fld in fields:
            ad = jet(fld, p).partials
            fd = fd_derivative(fld, p, step=1e-5).partials
            assert np.max(np.abs(ad - fd)) < 1e-6


def test_evaluate_and_jet_are_pure(sasaki3):
    p = Point([0.21, -0.83, 0.4])
    a = evaluate(sasaki3.g.tensor, p)
    b = evaluate(sasaki3.g.tensor, p)
    assert (a == b).all()
    ja, jb = jet(sasaki3.phi, p), jet(sasaki3.phi, p)
    assert (ja.value == jb.value).all() and (ja.partials == jb.partials).all()


def test_second_order_jet_of_embedding_like_map(sasaki3):
    # second derivatives of a map come from the frame layer's nested dual pass
    E = Embedding(2, sasaki3, lambda c: [c[0], c[1], c[0] ** 3 + c[0] * c[1] ** 2])
    fs = frame_stack(NormalField(E), PointStack([[0.5, 2.0]]), partials=True)
    np.testing.assert_allclose(fs.hessian[0, 2], [[3.0, 4.0], [4.0, 1.0]], atol=1e-12)
    np.testing.assert_allclose(fs.hessian[0, :2], 0.0, atol=0.0)
