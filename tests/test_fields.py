import math
import re

import numpy as np
import pytest

from sasakicheck import (
    Embedding,
    NormalField,
    PointStack,
    TensorField,
    evaluate,
    fd_derivative,
    jet,
    standard_sasakian,
)
from sasakicheck.dual import sqrt
from sasakicheck.errors import DimensionMismatchError, EvaluationError, NonFiniteValueError
from sasakicheck.hypersurface import frame_stack

from conftest import chart_points, constant_field


def test_point_validation():
    p = PointStack([[1.0, 2.0, 0.0]])
    assert p.dim == 3 and len(p) == 1
    with pytest.raises(NonFiniteValueError):
        PointStack([[1.0, math.inf]])


def test_evaluate_constant_field():
    f = constant_field((0, 2), 3, [[1, 2, 0], [2, 5, 0], [0, 0, 1]])
    out = evaluate(f, PointStack([[0.3, -0.7, 0.2]]))
    np.testing.assert_array_equal(out, [[[1, 2, 0], [2, 5, 0], [0, 0, 1]]])


def test_evaluate_identity_field_gives_kronecker():
    out = evaluate(constant_field((1, 1), 4, np.eye(4)), PointStack([[1, 2, 3, 4]]))
    np.testing.assert_array_equal(out, [np.eye(4)])


def test_contact_form_components_at_point():
    # eta = (dz - y dx)/2 at (1, 2, 0) reads off as (-1, 0, 1/2)
    eta = TensorField((0, 1), 3, lambda c: [-0.5 * c[1], 0.0, 0.5])
    out = evaluate(eta, PointStack([[1.0, 2.0, 0.0]]))
    np.testing.assert_allclose(out, [[-1.0, 0.0, 0.5]])


def test_evaluate_dimension_mismatch():
    f = constant_field((1, 0), 3, [1, 0, 0])
    with pytest.raises(DimensionMismatchError):
        evaluate(f, PointStack([[0.0, 0.0]]))


def test_evaluate_reports_offending_component():
    f = TensorField((1, 0), 2, lambda c: [c[0], math.inf])
    with pytest.raises(NonFiniteValueError, match=r"\(1,\)"):
        evaluate(f, PointStack([[0.0, 0.0]]))


def test_jet_polynomial_by_hand():
    f = TensorField((0, 0), 2, lambda c: c[0] ** 2 * c[1])
    j = jet(f, PointStack([[1.0, 2.0]]))
    assert j.value[0] == pytest.approx(2.0)
    np.testing.assert_allclose(j.partials, [[4.0, 1.0]], atol=1e-12)


def test_jet_constant_field_zero_partials():
    f = constant_field((0, 2), 2, [[1, 0], [0, 1]])
    j = jet(f, PointStack([[0.5, -0.5]]))
    assert np.max(np.abs(j.partials)) == 0.0


def test_jet_exact_for_quadratics():
    rng = np.random.default_rng(5)
    A = rng.uniform(-1, 1, size=(3, 3))
    b = rng.uniform(-1, 1, size=3)

    def quad(c):
        return (sum(A[i][j] * c[i] * c[j] for i in range(3) for j in range(3))
                + sum(b[i] * c[i] for i in range(3)))

    pts = chart_points(3, 10)
    grad = pts.coords @ (A + A.T).T + b
    np.testing.assert_allclose(jet(TensorField((0, 0), 3, quad), pts).partials, grad, atol=1e-12)


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

    f, pts = TensorField((0, 0), 3, cubic), chart_points(3, 20, seed=2)
    ad = jet(f, pts).partials
    fd = fd_derivative(f, pts, step=1e-5).partials
    assert ad.shape == fd.shape == (20, 3)
    assert np.max(np.abs(ad - fd)) < 1e-6


def test_fd_square_at_three():
    f = TensorField((0, 0), 1, lambda c: c[0] ** 2)
    j = fd_derivative(f, PointStack([[3.0]]), step=1e-5)
    assert j.value[0] == 9.0
    assert j.partials[0, 0] == pytest.approx(6.0, abs=1e-9)


def test_fd_constant_is_zero():
    f = constant_field((1, 0), 2, [4.0, 5.0])
    j = fd_derivative(f, PointStack([[1.0, 1.0]]))
    assert np.max(np.abs(j.partials)) == 0.0


def test_fd_step_must_be_positive():
    f = TensorField((0, 0), 1, lambda c: c[0])
    with pytest.raises(ValueError):
        fd_derivative(f, PointStack([[0.0]]), step=0.0)


@pytest.mark.parametrize("n", [1, 2])
def test_jet_vs_fd_on_builtin_fields(n):
    S = standard_sasakian(n)
    fields = [S.phi, S.xi, S.eta, S.g]
    pts = chart_points(S.dim, 50, seed=13)
    for fld in fields:
        ad = jet(fld, pts).partials
        fd = fd_derivative(fld, pts, step=1e-5).partials
        assert np.max(np.abs(ad - fd)) < 1e-6


def test_evaluate_and_jet_are_pure(sasaki3):
    p = PointStack([[0.21, -0.83, 0.4]])
    a = evaluate(sasaki3.g, p)
    b = evaluate(sasaki3.g, p)
    assert (a == b).all()
    ja, jb = jet(sasaki3.phi, p), jet(sasaki3.phi, p)
    assert (ja.value == jb.value).all() and (ja.partials == jb.partials).all()


def test_fd_stencil_failure_names_base_point_and_coordinate():
    # finite at each base point, infinite where the stencil shifts coordinate 1 up to 0.5
    f = TensorField((0, 0), 2, lambda c: 1.0 / (c[1] - 0.5))
    pts = PointStack([[0.1, 0.0], [0.3, 0.5 - 1e-5], [0.7, 0.5 - 1e-5]])
    evaluate(f, pts)
    with pytest.raises(EvaluationError, match=re.escape(
            f"near {(0.3, 0.5 - 1e-5)} along coordinate 1: non-finite component")):
        fd_derivative(f, pts, step=1e-5)


def test_fd_stencil_closure_error_names_base_point_and_coordinate():
    # a closure that raises on a shifted row only: sqrt of a negative second coordinate
    f = TensorField((0, 0), 2, lambda c: sqrt(c[1]))
    pts = PointStack([[0.2, 0.5], [0.4, 0.0]])
    evaluate(f, pts)
    with pytest.raises(EvaluationError, match=re.escape(
            f"near {(0.4, 0.0)} along coordinate 1: sqrt domain error")):
        fd_derivative(f, pts)


def test_second_order_jet_of_embedding_like_map(sasaki3):
    # second derivatives of a map come from the frame layer's nested dual pass
    E = Embedding(2, sasaki3, lambda c: [c[0], c[1], c[0] ** 3 + c[0] * c[1] ** 2])
    fs = frame_stack(NormalField(E), PointStack([[0.5, 2.0]]), partials=True)
    np.testing.assert_allclose(fs.hessian[0, 2], [[3.0, 4.0], [4.0, 1.0]], atol=1e-12)
    np.testing.assert_allclose(fs.hessian[0, :2], 0.0, atol=0.0)
