import numpy as np
import pytest

from sasakicheck import (
    MetricField,
    Point,
    ScalarField,
    TensorField,
    christoffel,
    covariant_derivative_tensor,
    covariant_derivative_vector,
    evaluate,
    evaluate_stack,
    fd_derivative,
    jet,
)
from sasakicheck.connection import (
    covariant_derivative_components,
    levi_civita_gamma,
)
from sasakicheck.errors import SingularMetricError, UnsupportedValenceError
from sasakicheck.fields import PointStack

from conftest import (
    as_points,
    chart_points,
    chart_vectors,
    constant_field,
    constant_vector_field,
    euclidean_metric,
)


def test_flat_metric_has_zero_christoffels():
    g = euclidean_metric(3)
    for p in as_points(chart_points(3, 5)):
        assert np.max(np.abs(christoffel(g, p))) == 0.0


def test_christoffel_symmetry_exact(sasaki3):
    p = Point([0.3, -0.7, 0.2])
    gamma = christoffel(sasaki3.g, p)
    assert np.max(np.abs(gamma - gamma.transpose(0, 2, 1))) == 0.0


def test_christoffel_ad_vs_fd(sasaki3):
    for p in as_points(chart_points(3, 20, seed=21)):
        ad = christoffel(sasaki3.g, p)
        jt = fd_derivative(sasaki3.g.tensor, p)
        fd = levi_civita_gamma(jt.value, jt.partials)
        assert np.max(np.abs(ad - fd)) < 1e-6


def test_christoffel_rejects_singular_metric():
    g = MetricField(TensorField((0, 2), 2, lambda c: [[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SingularMetricError):
        christoffel(g, Point([0.0, 0.0]))


def test_covariant_derivative_constant_field_flat():
    g = euclidean_metric(2)
    Y = constant_vector_field(2, [1.0, -2.0])
    X = constant_vector_field(2, [0.5, 0.5])
    out = covariant_derivative_vector(g, X, Y, Point([0.1, 0.9]))
    np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-15)


def test_xi_transport_axiom_on_samples(sasaki3):
    # nabla_X xi + phi X = 0 at 50 points for 5 directions each
    vecs = chart_vectors(3, 5)
    for p in as_points(chart_points(3, 50, seed=3)):
        phi = evaluate(sasaki3.phi, p)
        for v in vecs:
            X = constant_vector_field(3, v)
            out = covariant_derivative_vector(sasaki3.g, X, sasaki3.xi, p)
            assert np.max(np.abs(out + phi @ v)) < 1e-6


def test_metric_compatibility_random_fields(sasaki3):
    # X g(Y, Z) = g(nabla_X Y, Z) + g(Y, nabla_X Z) for linear fields
    rng = np.random.default_rng(8)
    AY = rng.uniform(-1, 1, (3, 3))
    AZ = rng.uniform(-1, 1, (3, 3))
    Y = TensorField((1, 0), 3, lambda c: [sum(AY[i][j] * c[j] for j in range(3)) + 1.0 for i in range(3)])
    Z = TensorField((1, 0), 3, lambda c: [sum(AZ[i][j] * c[j] for j in range(3)) - 0.5 for i in range(3)])

    def g_of_YZ(c):
        g = sasaki3.g.tensor.func(c)
        y = Y.func(c)
        z = Z.func(c)
        return sum(g[i][j] * y[i] * z[j] for i in range(3) for j in range(3))

    scalar = ScalarField(3, g_of_YZ)
    for p in as_points(chart_points(3, 15, seed=4)):
        dg = jet(scalar, p).partials
        gv = evaluate(sasaki3.g.tensor, p)
        yv, zv = evaluate(Y, p), evaluate(Z, p)
        for v in chart_vectors(3, 3):
            X = constant_vector_field(3, v)
            lhs = float(v @ dg)
            dy = covariant_derivative_vector(sasaki3.g, X, Y, p)
            dz = covariant_derivative_vector(sasaki3.g, X, Z, p)
            rhs = float(dy @ gv @ zv + yv @ gv @ dz)
            assert abs(lhs - rhs) < 1e-6


def test_nabla_of_metric_vanishes(sasaki3):
    X = constant_vector_field(3, [0.4, -1.0, 0.7])
    for p in as_points(chart_points(3, 10, seed=6)):
        out = covariant_derivative_tensor(sasaki3.g, sasaki3.g.tensor, X, p)
        assert np.max(np.abs(out)) < 1e-6


def test_nabla_identity_tensor_flat_chart():
    g = euclidean_metric(3)
    X = constant_vector_field(3, [1.0, 2.0, 3.0])
    out = covariant_derivative_tensor(g, constant_field((1, 1), 3, np.eye(3)), X, Point([0.0, 0.1, 0.2]))
    assert np.max(np.abs(out)) == 0.0


def test_sasakian_phi_transport_identity(sasaki3):
    # (nabla_X phi) Y = g(X, Y) xi - eta(Y) X over 50 random samples
    vecs = chart_vectors(3, 5, seed=17)
    for p in as_points(chart_points(3, 50, seed=18)):
        gv = evaluate(sasaki3.g.tensor, p)
        xi = evaluate(sasaki3.xi, p)
        eta = evaluate(sasaki3.eta, p)
        jphi = jet(sasaki3.phi, p)
        gamma = christoffel(sasaki3.g, p)
        full = covariant_derivative_components(jphi.value, jphi.partials, gamma, (1, 1))
        for x in vecs:
            for y in vecs:
                lhs = np.einsum("i,iab,b->a", x, full, y)
                rhs = float(x @ gv @ y) * xi - float(eta @ y) * x
                assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_leibniz_rule(sasaki3):
    f = ScalarField(3, lambda c: 0.3 * c[0] ** 2 - c[1] * c[2] + 0.5)
    Yv = [0.2, -0.4, 1.1]
    Y = constant_vector_field(3, Yv)
    fY = TensorField((1, 0), 3, lambda c: [f.func(c) * y for y in Yv])
    for p in as_points(chart_points(3, 10, seed=12)):
        for v in chart_vectors(3, 3, seed=13):
            X = constant_vector_field(3, v)
            lhs = covariant_derivative_vector(sasaki3.g, X, fY, p)
            xf = float(v @ jet(f, p).partials)
            rhs = xf * np.array(Yv) + f.func(list(p.coords)) * covariant_derivative_vector(
                sasaki3.g, X, Y, p)
            assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_unsupported_valence_rejected(sasaki3):
    T = TensorField((2, 1), 3, lambda c: [[[0.0] * 3] * 3] * 3)
    X = constant_vector_field(3, [1, 0, 0])
    with pytest.raises(UnsupportedValenceError):
        covariant_derivative_tensor(sasaki3.g, T, X, Point([0, 0, 0]))


def test_metric_invariants(sasaki3):
    g = evaluate_stack(sasaki3.g.tensor, chart_points(3, 20, seed=30))
    assert np.max(np.abs(g - g.mT)) <= 1e-12
    # positive definite: every leading principal minor is positive
    assert all(np.all(np.linalg.det(g[:, :k, :k]) > 0) for k in range(1, 4))
