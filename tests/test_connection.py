import numpy as np
import pytest

from sasakicheck import (
    MetricField,
    PointStack,
    ScalarField,
    TensorField,
    christoffel,
    covariant_derivative_tensor,
    covariant_derivative_vector,
    evaluate,
    fd_derivative,
    jet,
)
from sasakicheck.connection import (
    covariant_derivative_components,
    levi_civita_gamma,
)
from sasakicheck.errors import SingularMetricError, UnsupportedValenceError

from conftest import (
    chart_points,
    chart_vectors,
    constant_field,
    constant_vector_field,
    euclidean_metric,
)


def test_flat_metric_has_zero_christoffels():
    gamma = christoffel(euclidean_metric(3), chart_points(3, 5))
    assert gamma.shape == (5, 3, 3, 3)
    assert np.max(np.abs(gamma)) == 0.0


def test_christoffel_symmetry_exact(sasaki3):
    gamma = christoffel(sasaki3.g, chart_points(3, 10, seed=20))
    assert np.max(np.abs(gamma - gamma.transpose(0, 1, 3, 2))) == 0.0


def test_christoffel_ad_vs_fd(sasaki3):
    pts = chart_points(3, 20, seed=21)
    jt = fd_derivative(sasaki3.g.tensor, pts)
    fd = levi_civita_gamma(jt.value, jt.partials)
    assert np.max(np.abs(christoffel(sasaki3.g, pts) - fd)) < 1e-6


def test_christoffel_rejects_singular_metric():
    g = MetricField(TensorField((0, 2), 2, lambda c: [[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SingularMetricError):
        christoffel(g, PointStack([[0.0, 0.0]]))


def test_covariant_derivative_constant_field_flat():
    g = euclidean_metric(2)
    Y = constant_vector_field(2, [1.0, -2.0])
    X = constant_vector_field(2, [0.5, 0.5])
    out = covariant_derivative_vector(g, X, Y, PointStack([[0.1, 0.9]]))
    np.testing.assert_allclose(out, [[0.0, 0.0]], atol=1e-15)


def test_xi_transport_axiom_on_samples(sasaki3):
    # nabla_X xi + phi X = 0 at 50 points for 5 directions each
    pts = chart_points(3, 50, seed=3)
    phi = evaluate(sasaki3.phi, pts)
    for v in chart_vectors(3, 5):
        X = constant_vector_field(3, v)
        out = covariant_derivative_vector(sasaki3.g, X, sasaki3.xi, pts)
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
    pts = chart_points(3, 15, seed=4)
    dg = jet(scalar, pts).partials
    gv = evaluate(sasaki3.g.tensor, pts)
    yv, zv = evaluate(Y, pts), evaluate(Z, pts)
    for v in chart_vectors(3, 3):
        X = constant_vector_field(3, v)
        lhs = dg @ v
        dy = covariant_derivative_vector(sasaki3.g, X, Y, pts)
        dz = covariant_derivative_vector(sasaki3.g, X, Z, pts)
        rhs = np.einsum("pi,pij,pj->p", dy, gv, zv) + np.einsum("pi,pij,pj->p", yv, gv, dz)
        assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_nabla_of_metric_vanishes(sasaki3):
    X = constant_vector_field(3, [0.4, -1.0, 0.7])
    out = covariant_derivative_tensor(sasaki3.g, sasaki3.g.tensor, X, chart_points(3, 10, seed=6))
    assert out.shape == (10, 3, 3)
    assert np.max(np.abs(out)) < 1e-6


def test_nabla_identity_tensor_flat_chart():
    g = euclidean_metric(3)
    X = constant_vector_field(3, [1.0, 2.0, 3.0])
    out = covariant_derivative_tensor(g, constant_field((1, 1), 3, np.eye(3)), X,
                                      PointStack([[0.0, 0.1, 0.2]]))
    assert np.max(np.abs(out)) == 0.0


def test_sasakian_phi_transport_identity(sasaki3):
    # (nabla_X phi) Y = g(X, Y) xi - eta(Y) X over 50 random samples
    vecs = chart_vectors(3, 5, seed=17)
    pts = chart_points(3, 50, seed=18)
    gv = evaluate(sasaki3.g.tensor, pts)
    xi = evaluate(sasaki3.xi, pts)
    eta = evaluate(sasaki3.eta, pts)
    jphi = jet(sasaki3.phi, pts)
    gamma = christoffel(sasaki3.g, pts)
    full = covariant_derivative_components(jphi.value, jphi.partials, gamma, (1, 1))
    for x in vecs:
        for y in vecs:
            lhs = np.einsum("i,piab,b->pa", x, full, y)
            rhs = (gv @ y @ x)[:, None] * xi - (eta @ y)[:, None] * x
            assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_leibniz_rule(sasaki3):
    f = ScalarField(3, lambda c: 0.3 * c[0] ** 2 - c[1] * c[2] + 0.5)
    Yv = [0.2, -0.4, 1.1]
    Y = constant_vector_field(3, Yv)
    fY = TensorField((1, 0), 3, lambda c: [f.func(c) * y for y in Yv])
    pts = chart_points(3, 10, seed=12)
    jf = jet(f, pts)
    for v in chart_vectors(3, 3, seed=13):
        X = constant_vector_field(3, v)
        lhs = covariant_derivative_vector(sasaki3.g, X, fY, pts)
        rhs = (jf.partials @ v)[:, None] * np.array(Yv) + jf.value[:, None] * (
            covariant_derivative_vector(sasaki3.g, X, Y, pts))
        assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_unsupported_valence_rejected(sasaki3):
    T = TensorField((2, 1), 3, lambda c: [[[0.0] * 3] * 3] * 3)
    X = constant_vector_field(3, [1, 0, 0])
    with pytest.raises(UnsupportedValenceError):
        covariant_derivative_tensor(sasaki3.g, T, X, PointStack([[0, 0, 0]]))


def test_metric_invariants(sasaki3):
    g = evaluate(sasaki3.g.tensor, chart_points(3, 20, seed=30))
    assert np.max(np.abs(g - g.mT)) <= 1e-12
    # positive definite: every leading principal minor is positive
    assert all(np.all(np.linalg.det(g[:, :k, :k]) > 0) for k in range(1, 4))
