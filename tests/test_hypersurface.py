import math

import numpy as np
import pytest

from sasakicheck import (
    Embedding,
    MetricField,
    NormalField,
    ScalarField,
    TensorField,
    evaluate,
    gauss_weingarten,
    induced_metric,
    second_fundamental_symmetry,
    unit_normal,
)
from sasakicheck.dual import cos, exp, sin
from sasakicheck.errors import DimensionMismatchError, RankDeficientError, SingularMetricError
from sasakicheck.fields import PointStack, jet
from sasakicheck.hypersurface import frame_stack, reconstruction_residuals
from sasakicheck.connection import christoffel

from conftest import SimpleAmbient, chart_points, euclidean_metric


@pytest.fixture()
def euclid3():
    return SimpleAmbient(3, euclidean_metric(3))


@pytest.fixture()
def flat_plane(euclid3):
    return Embedding(2, euclid3, lambda c: [c[0], c[1], 0.0])


def sphere(euclid3, r):
    return Embedding(2, euclid3, lambda c: [
        r * cos(c[0]) * cos(c[1]),
        r * sin(c[0]) * cos(c[1]),
        r * sin(c[1]),
    ])


def test_flat_plane_metric_is_identity(flat_plane):
    g = induced_metric(flat_plane)
    np.testing.assert_allclose(evaluate(g.tensor, PointStack([[0.3, -0.8]]))[0], np.eye(2),
                               atol=1e-15)


def test_flat_plane_unit_normal(flat_plane):
    n = unit_normal(flat_plane, PointStack([[0.1, 0.2]]))
    np.testing.assert_allclose(n, [[0, 0, 1]], atol=1e-15)


def test_flat_plane_totally_geodesic(flat_plane):
    fs = frame_stack(NormalField(flat_plane), PointStack([[0.5, 0.5]]), partials=True)
    gw = gauss_weingarten(fs)
    assert np.max(np.abs(gw.h)) == 0.0
    assert np.max(np.abs(gw.H_w)) == 0.0
    assert np.max(np.abs(gw.w)) == 0.0


def test_sphere_inward_normal_at_pole(euclid3):
    E = sphere(euclid3, 2.0)
    n = unit_normal(E, PointStack([[0.0, 0.0]]), orientation=-1)
    np.testing.assert_allclose(n, [[-1.0, 0.0, 0.0]], atol=1e-14)


def test_sphere_shape_operator_is_curvature_times_identity(euclid3):
    # classical cross-check: inward unit normal gives H_h = (1/r) I
    for r in (1.0, 2.0, 3.5):
        E = sphere(euclid3, r)
        N = NormalField(E, orientation=-1)
        pts = PointStack(0.5 * chart_points(2, 6, seed=5).coords)  # stay away from poles
        gw = gauss_weingarten(frame_stack(N, pts, partials=True))
        np.testing.assert_allclose(gw.H_h, np.broadcast_to(np.eye(2) / r, (6, 2, 2)), atol=1e-6)
        np.testing.assert_allclose(gw.h, gw.h.mT, atol=1e-12)
        gind = evaluate(induced_metric(E).tensor, pts)
        np.testing.assert_allclose(gw.h, gind / r, atol=1e-6)


def test_induced_metric_vs_fd_oracle(plane_r3):
    # pullback formula against central differences of b composed with g~
    E = plane_r3
    step = 1e-5
    p = [0.5, -0.3]

    def fd_column(k):
        up = np.array(E.map([p[0] + step * (k == 0), p[1] + step * (k == 1)]))
        dn = np.array(E.map([p[0] - step * (k == 0), p[1] - step * (k == 1)]))
        return (up - dn) / (2 * step)

    B = np.column_stack([fd_column(0), fd_column(1)])
    gt = evaluate(E.ambient_metric.tensor, PointStack([E.map(p)]))[0]
    expected = B.T @ gt @ B
    got = evaluate(induced_metric(E).tensor, PointStack([p]))[0]
    assert np.max(np.abs(got - expected)) < 1e-6


def test_induced_metric_positive_definite(quadric_r3):
    g = induced_metric(quadric_r3)
    rng = np.random.default_rng(14)
    for gv in evaluate(g.tensor, chart_points(2, 10, seed=15)):
        for _ in range(10):
            x = rng.uniform(-1, 1, 2)
            if np.linalg.norm(x) > 1e-6:
                assert float(x @ gv @ x) > 0.0


def test_normal_defining_equations(plane_r3):
    # g~(B e_a, N) = 0 and g~(N, N) = 1, at a point with y != 0
    p = PointStack([[0.5, -0.3]])
    n = unit_normal(plane_r3, p)[0]
    fs = frame_stack(NormalField(plane_r3), p)
    B = fs.jacobian[0]
    gt = evaluate(plane_r3.ambient_metric.tensor, fs.images)[0]
    assert np.max(np.abs(B.T @ gt @ n)) < 1e-10
    assert abs(float(n @ gt @ n) - 1.0) < 1e-10
    assert np.linalg.det(np.column_stack([B, n])) > 0


def test_plane_normal_closed_form(plane_r3):
    t = -0.3
    sq = math.sqrt(1 + t * t)
    n = unit_normal(plane_r3, PointStack([[0.5, t]]))
    np.testing.assert_allclose(n, [[2 * t / sq, 0.0, 2 * sq]], atol=1e-12)


@pytest.mark.parametrize("surface", ["plane_r3", "quadric_r3"])
def test_gauss_weingarten_reconstruction(surface, request):
    E = request.getfixturevalue(surface)
    N = NormalField(E)
    rec = reconstruction_residuals(
        gauss_weingarten(frame_stack(N, chart_points(2, 15, seed=19), partials=True)))
    assert rec["gauss"] < 1e-6
    assert rec["weingarten"] < 1e-6


def test_decomposed_connection_matches_levi_civita(quadric_r3):
    g = induced_metric(quadric_r3)
    N = NormalField(quadric_r3)
    pts = chart_points(2, 10, seed=23)
    gw = gauss_weingarten(frame_stack(N, pts, partials=True))
    assert np.max(np.abs(gw.induced_gamma - christoffel(g, pts))) < 1e-6


def test_decomposed_connection_metricity(quadric_r3):
    # nabla g = 0 with the connection coefficients taken from the Gauss
    # decomposition rather than the Levi-Civita formula
    from sasakicheck.connection import covariant_derivative_components

    g = induced_metric(quadric_r3)
    pts = chart_points(2, 8, seed=24)
    gw = gauss_weingarten(frame_stack(NormalField(quadric_r3), pts, partials=True))
    jg = jet(g.tensor, pts)
    full = covariant_derivative_components(jg.value, jg.partials, gw.induced_gamma, (0, 2))
    assert np.max(np.abs(full)) < 1e-6


def test_unit_normal_weingarten_relations(quadric_r3):
    N = NormalField(quadric_r3)
    g = induced_metric(quadric_r3)
    pts = chart_points(2, 10, seed=27)
    gw = gauss_weingarten(frame_stack(N, pts, partials=True))
    assert np.max(np.abs(gw.w)) < 1e-10
    gv = evaluate(g.tensor, pts)
    # metric Weingarten relation g(H_w X, Y) = -h(X, Y)
    assert np.max(np.abs(gw.H_w.mT @ gv + gw.h)) < 1e-6
    assert np.max(np.abs(gw.H_w + gw.H_h)) < 1e-6


def test_scaled_normal_product_rule(quadric_r3):
    # rho = exp(s + t): w = d log rho, h scales by 1/rho, H_w by rho
    E = quadric_r3
    rho = ScalarField(2, lambda c: exp(c[0] + c[1]))
    N_unit = NormalField(E)
    N_scaled = NormalField(E, scaling=rho)
    pts = chart_points(2, 8, seed=31)
    r = np.exp(pts.coords.sum(axis=1))[:, None, None]
    gw_u = gauss_weingarten(frame_stack(N_unit, pts, partials=True))
    gw_s = gauss_weingarten(frame_stack(N_scaled, pts, partials=True))
    np.testing.assert_allclose(gw_s.w, np.ones((8, 2)), atol=1e-6)
    np.testing.assert_allclose(gw_s.h, gw_u.h / r, atol=1e-6)
    np.testing.assert_allclose(gw_s.H_w, gw_u.H_w * r, atol=1e-6)
    np.testing.assert_allclose(gw_s.H_h, gw_u.H_h / r, atol=1e-6)
    rec = reconstruction_residuals(gw_s)
    assert rec["gauss"] < 1e-6 and rec["weingarten"] < 1e-6


def test_orientation_flip_action(quadric_r3):
    N = NormalField(quadric_r3)
    Nf = N.flipped()
    pts = chart_points(2, 6, seed=33)
    a = gauss_weingarten(frame_stack(N, pts, partials=True))
    b = gauss_weingarten(frame_stack(Nf, pts, partials=True))
    np.testing.assert_allclose(b.h, -a.h, atol=1e-12)
    np.testing.assert_allclose(b.H_w, -a.H_w, atol=1e-12)
    np.testing.assert_allclose(b.H_h, -a.H_h, atol=1e-12)
    np.testing.assert_allclose(b.w, a.w, atol=1e-12)
    np.testing.assert_allclose(b.normal, -a.normal, atol=1e-12)


def test_second_fundamental_symmetry(quadric_r3, flat_plane):
    pts = chart_points(2, 50, seed=37)

    def asymmetry(E):
        return second_fundamental_symmetry(gauss_weingarten(frame_stack(NormalField(E), pts,
                                                                        partials=True)))

    assert asymmetry(quadric_r3) < 1e-6
    assert asymmetry(flat_plane) == 0.0


def test_gauss_weingarten_needs_frame_partials(quadric_r3):
    with pytest.raises(ValueError, match="partials"):
        gauss_weingarten(frame_stack(NormalField(quadric_r3), chart_points(2, 3)))


def test_rank_deficient_embedding_rejected(euclid3):
    E = Embedding(2, euclid3, lambda c: [c[0], c[0], 0.0])
    with pytest.raises(RankDeficientError):
        unit_normal(E, PointStack([[0.2, 0.2]]))


def test_singular_ambient_metric_rejected():
    degenerate = MetricField(TensorField((0, 2), 3, lambda c: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                                              [0.0, 0.0, 0.0]]))
    E = Embedding(2, SimpleAmbient(3, degenerate), lambda c: [c[0], c[1], 0.0])
    with pytest.raises(SingularMetricError):
        unit_normal(E, PointStack([[0.2, 0.2]]))
    with pytest.raises(SingularMetricError):
        gauss_weingarten(frame_stack(NormalField(E), PointStack([[0.2, 0.2]]), partials=True))


def test_frame_stack_rejects_points_of_another_chart(plane_r3):
    with pytest.raises(DimensionMismatchError, match="dimension 3"):
        frame_stack(NormalField(plane_r3), PointStack([[0.1, 0.2, 0.3]]))


def test_wrong_output_arity_rejected(euclid3):
    E = Embedding(2, euclid3, lambda c: [c[0], c[1]])
    with pytest.raises(RankDeficientError, match="2 ambient coordinates"):
        frame_stack(NormalField(E), PointStack([[0.0, 0.0]]))
