"""Extraction and identity suite, checked against a hand-derived oracle.

For the plane z = c inside the standard contact metric chart on R^3 the
whole induced structure has closed forms in t (the second surface
coordinate); they were derived independently by solving the frame
decomposition by hand and are frozen here:

    lambda = 1/sqrt(1 + t^2)
    phi(d/ds) = -d/dt              phi(d/dt) = d/ds / (1 + t^2)
    u = (0, t / (2 sqrt(1+t^2)))   U = (0, 2t / sqrt(1+t^2))
    v = (-t/2, 0)                  V = (-2t / (1+t^2), 0)
    h = offdiag((t^2 - 1) / (4 sqrt(1+t^2)))
"""

import functools
import math
import operator

import numpy as np
import pytest

from sasakicheck import (
    AlmostContactMetricStructure,
    Embedding,
    MetricField,
    NormalField,
    PointStack,
    ScalarField,
    TensorField,
    christoffel,
    extract_structure,
    frame_stack,
    gauss_weingarten,
    induced_metric,
    linalg,
    sample_states,
    standard_sasakian,
    verify_algebraic_identities,
    verify_differential_identities,
)
from sasakicheck.connection import covariant_derivative_components
from sasakicheck.dual import cos, exp, sin
from sasakicheck.errors import TangencyError

from conftest import (SURFACES, by_name, chart_points, chart_vectors, row, states_at,
                      surface_normal)


def _pair_dirs(dim, count=5, seed=11):
    """2 * count directions; the differential battery pairs them (0, 1), (2, 3), ..."""
    return chart_vectors(dim, 2 * count, seed=seed)


def _differential(S, pts, **kwargs):
    return verify_differential_identities(states_at(S.normal, pts, _pair_dirs(S.dim)), **kwargs)


@pytest.fixture()
def plane_structure(plane_r3):
    pts = chart_points(2, 20, seed=41)
    N = NormalField(plane_r3)
    return extract_structure(N, frame_stack(N, pts))


def plane_oracle(t):
    sq = math.sqrt(1 + t * t)
    return {
        "lam": 1 / sq,
        "phi": np.array([[0.0, 1 / (1 + t * t)], [-1.0, 0.0]]),
        "u": np.array([0.0, t / (2 * sq)]),
        "U": np.array([0.0, 2 * t / sq]),
        "v": np.array([-t / 2, 0.0]),
        "V": np.array([-2 * t / (1 + t * t), 0.0]),
        "h": np.array([[0.0, (t * t - 1) / (4 * sq)], [(t * t - 1) / (4 * sq), 0.0]]),
    }


def test_extraction_matches_frozen_plane_oracle(plane_structure):
    S = plane_structure
    ts = (-0.9, -0.3, 0.2, 0.75)
    pts = PointStack([[0.4, t] for t in ts])
    bundle = S.values_at(pts)
    gws = gauss_weingarten(frame_stack(S.normal, pts, partials=True))
    for i, t in enumerate(ts):
        bd, gw = row(bundle, i), row(gws, i)
        want = plane_oracle(t)
        np.testing.assert_allclose(bd.lam, want["lam"], atol=1e-12)
        np.testing.assert_allclose(bd.phi, want["phi"], atol=1e-12)
        np.testing.assert_allclose(bd.u, want["u"], atol=1e-12)
        np.testing.assert_allclose(bd.U, want["U"], atol=1e-12)
        np.testing.assert_allclose(bd.v, want["v"], atol=1e-12)
        np.testing.assert_allclose(bd.V, want["V"], atol=1e-12)
        np.testing.assert_allclose(gw.h, want["h"], atol=1e-12)


def test_phi_n_tangency_enforced(plane_structure):
    assert plane_structure.tangency_residual <= 1e-8


def test_lambda_matches_eta_of_normal_for_unit(plane_structure):
    assert plane_structure.lambda_consistency <= 1e-8


def test_noninvariance_detected_on_plane(plane_structure):
    assert plane_structure.noninvariant
    assert plane_structure.max_u > 1e-3


def test_invariance_detector_on_synthetic_structure():
    # a flat rotation structure (not a contact metric one) makes every
    # phi~(BX) tangent to the plane z = 0, so u extracts to zero
    eye = np.eye(3).tolist()
    amb = AlmostContactMetricStructure(
        dim=3,
        phi=TensorField((1, 1), 3, lambda c: [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        xi=TensorField((1, 0), 3, lambda c: [0.0, 0.0, 1.0]),
        eta=TensorField((0, 1), 3, lambda c: [0.0, 0.0, 1.0]),
        g=MetricField(TensorField((0, 2), 3, lambda c: eye)),
    )
    E = Embedding(2, amb, lambda c: [c[0], c[1], 0.0])
    N = NormalField(E)
    S = extract_structure(N, frame_stack(N, chart_points(2, 10)), require_sasakian=False)
    assert not S.noninvariant
    assert S.max_u <= 1e-12


def test_extraction_rejects_ill_conditioned_frame(plane_r3):
    # a vanishingly small normal scaling drives the tangent-normal frame
    # past the condition-number guard
    from sasakicheck.errors import IllConditionedFrameError

    rho = ScalarField(2, lambda c: 1e-13)
    with pytest.raises(IllConditionedFrameError):
        N = NormalField(plane_r3, scaling=rho)
        extract_structure(N, frame_stack(N, chart_points(2, 3)), require_sasakian=False)


def test_sample_states_need_the_partials_split_of_the_same_points(quadric_r3):
    N = NormalField(quadric_r3)
    pts, dirs = chart_points(2, 6, seed=61), chart_vectors(2, 4)
    fs = frame_stack(N, pts, partials=True)
    gw = gauss_weingarten(fs)
    with pytest.raises(ValueError, match="partials"):
        sample_states(extract_structure(N, frame_stack(N, pts)), dirs, gw)
    with pytest.raises(ValueError, match="structure at 4 points, Gauss-Weingarten data at 6"):
        fs4 = frame_stack(N, PointStack(pts.coords[:4]), partials=True)
        sample_states(extract_structure(N, fs4), dirs, gw)
    assert len(sample_states(extract_structure(N, fs), dirs, gw).dirs) == 6


def _sphere_normal():
    """The sphere of radius 2 about the origin of the standard Sasakian R^3."""
    return NormalField(Embedding(2, standard_sasakian(1), lambda c: [
        2.0 * cos(c[0]) * cos(c[1]), 2.0 * sin(c[0]) * cos(c[1]), 2.0 * sin(c[1])]))


@pytest.mark.parametrize("surface", ["plane_r3", "quadric_r3", "quadric_r3_scaled", "sphere"])
def test_sample_state_derivatives_match_the_levi_civita_oracle(surface):
    # the states take covariant derivatives with the Gauss connection; the
    # Levi-Civita connection of the pulled-back metric is the independent oracle
    N = _sphere_normal() if surface == "sphere" else surface_normal(SURFACES[surface])
    pts = chart_points(2, 8, seed=61)
    states = states_at(N, pts, chart_vectors(2, 4, seed=62))
    g = induced_metric(N.embedding)
    valences = {"phi": (1, 1), "u": (0, 1), "v": (0, 1), "U": (1, 0), "V": (1, 0)}
    gamma, bd = christoffel(g, pts), states.bundle
    for key, valence in valences.items():
        oracle = covariant_derivative_components(getattr(bd, key), getattr(bd, "d" + key),
                                                 gamma, valence)
        err = np.max(np.abs(getattr(states, "cov" + key) - oracle))
        assert err <= 1e-9, (surface, key, err)


def test_extraction_rejects_the_frame_stack_of_another_normal_field(quadric_r3, plane_r3):
    N = NormalField(quadric_r3)
    pts = chart_points(2, 6, seed=61)
    fs = frame_stack(N, pts)
    rho = ScalarField(2, lambda c: exp(c[0]))
    # the flipped field would split with lambda of the other sign than its own fields
    for other in (N.flipped(), NormalField(quadric_r3, rho), NormalField(plane_r3)):
        with pytest.raises(ValueError, match="another normal field"):
            extract_structure(other, fs)
    # an equal field built separately owns the stack
    S = extract_structure(NormalField(quadric_r3), fs)
    one = S.values_at(PointStack(pts.coords[:1]))
    assert S.stack.lam[0] == pytest.approx(one.lam[0], abs=1e-14)


def test_extraction_rejects_non_sasakian_ambient():
    eye = np.eye(3).tolist()
    amb = AlmostContactMetricStructure(
        dim=3,
        phi=TensorField((1, 1), 3, lambda c: [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        xi=TensorField((1, 0), 3, lambda c: [0.0, 0.0, 1.0]),
        eta=TensorField((0, 1), 3, lambda c: [0.0, 0.0, 1.0]),
        g=MetricField(TensorField((0, 2), 3, lambda c: eye)),
    )
    E = Embedding(2, amb, lambda c: [c[0], c[1], 0.0])
    with pytest.raises(TangencyError, match="axiom battery"):
        N = NormalField(E)
        extract_structure(N, frame_stack(N, chart_points(2, 5)))


@pytest.mark.parametrize("surface", ["plane_r3", "quadric_r3"])
def test_algebraic_identities_on_canonical_surfaces(surface, request):
    E = request.getfixturevalue(surface)
    pts = chart_points(2, 30, seed=43)
    N = NormalField(E)
    S = extract_structure(N, frame_stack(N, pts))
    rep = verify_algebraic_identities(S)
    for r in rep.identities:
        assert r.residual <= 1e-8, (r.name, r.residual)


def test_specific_algebraic_values_on_plane(plane_structure):
    bd = plane_structure.values_at(PointStack([[0.1, -0.8], [0.1, 0.5]]))
    assert np.max(np.abs(linalg.pair(bd.u, bd.V))) <= 1e-12
    assert np.max(np.abs(linalg.pair(bd.v, bd.U))) <= 1e-12
    assert np.max(np.abs(linalg.pair(bd.u, bd.U) - (1 - bd.lam ** 2))) <= 1e-12


def test_gauge_families_agree_for_unit_normal(plane_r3):
    N = NormalField(plane_r3)
    S = extract_structure(N, frame_stack(N, chart_points(2, 20, seed=47)))
    rep = verify_algebraic_identities(S)
    r25 = by_name(rep, "2.5")
    r28 = by_name(rep, "2.8")
    assert r25.residual == pytest.approx(r28.residual, abs=1e-12)


def test_v_equals_metric_dual_of_V(plane_structure):
    bd = plane_structure.values_at(chart_points(2, 15, seed=49))
    np.testing.assert_allclose((bd.g @ bd.V[:, :, None])[..., 0], bd.v, atol=1e-12)
    np.testing.assert_allclose((bd.g @ bd.U[:, :, None])[..., 0], bd.u, atol=1e-12)


def test_orientation_flip_covariance(plane_r3):
    pts = chart_points(2, 10, seed=53)
    N = NormalField(plane_r3)
    S = extract_structure(N, frame_stack(N, pts))
    Sf = extract_structure(N.flipped(), frame_stack(N.flipped(), pts))
    first = PointStack(pts.coords[:5])
    a, b = S.values_at(first), Sf.values_at(first)
    np.testing.assert_allclose(b.u, -a.u, atol=1e-12)
    np.testing.assert_allclose(b.U, -a.U, atol=1e-12)
    np.testing.assert_allclose(b.lam, -a.lam, atol=1e-12)
    np.testing.assert_allclose(b.v, a.v, atol=1e-12)
    np.testing.assert_allclose(b.V, a.V, atol=1e-12)
    np.testing.assert_allclose(b.phi, a.phi, atol=1e-12)
    ra = _differential(S, pts)
    rb = _differential(Sf, pts)
    for x, y in zip(ra.identities, rb.identities):
        assert x.residual == pytest.approx(y.residual, abs=1e-10)


@pytest.mark.parametrize("surface,n", [("plane_r3", 1), ("quadric_r3", 1), ("plane_r5", 2)])
def test_differential_identities_adjudicate_consistently(surface, n, request):
    E = request.getfixturevalue(surface)
    dim = 2 * n
    pts = chart_points(dim, 15, seed=59)
    N = NormalField(E)
    S = extract_structure(N, frame_stack(N, pts))
    rep = _differential(S, pts)
    assert rep.structure_sign == "phi-flipped"
    expected = {
        "2.11": "H_w|printed|phi-flipped",
        "2.12": "H-free|printed|phi-flipped",
        "2.13": "H-free|printed|phi-flipped",
        "2.14": "H_w|printed|phi-flipped",
        "2.15": "H_h|printed|phi-flipped",
        "2.16": "H-free|printed|phi-flipped",
        "2.17": "H_w|printed|phi-flipped",
    }
    for name, conv in expected.items():
        r = by_name(rep, name)
        assert r.residual <= 1e-5, (name, r.residual)
        assert r.convention == conv, (name, r.convention)
        if name != "2.17":
            # odd in (phi, u, U): the extracted sign fails by an order-one amount
            assert r.details["best_other_structure_sign"] > 1e-2
        else:
            # even in (u, U): holds under either structure sign
            assert r.details["best_other_structure_sign"] <= 1e-5


def test_strict_paper_mode_reports_printed_residuals(plane_structure):
    pts = chart_points(2, 10, seed=61)
    rep = _differential(plane_structure, pts, strict_paper=True)
    assert rep.structure_sign == "as-extracted"
    # the printed convention with H = H_h does not hold on actual surfaces
    assert all(r.residual > 1e-3 for r in rep.identities if r.name != "2.18")


def test_eq_2_16_value_under_adjudicated_convention(plane_structure):
    # with a unit normal (w = 0) the scalar relation reduces to
    # h(Y, V) = u'(Y) - Y lambda in the adjudicated sign
    pts = chart_points(2, 10, seed=67)
    rep = _differential(plane_structure, pts)
    assert by_name(rep, "2.16").residual <= 1e-5


def test_eq_2_18_vacuous_on_plane(plane_structure):
    pts = chart_points(2, 10, seed=71)
    rep = _differential(plane_structure, pts)
    r = by_name(rep, "2.18")
    assert r.details["premise_max_h_Y_U"] > 1e-3
    assert r.details["vacuous"]


def test_v_HY_is_measured_not_assumed(plane_structure):
    pts = chart_points(2, 10, seed=73)
    rep = _differential(plane_structure, pts)
    assert rep.extras["v_HY_measured"]["H_h"] > 1e-3


def test_scaled_normal_refutes_unit_gauge_identities(quadric_r3):
    rho = ScalarField(2, lambda c: exp(c[0] + c[1]))
    pts = chart_points(2, 12, seed=79)
    N = NormalField(quadric_r3, scaling=rho)
    S = extract_structure(N, frame_stack(N, pts))
    alg = verify_algebraic_identities(S)
    # rho^2 factors break the unit-normal forms of (2.6) to (2.8)
    assert by_name(alg, "2.6").residual > 1e-2
    assert by_name(alg, "2.7").residual > 1e-2
    rep = _differential(S, pts)
    # the xi-decomposition identities still hold, the eta(N)-gauge ones fail
    assert by_name(rep, "2.12").residual <= 1e-5
    assert by_name(rep, "2.15").residual <= 1e-5
    assert by_name(rep, "2.16").residual <= 1e-5
    assert by_name(rep, "2.13").residual > 1e-2
    assert by_name(rep, "2.14").residual > 1e-2


def _flat_bilinear(y, M, x):
    terms = (y[:, None] * M * x[None, :]).ravel().tolist()
    return functools.reduce(operator.add, terms, 0.0)


@pytest.mark.parametrize("dim", [2, 4])
def test_bilinear_sums_flat_in_row_major_order(dim):
    # On numpy 2.4.6, np.einsum("i,ia,a->") differs from the flat sum on
    # about a quarter of these 2x2 samples; the eq 2.12/2.13 goldens pin
    # the flat order.
    rng = np.random.default_rng(2012 + dim)
    for _ in range(200):
        y, x = rng.standard_normal(dim), rng.standard_normal(dim)
        M = rng.standard_normal((dim, dim))
        assert linalg.bilinear(y[None], M[None], x[None])[0] == _flat_bilinear(y, M, x)


def test_bilinear_order_is_visible_under_cancellation():
    # Flat: 1e16 + 1 -> 1e16, - 1e16 -> 0, + 1 -> 1.  Row sums would give
    # 0, column sums 2.
    ones = np.ones(2)
    M = np.array([[1e16, 1.0], [-1e16, 1.0]])
    assert linalg.bilinear(ones[None], M[None], ones[None])[0] == 1.0
