import numpy as np
import pytest

from sasakicheck import (
    AlmostContactMetricStructure,
    PointStack,
    TensorField,
    check_sasakian_axioms,
    evaluate,
    fundamental_two_form,
    standard_sasakian,
)
from sasakicheck.errors import DimensionMismatchError
from sasakicheck.sampling import sample_points, sample_vectors

from conftest import chart_points, chart_vectors


def _samples(dim, count=30, seed=7):
    rng = np.random.default_rng(seed)
    pts = sample_points(dim, count, (-1.0, 1.0), rng)
    dirs = sample_vectors(dim, 5, rng)
    return pts, dirs


def test_eta_of_xi_is_one(sasaki3):
    pts = chart_points(3, 10)
    eta, xi = evaluate(sasaki3.eta, pts), evaluate(sasaki3.xi, pts)
    np.testing.assert_allclose(np.einsum("pi,pi->p", eta, xi), 1.0, rtol=0, atol=1e-14)


def test_phi_of_xi_vanishes(sasaki3):
    pts = chart_points(3, 10)
    phi, xi = evaluate(sasaki3.phi, pts), evaluate(sasaki3.xi, pts)
    assert np.max(np.abs(phi @ xi[:, :, None])) == 0.0


@pytest.mark.parametrize("n", [1, 2])
def test_full_axiom_suite(n):
    S = standard_sasakian(n)
    pts, dirs = _samples(S.dim, 100)
    rep = check_sasakian_axioms(S, pts, dirs)
    assert rep.max_residual <= 1e-8, rep.residuals


def test_axioms_require_matching_dimension(sasaki3):
    with pytest.raises(DimensionMismatchError):
        check_sasakian_axioms(sasaki3, PointStack([[0.0, 0.0]]))


def test_axioms_require_directions_of_the_ambient_dimension(sasaki3):
    pts = chart_points(3, 4)
    for dirs in (chart_vectors(2, 5), chart_vectors(3, 5)[0]):
        with pytest.raises(DimensionMismatchError, match="directions of shape"):
            check_sasakian_axioms(sasaki3, pts, dirs)


def test_axioms_require_points(sasaki3):
    with pytest.raises(ValueError):
        check_sasakian_axioms(sasaki3, PointStack(np.empty((0, 3))))


def test_axioms_require_directions(sasaki3):
    # no pair to measure must not read as a passing (1.6)/(1.7)
    with pytest.raises(ValueError, match="no directions supplied"):
        check_sasakian_axioms(sasaki3, chart_points(3, 4), np.zeros((0, 3)))


def test_scaled_eta_breaks_unit_axiom(sasaki3):
    S = sasaki3
    eta2 = TensorField((0, 1), 3, lambda c: [2 * x for x in S.eta.func(c)])
    broken = AlmostContactMetricStructure(S.dim, S.phi, S.xi, eta2, S.g)
    pts, dirs = _samples(3, 10)
    rep = check_sasakian_axioms(broken, pts, dirs)
    assert rep.residuals["1.1"] == pytest.approx(1.0, abs=1e-12)


def _phi_negated(S):
    """S with phi replaced by -phi."""
    neg_phi = TensorField((1, 1), S.dim, lambda c: [[-x for x in row] for row in S.phi.func(c)])
    return AlmostContactMetricStructure(S.dim, neg_phi, S.xi, S.eta, S.g)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_phi_sign_flip_even_axioms_unchanged_odd_break(n):
    S = standard_sasakian(n)
    pts, dirs = _samples(S.dim, 15)
    base = check_sasakian_axioms(S, pts, dirs)
    rep = check_sasakian_axioms(_phi_negated(S), pts, dirs)
    # quadratic in phi: unchanged
    assert rep.residuals["1.2"] == pytest.approx(base.residuals["1.2"], abs=1e-12)
    assert rep.residuals["1.4"] == pytest.approx(base.residuals["1.4"], abs=1e-12)
    # odd in phi: the transport axioms break by an order-one amount
    assert rep.residuals["1.6"] > 0.1
    assert rep.residuals["1.7"] > 0.1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_builtin_sign_chosen_by_transport_axioms(n):
    S = standard_sasakian(n)
    d = S.dim
    # phi d/dx^i = -d/dy^i
    phi = evaluate(S.phi, PointStack([[0.4 - 0.3 * k for k in range(d)]]))[0]
    np.testing.assert_allclose(phi[:, :n], -np.eye(d)[:, n:2 * n], atol=1e-15)
    # that sign meets the transport axioms (1.6) and (1.7); its negation breaks them
    pts, dirs = _samples(d, 15)
    built = check_sasakian_axioms(S, pts, dirs).residuals
    negated = check_sasakian_axioms(_phi_negated(S), pts, dirs).residuals
    for eq in ("1.6", "1.7"):
        assert built[eq] <= 1e-12, (eq, built[eq])
        assert negated[eq] > 0.1, (eq, negated[eq])


def test_two_form_antisymmetry_on_random_vectors(sasaki3):
    F = fundamental_two_form(sasaki3)
    Fv = evaluate(F, chart_points(3, 10))
    for x in chart_vectors(3, 5):
        assert np.max(np.abs(Fv @ x @ x)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_two_form_phi_compatibilities(n):
    S = standard_sasakian(n)
    pts, dirs = _samples(S.dim, 50)
    res = check_sasakian_axioms(S, pts, dirs).residuals
    assert res["1.8"] <= 1e-12
    assert res["1.9"] <= 1e-8
    assert res["1.10"] <= 1e-8


def test_unit_axiom_implies_annihilation(sasaki3):
    # wherever (1.2) holds tightly, (1.3)(a) and (b) must hold too
    pts, dirs = _samples(3, 20)
    rep = check_sasakian_axioms(sasaki3, pts, dirs)
    if rep.residuals["1.2"] <= 1e-8:
        assert rep.residuals["1.3a"] <= 1e-8
        assert rep.residuals["1.3b"] <= 1e-8


def test_residuals_invariant_under_sample_reordering(sasaki3):
    pts, dirs = _samples(3, 12)
    a = check_sasakian_axioms(sasaki3, pts, dirs).residuals
    b = check_sasakian_axioms(sasaki3, PointStack(pts.coords[::-1]), dirs).residuals
    assert a == b


def test_standard_sasakian_rejects_bad_n():
    with pytest.raises(ValueError):
        standard_sasakian(0)
