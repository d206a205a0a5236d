"""AD against FD for the induced derivatives.

The ambient fields have their own oracle (acceptance criterion 2).  This
file checks the derivatives built on top of them, independently of how
the engine computes them:

* every first partial ``bundle_at`` returns (phi, u, U, V, v, lambda)
  against central differences of the float split ``values_at`` returns
  on the point stack shifted along each coordinate;
* the normal partials that ``gauss_weingarten`` decomposes (``DN`` minus
  its Christoffel term) against central differences of the normal;
* on drawn graphs z = f(s, t) of cubic polynomials, the bundle partials
  as above and the algebraic rows (2.5)-(2.8) at their default tolerance;
  and on two disjoint samples of each drawn graph, the differential
  battery adjudicates the same structure sign, phi-flipped, with every
  row (2.11)-(2.17) passing at its default tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from sasakicheck import (
    Embedding,
    NormalField,
    PointStack,
    TensorField,
    christoffel,
    extract_structure,
    frame_stack,
    gauss_weingarten,
    sample_states,
    standard_sasakian,
    verify_algebraic_identities,
    verify_differential_identities,
)
from sasakicheck.dual import cos, exp, sin
from sasakicheck.errors import SasakicheckError

from conftest import SimpleAmbient, chart_points, chart_vectors, euclidean_metric

STEP = 1e-5
TOL = 1e-6
POINTS = 10

# bundle partial -> split field it differentiates
PARTIALS = {"dphi": "phi", "du": "u", "dU": "U", "dV": "V", "dv": "v", "dlam": "lam"}


def _normal(surface, request):
    if surface == "quadric_r3_scaled":
        E = request.getfixturevalue("quadric_r3")
        return NormalField(E, scaling=TensorField((0, 0), 2, lambda c: exp(c[0] + c[1])))
    return NormalField(request.getfixturevalue(surface))


def _sphere_normal():
    r = 2.0
    E = Embedding(2, SimpleAmbient(3, euclidean_metric(3)), lambda c: [
        r * cos(c[0]) * cos(c[1]), r * sin(c[0]) * cos(c[1]), r * sin(c[1])])
    return NormalField(E, orientation=-1)


def _sphere_points():
    # half the box keeps the chart away from the poles
    return PointStack(0.5 * chart_points(2, POINTS, seed=89).coords)


SURFACES = ["plane_r3", "quadric_r3", "quadric_r3_scaled", "plane_r5"]


def _shifted(pts, k, delta):
    """The stack with coordinate k of every row moved by ``delta``."""
    rows = pts.coords.copy()
    rows[:, k] += delta
    return PointStack(rows)


def _bundle_partial_errors(S, pts):
    """max |bundle_at partial - central difference of values_at| over the
    points, for every partial and coordinate k."""
    bd = S.bundle_at(pts)
    errors = {}
    for k in range(pts.dim):
        plus, minus = (S.values_at(_shifted(pts, k, sign * STEP)) for sign in (1.0, -1.0))
        for partial, name in PARTIALS.items():
            fd = (getattr(plus, name) - getattr(minus, name)) / (2.0 * STEP)
            errors[partial, k] = float(np.max(np.abs(getattr(bd, partial)[:, k] - fd)))
    return errors


@pytest.mark.parametrize("surface", SURFACES)
def test_bundle_partials_match_finite_differences(surface, request):
    N = _normal(surface, request)
    pts = chart_points(N.embedding.dim, POINTS, seed=83)
    errors = _bundle_partial_errors(extract_structure(frame_stack(N, pts)), pts)
    assert all(e <= TOL for e in errors.values()), errors


# the exponents (i, j) of the monomials s^i t^j of degree <= 3
MONOMIALS = [(i, j) for i in range(4) for j in range(4 - i)]


def _polynomial_graph(coeffs):
    """The graph z = sum of coeffs[k] s^i t^j over MONOMIALS[k] = (i, j), in
    the standard Sasakian R^3."""
    def embed(c):
        z = 0.0
        for a, (i, j) in zip(coeffs, MONOMIALS):
            z = z + a * c[0] ** i * c[1] ** j
        return [c[0], c[1], z]

    return Embedding(2, standard_sasakian(1), embed)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(coeffs=st.lists(st.floats(-3.0, 3.0), min_size=len(MONOMIALS),
                       max_size=len(MONOMIALS)))
def test_polynomial_graphs_hold_the_algebraic_identities_and_ad_matches_fd(coeffs):
    pts = chart_points(2, POINTS, seed=79)
    try:
        S = extract_structure(frame_stack(NormalField(_polynomial_graph(coeffs)), pts))
        errors = _bundle_partial_errors(S, pts)
    except SasakicheckError:
        reject()
    rows = verify_algebraic_identities(S)
    assert [r.verdict for r in rows] == ["pass"] * 4, [(r.name, r.max_residual) for r in rows]
    assert all(e <= TOL for e in errors.values()), errors


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(coeffs=st.lists(st.floats(-3.0, 3.0), min_size=len(MONOMIALS),
                       max_size=len(MONOMIALS)))
def test_polynomial_graphs_adjudicate_one_structure_sign(coeffs):
    N = NormalField(_polynomial_graph(coeffs))
    for seed in (71, 73):
        pts = chart_points(2, POINTS, seed=seed)
        try:
            fs = frame_stack(N, pts, partials=True)
            states = sample_states(extract_structure(fs), chart_vectors(2, 4, seed=seed),
                                   gauss_weingarten(fs))
        except SasakicheckError:
            reject()
        rows, sign, _ = verify_differential_identities(states)
        assert sign == -1.0, seed
        got = [(r.name, r.verdict, r.convention.endswith("|phi-flipped")) for r in rows[:7]]
        assert got == [(f"eq_2_{k}", "pass", True) for k in range(11, 18)], (
            seed, [(r.name, r.max_residual) for r in rows])


def _fd_normal(N, pts):
    cols = [(frame_stack(N, _shifted(pts, k, STEP)).normal
             - frame_stack(N, _shifted(pts, k, -STEP)).normal) / (2.0 * STEP)
            for k in range(pts.dim)]
    return np.stack(cols, axis=1)  # [p, a, i] = d_a N^i


def _check_normal_partials(N, pts):
    fs = frame_stack(N, pts, partials=True)
    gw = gauss_weingarten(fs)
    gamma = christoffel(N.embedding.ambient.g, fs.images)
    dN = gw.DN - np.einsum("pijk,pja,pk->pia", gamma, fs.jacobian, fs.normal)
    err = float(np.max(np.abs(dN.mT - _fd_normal(N, pts))))
    assert err <= TOL, err


@pytest.mark.parametrize("surface", SURFACES)
def test_normal_partials_match_finite_differences(surface, request):
    N = _normal(surface, request)
    _check_normal_partials(N, chart_points(N.embedding.dim, POINTS, seed=97))


def test_sphere_normal_partials_match_finite_differences():
    _check_normal_partials(_sphere_normal(), _sphere_points())
