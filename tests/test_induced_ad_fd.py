"""AD against FD for the induced derivatives.

The ambient fields have their own oracle (acceptance criterion 2).  This
file checks the derivatives built on top of them, independently of how
the engine computes them:

* every first partial ``bundle_at`` returns (phi, u, U, V, v, lambda)
  against central differences of the float split ``values_at`` returns
  at the shifted points;
* the normal partials that ``gauss_weingarten`` decomposes (``DN`` minus
  its Christoffel term) against central differences of the normal.
"""

import numpy as np
import pytest

from sasakicheck import (
    Embedding,
    NormalField,
    PointStack,
    ScalarField,
    christoffel,
    extract_structure,
    frame_stack,
    gauss_weingarten,
)
from sasakicheck.dual import cos, exp, sin

from conftest import SimpleAmbient, as_points, chart_points, euclidean_metric, row, stack_of

STEP = 1e-5
TOL = 1e-6
POINTS = 10

# bundle partial -> split field it differentiates
PARTIALS = {"dphi": "phi", "du": "u", "dU": "U", "dV": "V", "dv": "v", "dlam": "lam"}


def _normal(surface, request):
    if surface == "quadric_r3_scaled":
        E = request.getfixturevalue("quadric_r3")
        return NormalField(E, scaling=ScalarField(2, lambda c: exp(c[0] + c[1])))
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


@pytest.mark.parametrize("surface", SURFACES)
def test_bundle_partials_match_finite_differences(surface, request):
    N = _normal(surface, request)
    pts = chart_points(N.embedding.dim, POINTS, seed=83)
    S = extract_structure(N, frame_stack(N, pts))
    for p in as_points(pts):
        bd = row(S.bundle_at(p), 0)
        plus, minus = ([row(S.values_at(p.shifted(k, sign * STEP)), 0) for k in range(p.dim)]
                       for sign in (1.0, -1.0))
        for partial, name in PARTIALS.items():
            fd = np.stack([(getattr(a, name) - getattr(b, name)) / (2.0 * STEP)
                           for a, b in zip(plus, minus)])
            err = float(np.max(np.abs(getattr(bd, partial) - fd)))
            assert err <= TOL, (surface, partial, p.coords, err)


def _fd_normal(N, p):
    cols = [(N.components_at(p.shifted(k, STEP)) - N.components_at(p.shifted(k, -STEP)))
            / (2.0 * STEP) for k in range(p.dim)]
    return np.stack(cols)  # [a, i] = d_a N^i


def _check_normal_partials(N, pts):
    E = N.embedding
    for p in as_points(pts):
        gw = row(gauss_weingarten(frame_stack(N, stack_of(p), partials=True)), 0)
        gamma = christoffel(E.ambient_metric, E.point_image(p))
        dN = gw.DN - np.einsum("ijk,ja,k->ia", gamma, gw.jacobian, gw.normal)
        err = float(np.max(np.abs(dN.T - _fd_normal(N, p))))
        assert err <= TOL, (p.coords, err)


@pytest.mark.parametrize("surface", SURFACES)
def test_normal_partials_match_finite_differences(surface, request):
    N = _normal(surface, request)
    _check_normal_partials(N, chart_points(N.embedding.dim, POINTS, seed=97))


def test_sphere_normal_partials_match_finite_differences():
    _check_normal_partials(_sphere_normal(), _sphere_points())
