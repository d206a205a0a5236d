"""Exact induced structure of xi-tangent surfaces in standard_sasakian(1).

The plane b(s, t) = (s, c, t) and the cylinder b(s, t) = (s, s^2, t)
contain the xi direction, so lambda = 0 on them.  sympy builds the
ambient from its frame definition, as ``test_sympy_ambient.py`` does, and
derives the induced data from the chart formulas in exact arithmetic:

* the unit normal N = g~^-1 C / sqrt(C . g~^-1 C), with C . x = det([B | x]);
* the split phi~ B X = B phi X + u(X) N, phi~ N = -B U and
  xi = B V + lambda N, with g = B^T g~ B and v = eta o B;
* h from the Gauss formula D_a(B e_b) = B(nabla_a e_b) + h(a, b) N, with
  D_a(B e_b) = d_a d_b b + Gamma~(B e_a, B e_b).

The engine's split and Gauss-Weingarten data must match within 1e-15 at
seeded points of the plane, for a few values of c.  On the cylinder the
split's first partials (``dlam``, ``dphi``, ...) from the engine's frame
stack must match the exact s and t derivatives within 1e-14.
"""

from functools import lru_cache

import numpy as np
import pytest

from sasakicheck import standard_sasakian
from sasakicheck.hypersurface import Embedding, NormalField, frame_stack, gauss_weingarten
from sasakicheck.induced import extract_structure

from conftest import chart_points

sp = pytest.importorskip("sympy")

# the split fields whose first partials the frame stack carries (not g)
DIFFERENTIATED = ("lam", "phi", "u", "v", "U", "V")


@lru_cache(maxsize=None)
def _ambient():
    """The coordinates, then g~, eta, phi~, xi and Gamma~[k][i][j] of standard_sasakian(1)."""
    x, y, z = coords = sp.symbols("x y z", real=True)
    half = sp.Rational(1, 2)
    eta = sp.Matrix([[-half * y, 0, half]])
    G = eta.T * eta + sp.diag(sp.Rational(1, 4), sp.Rational(1, 4), 0)
    xi = sp.Matrix([0, 0, 2])
    # phi X_1 = X_2, phi X_2 = -X_1, phi xi = 0 in the frame X_1 = 2 d/dy,
    # X_2 = 2 (d/dx + y d/dz), xi
    frame = sp.Matrix([[0, 2, 0], [2, 0, 0], [0, 2 * y, 2]])
    image = sp.Matrix([[2, 0, 0], [0, -2, 0], [2 * y, 0, 0]])
    Ginv = G.inv()
    gamma = [[[sum(half * Ginv[k, l] * (sp.diff(G[j, l], coords[i]) + sp.diff(G[i, l], coords[j])
                                        - sp.diff(G[i, j], coords[l])) for l in range(3))
               for j in range(3)] for i in range(3)] for k in range(3)]
    return coords, G, eta, image * frame.inv(), xi, gamma


def _split(b, chart):
    """The exact lambda, phi, g, u, v, U and V of the surface b over the
    chart symbols, then its frame A = [B | N] and the substitution of b for
    the ambient coordinates."""
    coords, G, eta, phi_amb, xi, _ = _ambient()
    on_surface = dict(zip(coords, b))
    B = b.jacobian(chart)
    G, eta, phi_amb = (M.subs(on_surface) for M in (G, eta, phi_amb))
    Ginv = G.inv()
    C = sp.Matrix([sp.Matrix.hstack(B, sp.eye(3)[:, k]).det() for k in range(3)])
    N = Ginv * C / sp.sqrt((C.T * Ginv * C)[0])
    A = sp.Matrix.hstack(B, N)
    X = sp.simplify(A.inv() * sp.Matrix.hstack(phi_amb * B, phi_amb * N, xi))
    assert sp.simplify(X[2, 2]) == 0  # phi~ N is tangent
    split = {"lam": X[2, 3], "phi": X[:2, :2], "g": sp.simplify(B.T * G * B), "u": X[2, :2],
             "v": eta * B, "U": -X[:2, 2], "V": X[:2, 3]}
    return split, A, on_surface


@lru_cache(maxsize=None)
def _exact():
    """Surface coordinates, c and the exact split and h of the plane y = c."""
    s, t, c = sp.symbols("s t c", real=True)
    b = sp.Matrix([s, c, t])
    exact, A, on_plane = _split(b, [s, t])
    gamma = _ambient()[-1]
    B = b.jacobian([s, t])
    D = [[b.diff(sa).diff(sb) + sp.Matrix([sum(gamma[k][i][j].subs(on_plane) * B[i, a] * B[j, e]
                                               for i in range(3) for j in range(3))
                                           for k in range(3)])
          for e, sb in enumerate((s, t))] for a, sa in enumerate((s, t))]
    h = sp.Matrix(2, 2, lambda a, e: sp.simplify((A.inv() * D[a][e])[2]))
    return (s, t, c), {**exact, "h": h}


@lru_cache(maxsize=None)
def _exact_cylinder():
    """Surface coordinates and the exact split of the cylinder y = x^2 with
    the first partials of ``DIFFERENTIATED``, ``"d" + key`` holding the s
    and then the t partial."""
    s, t = sp.symbols("s t", real=True)
    split, _, _ = _split(sp.Matrix([s, s ** 2, t]), [s, t])
    partials = {"d" + key: sp.derive_by_array(sp.Array(split[key]), (s, t))
                for key in DIFFERENTIATED}
    return (s, t), {**split, **partials}


def _at(exact, chart, key, shape, values):
    """The exact ``key`` at each tuple of chart ``values``, as a (P, *shape) array."""
    at = sp.lambdify(chart, sp.Array(exact[key]), "numpy")
    return np.array([np.array(at(*value), dtype=float).reshape(shape) for value in values])


def _engine(surface, points, keys):
    """The engine's ``keys`` of the bundle (or ``h``) on the map ``surface``."""
    E = Embedding(2, standard_sasakian(1), surface)
    fs = frame_stack(NormalField(E), points, partials=True)
    bd = extract_structure(fs, require_sasakian=False).stack
    return {key: gauss_weingarten(fs).h if key == "h" else getattr(bd, key) for key in keys}


def test_exact_plane_at_c_0_3_reads_the_probed_values():
    (s, t, c), exact = _exact()
    at = {s: sp.Rational(1, 7), t: -sp.Rational(2, 5), c: sp.Rational(3, 10)}
    value = {key: sp.nsimplify(sp.Matrix(sp.Array(e)).subs(at)) for key, e in exact.items()}
    r = sp.Rational
    assert value["lam"] == sp.Matrix([0])
    assert value["phi"] == sp.zeros(2, 2)
    assert value["g"] == sp.Matrix([[r(109, 400), r(-3, 40)], [r(-3, 40), r(1, 4)]])
    assert value["u"] == sp.Matrix([[r(1, 2), 0]])
    assert value["v"] == sp.Matrix([[r(-3, 20), r(1, 2)]])
    assert value["U"] == sp.Matrix([2, r(3, 5)])
    assert value["V"] == sp.Matrix([0, 2])
    assert value["h"] == sp.Matrix([[r(3, 20), r(-1, 4)], [r(-1, 4), 0]])


@pytest.mark.parametrize("c", [0.3, -0.7, 1.25])
def test_engine_matches_the_exact_plane(c):
    chart, exact = _exact()
    points = chart_points(2, 12, seed=61)
    got = _engine(lambda co: [co[0], c, co[1]], points, exact)
    for key, value in got.items():
        want = _at(exact, chart, key, value.shape[1:], [(p, q, c) for p, q in points.coords])
        np.testing.assert_allclose(value, want, rtol=0, atol=1e-15, err_msg=key)


def test_engine_partials_match_the_exact_cylinder():
    chart, exact = _exact_cylinder()
    points = chart_points(2, 12, seed=61)
    got = _engine(lambda co: [co[0], co[0] * co[0], co[1]], points, exact)
    for key, value in got.items():
        want = _at(exact, chart, key, value.shape[1:], points.coords)
        np.testing.assert_allclose(value, want, rtol=0, atol=1e-14, err_msg=key)
