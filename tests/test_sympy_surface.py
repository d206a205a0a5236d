"""Exact induced structure of the xi-tangent planes y = c in standard_sasakian(1).

The plane b(s, t) = (s, c, t) contains the xi direction, so lambda = 0 on
it.  sympy builds the ambient from its frame definition, as
``test_sympy_ambient.py`` does, and derives the induced data from the
chart formulas in exact arithmetic:

* the unit normal N = g~^-1 C / sqrt(C . g~^-1 C), with C . x = det([B | x]);
* the split phi~ B X = B phi X + u(X) N, phi~ N = -B U and
  xi = B V + lambda N, with g = B^T g~ B and v = eta o B;
* h from the Gauss formula D_a(B e_b) = B(nabla_a e_b) + h(a, b) N, with
  D_a(B e_b) = d_a d_b b + Gamma~(B e_a, B e_b).

The engine's split and Gauss-Weingarten data must match within 1e-15 at
seeded points, for a few values of c.
"""

from functools import lru_cache

import numpy as np
import pytest

from sasakicheck import standard_sasakian
from sasakicheck.hypersurface import Embedding, NormalField, frame_stack, gauss_weingarten
from sasakicheck.induced import extract_structure

from conftest import chart_points

sp = pytest.importorskip("sympy")


@lru_cache(maxsize=None)
def _exact():
    """Surface coordinates, c and the exact lambda, phi, g, u, v, U, V and h."""
    x, y, z, s, t, c = sp.symbols("x y z s t c", real=True)
    coords = (x, y, z)
    half = sp.Rational(1, 2)
    eta = sp.Matrix([[-half * y, 0, half]])
    G = eta.T * eta + sp.diag(sp.Rational(1, 4), sp.Rational(1, 4), 0)
    xi = sp.Matrix([0, 0, 2])
    # phi X_1 = X_2, phi X_2 = -X_1, phi xi = 0 in the frame X_1 = 2 d/dy,
    # X_2 = 2 (d/dx + y d/dz), xi
    frame = sp.Matrix([[0, 2, 0], [2, 0, 0], [0, 2 * y, 2]])
    image = sp.Matrix([[2, 0, 0], [0, -2, 0], [2 * y, 0, 0]])
    phi_amb = image * frame.inv()
    Ginv = G.inv()
    gamma = [[[sum(half * Ginv[k, l] * (sp.diff(G[j, l], coords[i]) + sp.diff(G[i, l], coords[j])
                                        - sp.diff(G[i, j], coords[l])) for l in range(3))
               for j in range(3)] for i in range(3)] for k in range(3)]

    on_plane = {x: s, y: c, z: t}
    b = sp.Matrix([s, c, t])
    B = b.jacobian([s, t])
    G, Ginv, eta, phi_amb = (M.subs(on_plane) for M in (G, Ginv, eta, phi_amb))
    C = sp.Matrix([sp.Matrix.hstack(B, sp.eye(3)[:, k]).det() for k in range(3)])
    N = Ginv * C / sp.sqrt((C.T * Ginv * C)[0])
    A = sp.Matrix.hstack(B, N)
    X = sp.simplify(A.inv() * sp.Matrix.hstack(phi_amb * B, phi_amb * N, xi))
    assert sp.simplify(X[2, 2]) == 0  # phi~ N is tangent
    D = [[b.diff(sa).diff(sb) + sp.Matrix([sum(gamma[k][i][j].subs(on_plane) * B[i, a] * B[j, e]
                                               for i in range(3) for j in range(3))
                                           for k in range(3)])
          for e, sb in enumerate((s, t))] for a, sa in enumerate((s, t))]
    h = sp.Matrix(2, 2, lambda a, e: sp.simplify((A.inv() * D[a][e])[2]))
    exact = {"lam": X[2, 3], "phi": X[:2, :2], "g": sp.simplify(B.T * G * B), "u": X[2, :2],
             "v": eta * B, "U": -X[:2, 2], "V": X[:2, 3], "h": h}
    return (s, t, c), exact


def _engine(c, points):
    E = Embedding(2, standard_sasakian(1), lambda co: [co[0], c, co[1]])
    fs = frame_stack(NormalField(E), points, partials=True)
    bd = extract_structure(fs, require_sasakian=False).stack
    got = {key: getattr(bd, key) for key in ("lam", "phi", "g", "u", "v", "U", "V")}
    return {**got, "h": gauss_weingarten(fs).h}


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
    (s, t, c_sym), exact = _exact()
    points = chart_points(2, 12, seed=61)
    got = _engine(c, points)
    for key, e in exact.items():
        at = sp.lambdify((s, t, c_sym), sp.Array(e), "numpy")
        want = np.array([np.array(at(p, q, c), dtype=float).reshape(got[key].shape[1:])
                         for p, q in points.coords])
        np.testing.assert_allclose(got[key], want, rtol=0, atol=1e-15, err_msg=key)
