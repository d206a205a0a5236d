"""Exact Christoffel symbols and nabla phi of ``standard_sasakian(n)``.

sympy builds the structure from its definition in the frame
X_i = 2 d/dy^i, X_{n+i} = 2(d/dx^i + y^i d/dz), xi = 2 d/dz, with
phi X_i = X_{n+i}, phi X_{n+i} = -X_i and phi xi = 0, takes the
Levi-Civita connection of g = eta (x) eta + sum (dx^2 + dy^2) / 4 in
exact arithmetic, and checks:

* (1.6) and (1.7) hold identically: nabla_i phi^a_b = g_ib xi^a - eta_b
  delta^a_i and nabla_i xi^a = -phi^a_i;
* ``christoffel`` (Gamma[p, k, i, j] = Gamma^k_ij) and the axiom
  battery's ``_nabla_phi_xi`` (phi and xi from their jets, and their
  covariant derivatives, derivative index first) agree with the exact
  values at seeded points, to roundoff.
"""

from functools import lru_cache

import numpy as np
import pytest

from sasakicheck import evaluate, standard_sasakian
from sasakicheck.connection import christoffel
from sasakicheck.sasakian import _nabla_phi_xi

from conftest import chart_points

sp = pytest.importorskip("sympy")


@lru_cache(maxsize=None)
def _exact(n):
    """Coordinates, g, eta, xi, phi, Gamma^k_ij, nabla_i phi^a_b and nabla_i xi^a."""
    d = 2 * n + 1
    x, y, z = sp.symbols(f"x1:{n + 1}"), sp.symbols(f"y1:{n + 1}"), sp.Symbol("z")
    coords = (*x, *y, z)
    half = sp.Rational(1, 2)
    eta = sp.Matrix([[-half * yi for yi in y] + [0] * n + [half]])
    g = eta.T * eta + sp.diag(*([sp.Rational(1, 4)] * (2 * n) + [0]))
    xi = sp.Matrix([0] * (2 * n) + [2])
    # columns X_1..X_2n, xi and their images under phi, in coordinates
    frame, image = sp.zeros(d, d), sp.zeros(d, d)
    for i in range(n):
        frame[n + i, i] = 2
        frame[i, n + i], frame[2 * n, n + i] = 2, 2 * y[i]
        image[:, i], image[:, n + i] = frame[:, n + i], -frame[:, i]
    frame[:, 2 * n] = xi
    phi = (image * frame.inv()).applyfunc(sp.expand)

    ginv = g.inv().applyfunc(sp.cancel)
    dg = [[[sp.diff(g[j, l], coords[i]) for l in range(d)] for j in range(d)] for i in range(d)]
    gamma = [[[sp.expand(half * sum(ginv[k, l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j])
                                    for l in range(d)))
               for j in range(d)] for i in range(d)] for k in range(d)]
    nabla_phi = [[[sp.expand(sp.diff(phi[a, b], coords[i])
                             + sum(gamma[a][i][m] * phi[m, b] - gamma[m][i][b] * phi[a, m]
                                   for m in range(d)))
                   for b in range(d)] for a in range(d)] for i in range(d)]
    nabla_xi = [[sp.expand(sp.diff(xi[a], coords[i]) + sum(gamma[a][i][j] * xi[j]
                                                           for j in range(d)))
                 for a in range(d)] for i in range(d)]
    return coords, g, eta, xi, phi, gamma, nabla_phi, nabla_xi


@pytest.mark.parametrize("n", [1, 2])
def test_exact_connection_meets_the_transport_axioms(n):
    coords, g, eta, xi, phi, _, nabla_phi, nabla_xi = _exact(n)
    d = 2 * n + 1
    for i in range(d):
        for a in range(d):
            assert sp.expand(nabla_xi[i][a] + phi[a, i]) == 0, (i, a)
            for b in range(d):
                want = g[i, b] * xi[a] - eta[b] * (1 if a == i else 0)
                assert sp.expand(nabla_phi[i][a][b] - want) == 0, (i, a, b)


@pytest.mark.parametrize("n", [1, 2])
def test_christoffel_and_nabla_phi_equal_the_exact_values(n):
    coords, g, eta, xi, phi, gamma, nabla_phi, nabla_xi = _exact(n)
    S = standard_sasakian(n)
    stack = chart_points(S.dim, 20, seed=83)
    jet_phi, jet_xi, got_phi, got_xi = _nabla_phi_xi(S, stack)
    pairs = {
        # the structure the engine builds is the one sympy built ...
        "g": (evaluate(S.g, stack), g), "phi": (evaluate(S.phi, stack), phi),
        "xi": (evaluate(S.xi, stack), list(xi)), "eta": (evaluate(S.eta, stack), list(eta)),
        # ... and so are the phi and xi the battery reads from their jets ...
        "jet phi": (jet_phi, phi), "jet xi": (jet_xi, list(xi)),
        # ... and so is its connection
        "gamma": (christoffel(S.g, stack), gamma), "nabla phi": (got_phi, nabla_phi),
        "nabla xi": (got_xi, nabla_xi),
    }
    for name, (got, exact) in pairs.items():
        at = sp.lambdify(coords, sp.Array(exact), "numpy")
        want = np.array([np.array(at(*p), dtype=float) for p in stack.coords])
        assert want.shape == got.shape, name
        # a few ulps: the engine sums the same exact terms in floating point
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15, err_msg=name)
