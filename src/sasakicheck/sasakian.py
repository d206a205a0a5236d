"""Ambient almost contact metric structures and their axiom battery.

The builtin structure lives on R^(2n+1) with coordinates
(x^1..x^n, y^1..y^n, z):

    eta = (dz - sum_i y^i dx^i) / 2        xi = 2 d/dz
    g   = eta (x) eta + (sum_i (dx^i)^2 + (dy^i)^2) / 4

and phi acting on the frame X_i = 2 d/dy^i, X_{n+i} = 2(d/dx^i + y^i d/dz)
by phi X_i = X_{n+i}, phi X_{n+i} = -X_i, phi xi = 0; in coordinates
phi d/dx^i = -d/dy^i.  That is the sign for which the covariant-derivative
axioms (1.6) and (1.7) of the identity catalog hold (the opposite sign
breaks both); the ``axioms`` check group measures them in every report.

The axiom battery takes the sample points as one
:class:`~sasakicheck.fields.PointStack` and the directions as a (K, d)
array.  It runs each field's closure once on the whole stack (phi and xi
in their jets; g once more, for its Christoffel symbols) and forms 'F
from that phi and g.  (1.6) applies nabla_X phi = sum_i X^i nabla_i phi
to every direction Y, each sum elementwise in index order.  So the
component closures of a structure must be elementwise: given numpy
coordinate columns (or duals over them) they return the per-point
components as columns (see :mod:`sasakicheck.fields`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .connection import christoffel, covariant_derivative_components
from .errors import DimensionMismatchError
from .fields import PointStack, TensorField, evaluate, jet
from .linalg import pair, worst
from .report import CheckResult, equation, row
from .sampling import sample_vectors, spawn_rngs, DEFAULT_SEED

RANK_SV_THRESHOLD = 1e-8
AXIOM_TOL = 1e-8


@dataclass(frozen=True)
class AlmostContactMetricStructure:
    dim: int
    phi: TensorField
    xi: TensorField
    eta: TensorField
    g: TensorField
    name: str = ""

    @property
    def n(self) -> int:
        return (self.dim - 1) // 2


def _eta_components(coords, n):
    comps = [-0.5 * coords[n + i] for i in range(n)]
    comps += [0.0] * n
    comps.append(0.5)
    return comps


def _phi_components(coords, n):
    d = 2 * n + 1
    m = [[0.0] * d for _ in range(d)]
    for j in range(n):
        m[n + j][j] = -1.0
        m[j][n + j] = 1.0
        m[2 * n][n + j] = coords[n + j]
    return m


def _metric_components(coords, n):
    d = 2 * n + 1
    eta = _eta_components(coords, n)
    g = [[eta[a] * eta[b] for b in range(d)] for a in range(d)]
    for a in range(2 * n):
        g[a][a] = g[a][a] + 0.25
    return g


def standard_sasakian(n: int) -> AlmostContactMetricStructure:
    """The classical Sasakian structure on R^(2n+1)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    d = 2 * n + 1
    xi = [0.0] * d
    xi[2 * n] = 2.0
    return AlmostContactMetricStructure(
        dim=d,
        phi=TensorField((1, 1), d, lambda c, n=n: _phi_components(c, n)),
        xi=TensorField((1, 0), d, lambda c, x=tuple(xi): list(x)),
        eta=TensorField((0, 1), d, lambda c, n=n: _eta_components(c, n)),
        g=TensorField((0, 2), d, lambda c, n=n: _metric_components(c, n)),
        name=f"standard_sasakian(n={n})",
    )


def fundamental_two_form(S: AlmostContactMetricStructure) -> TensorField:
    """'F(X, Y) = g(phi X, Y) as a (0,2) field on the ambient chart."""

    def func(coords):
        phi = S.phi.func(coords)
        g = S.g.func(coords)
        d = S.dim
        return [
            [sum(phi[c][a] * g[c][b] for c in range(d)) for b in range(d)]
            for a in range(d)
        ]

    return TensorField((0, 2), S.dim, func)


def _nabla_phi_xi(S, stack):
    """phi and xi on the stack, each read from its one jet, and their covariant
    derivatives: (P, d, d), (P, d), (P, d, d, d) and (P, d, d), derivative
    index first."""
    gamma = christoffel(S.g, stack)
    jphi, jxi = jet(S.phi, stack), jet(S.xi, stack)
    return (jphi.value, jxi.value,
            covariant_derivative_components(jphi.value, jphi.partials, gamma, (1, 1)),
            covariant_derivative_components(jxi.value, jxi.partials, gamma, (1, 0)))


def _phi_transport(dphi, g, xi, eta, dirs):
    """max_a |(nabla_X phi)Y - g(X, Y) xi + eta(Y) X|^a (eq 1.6) for every pair
    (X, Y) of the (K, P, d) directions, as (K, K, P); a NaN component gives NaN.
    For each X, nabla_X phi = sum_i X^i nabla_i phi is applied to every Y.  Both
    sums run elementwise in index order, on arrays whose point axis is innermost."""
    d = dirs.shape[-1]
    gXY = ((dirs[:, :, None, :] @ g)[:, None] @ dirs[None, ..., None])[..., 0, 0]
    etaY = pair(eta, dirs)[:, None]
    # dphi[i, a, b], xi[a] and Ys[l, b] as (P,) columns
    dphi, xi = np.moveaxis(dphi, 0, -1).copy(), xi.T.copy()
    Ys = dirs.transpose(0, 2, 1).copy()
    out = np.empty(gXY.shape)
    for k, X in enumerate(Ys):
        nabla_X = sum(X[i] * dphi[i] for i in range(d))
        lhs = sum(nabla_X[:, b] * Ys[:, None, b] for b in range(d))
        np.max(np.abs(lhs - (gXY[k, :, None] * xi - etaY * X)), axis=1, out=out[k])
    return out


def _xi_transport(dxi, phi, dirs):
    """|nabla_X xi + phi X| (eq 1.7) for every row of the (K, P, d) directions."""
    return np.abs(np.einsum("kpi,pia->kpa", dirs, dxi) + (phi @ dirs[..., None])[..., 0])


def _two_form_identities(F: np.ndarray, phi: np.ndarray) -> Dict[str, float]:
    """Residuals of (1.8)-(1.10) from 'F and phi evaluated on the same stack."""
    FP = F @ phi
    return {
        "1.8": worst(np.abs(F + F.mT)),
        "1.9": worst(np.abs(FP - FP.mT)),
        "1.10": worst(np.abs(phi.mT @ F @ phi - F)),
    }


def check_sasakian_axioms(
    S: AlmostContactMetricStructure,
    stack: PointStack,
    directions: Optional[np.ndarray] = None,
    tolerance: float = AXIOM_TOL,
) -> List[CheckResult]:
    """The report rows ``eq_1_1`` to ``eq_1_10``: the max residual of each
    structure axiom over the samples, judged against ``tolerance``.  The
    (1.3) row is the largest of its parts, kept in its details as ``1.3a``
    (eta phi = 0), ``1.3b`` (phi xi = 0) and ``1.3c`` (rank phi = 2n).

    Algebraic axioms are checked on full component arrays (equivalent to all
    directions); (1.6) at every pair and (1.7) at every row of the (K, d) array
    ``directions``, all pairs at once.  Each closure runs once on the whole (P, d)
    stack, g's twice (the closures are elementwise, see :mod:`sasakicheck.fields`);
    the residuals equal the maxima of one-point, one-pair runs bit for bit, and an
    error names the first offending point.
    """
    if not len(stack):
        raise ValueError("no sample points supplied")
    if stack.dim != S.dim:
        raise DimensionMismatchError(
            f"sample point of dimension {stack.dim} for a structure on dimension {S.dim}"
        )
    if directions is None:
        directions = sample_vectors(S.dim, 5, spawn_rngs(DEFAULT_SEED)["ambient_directions"])
    directions = np.asarray(directions, dtype=float)
    if directions.ndim != 2 or directions.shape[1] != S.dim:
        raise DimensionMismatchError(
            f"directions of shape {directions.shape} for a structure on dimension {S.dim}")
    if not len(directions):
        raise ValueError("no directions supplied")

    n = S.n
    eta = evaluate(S.eta, stack)
    g = evaluate(S.g, stack)
    phi, xi, dphi, dxi = _nabla_phi_xi(S, stack)
    sv = np.linalg.svd(phi, compute_uv=False)
    res = {
        "1.1": worst(np.abs(pair(eta, xi) - 1.0)),
        "1.2": worst(np.abs(phi @ phi + np.eye(S.dim) - xi[:, :, None] * eta[:, None, :])),
        "1.3a": worst(np.abs(eta[:, None, :] @ phi)),
        "1.3b": worst(np.abs(phi @ xi[:, :, None])),
        "1.3c": worst(np.where(sv[:, 2 * n - 1] <= RANK_SV_THRESHOLD, 1.0, sv[:, 2 * n])),
        "1.4": worst(np.abs(phi.mT @ g @ phi - g + eta[:, :, None] * eta[:, None, :])),
        "1.5": worst(np.abs((g @ xi[:, :, None])[:, :, 0] - eta)),
    }

    # (K, P, d): one C-contiguous row per point, so each product runs its one-point BLAS call
    dirs = np.repeat(directions[:, None], len(stack), axis=1)
    # a NaN (pair, point) row is passed over, as the maximum of one pair's run would
    res["1.6"] = worst(_phi_transport(dphi, g, xi, eta, dirs).reshape(-1))
    res["1.7"] = worst(_xi_transport(dxi, phi, dirs).reshape(-1, S.dim))
    # 'F_ab = sum_c phi^c_a g_cb, summed over c as fundamental_two_form sums it
    F = sum(phi[:, c, :, None] * g[:, c, None, :] for c in range(S.dim))
    res.update(_two_form_identities(F, phi))
    rows = []
    for eq in (f"1.{k}" for k in range(1, 11)):
        details = {k: res[k] for k in ("1.3a", "1.3b", "1.3c")} if eq == "1.3" else {}
        rows.append(row(*equation(eq), max(details.values()) if details else res[eq], tolerance,
                        used=len(stack), details=details))
    return rows
