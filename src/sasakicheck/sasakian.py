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
array.  It evaluates each tensor, jet and Christoffel symbol once on the
whole stack (phi once, for the structure and two-form axioms alike), so
the component closures of a structure must be elementwise: given numpy
coordinate columns (or duals over them) they return the per-point
components as columns (see :mod:`sasakicheck.fields`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .connection import MetricField, christoffel, covariant_derivative_components
from .errors import DimensionMismatchError
from .fields import PointStack, TensorField, evaluate, jet
from .linalg import pair, worst
from .sampling import sample_vectors, spawn_rngs, DEFAULT_SEED

RANK_SV_THRESHOLD = 1e-8


@dataclass(frozen=True)
class AlmostContactMetricStructure:
    dim: int
    phi: TensorField
    xi: TensorField
    eta: TensorField
    g: MetricField
    name: str = ""

    @property
    def n(self) -> int:
        return (self.dim - 1) // 2


@dataclass(frozen=True)
class AxiomReport:
    """Per-axiom max residuals over the sampled points and directions."""

    residuals: Dict[str, float]
    sample_count: int
    direction_count: int

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


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
        g=MetricField(TensorField((0, 2), d, lambda c, n=n: _metric_components(c, n))),
        name=f"standard_sasakian(n={n})",
    )


def fundamental_two_form(S: AlmostContactMetricStructure) -> TensorField:
    """'F(X, Y) = g(phi X, Y) as a (0,2) field on the ambient chart."""

    def func(coords):
        phi = S.phi.func(coords)
        g = S.g.tensor.func(coords)
        d = S.dim
        return [
            [sum(phi[c][a] * g[c][b] for c in range(d)) for b in range(d)]
            for a in range(d)
        ]

    return TensorField((0, 2), S.dim, func)


def _nabla_phi_xi(S, stack):
    """nabla phi and nabla xi on the stack, (P, d, d, d) and (P, d, d), derivative index first."""
    gamma = christoffel(S.g, stack)
    jphi, jxi = jet(S.phi, stack), jet(S.xi, stack)
    return (covariant_derivative_components(jphi.value, jphi.partials, gamma, (1, 1)),
            covariant_derivative_components(jxi.value, jxi.partials, gamma, (1, 0)))


def _phi_transport_columns(dphi, g, xi, eta, dirs):
    """|(nabla_X phi)Y - g(X, Y) xi + eta(Y) X| (eq 1.6) for every pair (X, Y) of
    the (K, P, d) directions, one component at a time as a (K, K, P) buffer that
    the next one overwrites, so no (K, K, P, d) array is held.  The left side is
    summed as einsum("i,iab,b->a") sums one pair: over b for each i, then over i."""
    gXY = ((dirs[:, :, None, :] @ g)[:, None] @ dirs[None, ..., None])[..., 0, 0]
    etaY = pair(eta, dirs)
    lhs, part, term = (np.empty(gXY.shape) for _ in range(3))
    for a in range(dirs.shape[-1]):
        lhs[...] = 0.0
        for i in range(dirs.shape[-1]):
            Xdphi = dirs[:, :, i, None] * dphi[:, i, a]
            part[...] = 0.0
            for b in range(dirs.shape[-1]):
                part += np.multiply(Xdphi[:, None, :, b], dirs[None, :, :, b], out=term)
            lhs += part
        np.multiply(gXY, xi[:, a], out=part)
        part -= np.multiply(etaY, dirs[:, None, :, a], out=term)
        lhs -= part
        yield np.abs(lhs, out=lhs)


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
) -> AxiomReport:
    """Max residual of each structure axiom over the samples.

    Algebraic axioms are checked on full component arrays (equivalent to all
    directions); (1.6) at every pair and (1.7) at every row of the (K, d) array
    ``directions``, all pairs at once.  Every tensor, jet and Christoffel symbol
    is evaluated once on the whole (P, d) point stack (the closures are elementwise,
    see :mod:`sasakicheck.fields`); the residuals equal the maxima of one-point,
    one-pair runs bit for bit, and an error names the first offending point.
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
    phi = evaluate(S.phi, stack)
    xi = evaluate(S.xi, stack)
    eta = evaluate(S.eta, stack)
    g = evaluate(S.g.tensor, stack)
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

    dphi, dxi = _nabla_phi_xi(S, stack)
    # (K, P, d): one C-contiguous row per point, so each product runs its one-point BLAS call
    dirs = np.repeat(directions[:, None], len(stack), axis=1)
    rows16 = np.zeros((len(dirs),) + dirs.shape[:2])  # (K, K, P)
    for column in _phi_transport_columns(dphi, g, xi, eta, dirs):
        np.maximum(rows16, column, out=rows16)  # NaN-propagating, as np.max over a row
    # a NaN (pair, point) row is passed over, as the maximum of one pair's run would
    res["1.6"] = worst(rows16.reshape(-1))
    res["1.7"] = worst(_xi_transport(dxi, phi, dirs).reshape(-1, S.dim))

    res.update(_two_form_identities(evaluate(fundamental_two_form(S), stack), phi))
    return AxiomReport(residuals=res, sample_count=len(stack), direction_count=len(directions))
