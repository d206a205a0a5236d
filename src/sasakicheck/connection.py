"""Metrics, Christoffel symbols and covariant derivatives.

The connection is always the Levi-Civita connection of the supplied
metric; Christoffel symbols come from one dual-number jet of the metric
components on a :class:`~sasakicheck.fields.PointStack`.
``levi_civita_gamma`` and ``covariant_derivative_components`` accept
leading point axes, and every function here returns arrays with the
point axis first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularMetricError, UnsupportedValenceError
from .fields import PointStack, TensorField, evaluate, jet

DET_FLOOR = 1e-12


@dataclass(frozen=True)
class MetricField:
    """Riemannian metric as a (0,2) tensor field."""

    tensor: TensorField


def christoffel(metric: MetricField, stack: PointStack) -> np.ndarray:
    """Gamma[p, k, i, j] = Gamma^k_ij at every point of a stack, from one
    dual-number jet of the metric."""
    jt = jet(metric.tensor, stack)
    require_nonsingular(jt.value, stack)
    return levi_civita_gamma(jt.value, jt.partials)


def require_nonsingular(g: np.ndarray, stack: PointStack) -> None:
    """SingularMetricError for the first point of ``stack`` whose metric g[p]
    is (nearly) singular."""
    stack.reject(np.abs(np.linalg.det(g)) < DET_FLOOR, SingularMetricError,
                 lambda i, at: f"metric determinant below {DET_FLOOR} at {at}")


def levi_civita_gamma(g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma[..., k, i, j] from metric values g[..., j, l] and partials
    dg[..., i, j, l] = d_i g_jl; leading axes index points."""
    term = dg + np.einsum("...jil->...ijl", dg) - np.einsum("...lij->...ijl", dg)
    return 0.5 * np.einsum("...kl,...ijl->...kij", np.linalg.inv(g), term)


def covariant_derivative_components(
    value: np.ndarray, partials: np.ndarray, gamma: np.ndarray, valence: tuple
) -> np.ndarray:
    """Full covariant derivative array; the first axis after any leading
    point axes is the derivative index."""
    if valence == (1, 0):
        return partials + np.einsum("...aij,...j->...ia", gamma, value)
    if valence == (0, 1):
        return partials - np.einsum("...mia,...m->...ia", gamma, value)
    if valence == (1, 1):
        return (
            partials
            + np.einsum("...aim,...mb->...iab", gamma, value)
            - np.einsum("...mib,...am->...iab", gamma, value)
        )
    if valence == (0, 2):
        return (
            partials
            - np.einsum("...mia,...mb->...iab", gamma, value)
            - np.einsum("...mib,...am->...iab", gamma, value)
        )
    raise UnsupportedValenceError(f"unsupported tensor valence {valence}")


def covariant_derivative_vector(
    metric: MetricField, X: TensorField, Y: TensorField, stack: PointStack
) -> np.ndarray:
    """(nabla_X Y)[p, k] = X^i (d_i Y^k + Gamma^k_ij Y^j) at every point of a stack."""
    gamma = christoffel(metric, stack)
    jy = jet(Y, stack)
    full = covariant_derivative_components(jy.value, jy.partials, gamma, (1, 0))
    return np.einsum("pi,pia->pa", evaluate(X, stack), full)


def covariant_derivative_tensor(
    metric: MetricField, T: TensorField, X: TensorField, stack: PointStack
) -> np.ndarray:
    """(nabla_X T)[p] for T of valence (0,1), (1,1) or (0,2) at every point of a stack."""
    if T.valence not in ((0, 1), (1, 1), (0, 2)):
        raise UnsupportedValenceError(
            f"covariant_derivative_tensor supports (0,1), (1,1), (0,2); got {T.valence}"
        )
    gamma = christoffel(metric, stack)
    jt = jet(T, stack)
    full = covariant_derivative_components(jt.value, jt.partials, gamma, T.valence)
    return np.einsum("pi,pi...->p...", evaluate(X, stack), full)

