"""Christoffel symbols and covariant derivatives.

The connection is always the Levi-Civita connection of the supplied
metric, a (0, 2) :class:`~sasakicheck.fields.TensorField`; Christoffel
symbols come from one dual-number jet of the metric components on a
:class:`~sasakicheck.fields.PointStack`.
``levi_civita_gamma`` and ``covariant_derivative_components`` accept
leading point axes, and every function here returns arrays with the
point axis first.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMetricError, UnsupportedValenceError
from .fields import PointStack, TensorField, jet

DET_FLOOR = 1e-12


def christoffel(metric: TensorField, stack: PointStack) -> np.ndarray:
    """Gamma[p, k, i, j] = Gamma^k_ij at every point of a stack, from one
    dual-number jet of the (0, 2) metric field."""
    jt = jet(metric, stack)
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
