"""Seeded sampling of chart points and directions.

A single suite seed is fanned out through ``numpy.random.SeedSequence``
children in a fixed order, so a fixed configuration reproduces every
sample bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .fields import PointStack

DEFAULT_SEED = 7

_STREAMS = (
    "ambient_points",
    "ambient_directions",
    "chart_points",
    "chart_directions",
    "models",
    "misc",
)


def spawn_rngs(seed: int) -> dict:
    children = np.random.SeedSequence(seed).spawn(len(_STREAMS))
    return {name: np.random.default_rng(c) for name, c in zip(_STREAMS, children)}


def sample_points(dim: int, count: int, box: Sequence[float], rng) -> PointStack:
    """``count`` points drawn uniformly from the cube ``box`` of R^dim, as one stack."""
    lo, hi = float(box[0]), float(box[1])
    return PointStack(rng.uniform(lo, hi, size=(count, dim)))


def sample_vectors(dim: int, count: int, rng) -> np.ndarray:
    out = []
    while len(out) < count:
        v = rng.uniform(-1.0, 1.0, size=dim)
        # keep directions away from zero so normalization stays stable
        if np.linalg.norm(v) >= 1e-3:
            out.append(v)
    return np.array(out)


def g_normalized(vecs: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Scale K directions (K, m) to unit length in each metric of a
    (P, m, m) stack; returns (P, K, m)."""
    n = ((vecs[None, :, None, :] @ g[:, None]) @ vecs[None, :, :, None])[..., 0, 0]
    if not (n > 0).all():
        raise ValueError("direction has nonpositive metric norm")
    return vecs[None] / np.sqrt(n)[..., None]
