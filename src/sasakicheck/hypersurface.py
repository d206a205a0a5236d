"""Parametric hypersurfaces: normals, induced metric, Gauss-Weingarten data.

An embedding maps a 2n-dimensional chart into a (2n+1)-dimensional
ambient chart.  The unit normal is built from the metric-orthogonal
complement of the Jacobian columns; everything is written so it also
evaluates on dual numbers, because the extracted hypersurface fields
get differentiated downstream.

Two shape operators are carried side by side:

* ``H_w`` from the Weingarten split  D_X N = B(H_w X) + w(X) N
* ``H_h`` from the metric relation   g(H_h X, Y) = h(X, Y)

For a unit normal these differ by sign; identity checks adjudicate
between them rather than assuming either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import linalg
from .connection import MetricField, christoffel
from .dual import grad_part, real_part, seed, sqrt as generic_sqrt
from .errors import RankDeficientError
from .fields import Point, ScalarField, TensorField, generic_jacobian
MIN_SINGULAR_VALUE = 1e-8
FRAME_CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class Embedding:
    """Map b from a 2n-chart into a (2n+1)-chart carrying a metric.

    ``map_func`` takes the 2n surface coordinates and returns the 2n+1
    ambient coordinates; it must be written with dual-compatible
    arithmetic.  ``ambient`` is any object with ``dim`` and a metric
    field ``g`` (a full almost contact structure or a bare metric
    carrier).
    """

    dim: int
    ambient: object
    map_func: Callable

    @property
    def ambient_dim(self) -> int:
        return self.ambient.dim

    @property
    def ambient_metric(self) -> MetricField:
        return self.ambient.g

    def map(self, coords):
        out = self.map_func(list(coords))
        if len(out) != self.ambient_dim:
            raise RankDeficientError(
                f"embedding returned {len(out)} ambient coordinates, expected {self.ambient_dim}"
            )
        return list(out)

    def point_image(self, p: Point) -> Point:
        return Point([real_part(c) for c in self.map(p.coords)])

    def jacobian(self, coords):
        """Ambient values and Jacobian columns; jac[i][a] = d_a b^i."""
        return generic_jacobian(self.map, coords)

    def jacobian_at(self, p: Point) -> np.ndarray:
        _, jac = self.jacobian(list(p.coords))
        B = np.array(jac, dtype=float)
        sv = np.linalg.svd(B, compute_uv=False)
        if sv[-1] <= MIN_SINGULAR_VALUE:
            raise RankDeficientError(
                f"embedding Jacobian has smallest singular value {sv[-1]:.3e} at {p.coords}"
            )
        return B

    def hessian_at(self, p: Point) -> np.ndarray:
        """hess[i, a, b] = d_a d_b b^i via nested dual passes."""
        m = self.dim
        inner = seed(list(p.coords))
        outer = seed(inner)
        outs = self.map(outer)
        hess = np.zeros((self.ambient_dim, m, m))
        for i, o in enumerate(outs):
            for a, g in enumerate(grad_part(o, m)):
                for b, gg in enumerate(grad_part(g, m)):
                    hess[i, a, b] = float(gg)
        return hess


@dataclass(frozen=True)
class SimpleAmbient:
    """Bare metric-carrying ambient chart (no contact structure)."""

    dim: int
    g: MetricField


def _generalized_cross(B, d):
    """Vector w with w . x = det([B | x]) for all x; dual-compatible."""
    out = []
    for a in range(d):
        mat = [list(B[i]) + [1.0 if i == a else 0.0] for i in range(d)]
        out.append(linalg.det(mat))
    return out


def _unit_normal_generic(E: Embedding, coords, orientation: int = 1):
    """Ambient components of the oriented unit normal, dual-compatible.

    Solves g(B e_a, N) = 0 with g(N, N) = 1; the base orientation makes
    det([B | N]) positive and ``orientation`` multiplies by +-1.
    """
    d = E.ambient_dim
    b_out, jac = E.jacobian(coords)
    gt = E.ambient_metric.tensor.func(b_out)
    cross = _generalized_cross(jac, d)
    n_raw = linalg.solve([list(r) for r in gt], cross)
    norm2 = linalg.dot(n_raw, cross)  # equals g(n_raw, n_raw)
    if real_part(norm2) <= 0:
        raise RankDeficientError("normal construction degenerate (nonpositive norm)")
    # sign of det([B | n_raw]) is locally constant; evaluate it on real parts
    frame_real = [
        [real_part(jac[i][a]) for a in range(E.dim)] + [real_part(n_raw[i])]
        for i in range(d)
    ]
    s = orientation * (1.0 if np.linalg.det(np.array(frame_real)) > 0 else -1.0)
    scale = s / generic_sqrt(norm2)
    return [scale * c for c in n_raw]


def unit_normal(E: Embedding, p: Point, orientation: int = 1) -> np.ndarray:
    """Oriented metric unit normal at a point."""
    E.jacobian_at(p)  # full-rank precondition
    n = _unit_normal_generic(E, list(p.coords), orientation)
    return np.array([real_part(c) for c in n])


@dataclass(frozen=True)
class NormalField:
    """Affine normal N = rho * N_unit with positive scaling rho."""

    embedding: Embedding
    scaling: Optional[ScalarField] = None
    orientation: int = 1

    def unit_components(self, coords):
        return _unit_normal_generic(self.embedding, coords, self.orientation)

    def scale_value(self, coords):
        if self.scaling is None:
            return 1.0
        return self.scaling.func(list(coords))

    def components(self, coords):
        n = self.unit_components(coords)
        if self.scaling is None:
            return n
        rho = self.scale_value(coords)
        if real_part(rho) <= 0:
            raise ValueError(f"normal scaling must stay positive, got {real_part(rho)}")
        return [rho * c for c in n]

    def components_at(self, p: Point) -> np.ndarray:
        return np.array([real_part(c) for c in self.components(p.coords)])

    def flipped(self) -> "NormalField":
        return NormalField(self.embedding, self.scaling, -self.orientation)


def induced_metric(E: Embedding) -> MetricField:
    """Pullback metric g(X, Y) = g_ambient(BX, BY) on the surface chart."""

    def func(coords):
        b_out, jac = E.jacobian(coords)
        gt = E.ambient_metric.tensor.func(b_out)
        m, d = E.dim, E.ambient_dim
        gB = [[sum(gt[i][j] * jac[j][a] for j in range(d)) for a in range(m)] for i in range(d)]
        return [
            [sum(jac[i][a] * gB[i][b] for i in range(d)) for b in range(m)]
            for a in range(m)
        ]

    return MetricField(TensorField((0, 2), E.dim, func))


@dataclass(frozen=True, slots=True)
class GaussWeingartenData:
    """Frame decomposition of the ambient derivative along the surface.

    ``induced_gamma[c, a, b]`` are the surface connection coefficients
    from the tangential part of D_a(B e_b); ``h`` is its normal part.
    ``H_w``/``w`` split D_a N, and ``H_h`` realizes h through the
    induced metric.  ``D[i, a, b]`` and ``DN[i, a]`` are the ambient
    derivatives D_a(B e_b) and D_a N that were decomposed.
    """

    point: Point
    induced_gamma: np.ndarray
    h: np.ndarray
    H_w: np.ndarray
    H_h: np.ndarray
    w: np.ndarray
    frame: np.ndarray
    jacobian: np.ndarray
    normal: np.ndarray
    D: np.ndarray
    DN: np.ndarray


def _normal_jacobian_at(N: NormalField, p: Point) -> np.ndarray:
    """dN[a, i] = d_a N^i of the effective normal field."""
    coords = seed(list(p.coords))
    outs = N.components(coords)
    m = N.embedding.dim
    dN = np.zeros((m, len(outs)))
    for i, o in enumerate(outs):
        for a, g in enumerate(grad_part(o, m)):
            dN[a, i] = float(g)
    return dN


def gauss_weingarten(E: Embedding, N: NormalField, p: Point) -> GaussWeingartenData:
    """Decompose ambient covariant derivatives into tangential and normal parts."""
    m, d = E.dim, E.ambient_dim
    B = E.jacobian_at(p)
    hess = E.hessian_at(p)
    bp = E.point_image(p)
    gamma_amb = christoffel(E.ambient_metric, bp).gamma
    nvec = N.components_at(p)

    frame = np.column_stack([B, nvec])
    linalg.check_condition(frame, FRAME_CONDITION_LIMIT, what="tangent-normal frame")

    # Gauss: D_a (B e_b) = hess[:, a, b] + Gamma~(B e_a, B e_b)
    D = hess + np.einsum("ijk,ja,kb->iab", gamma_amb, B, B)
    sol = np.linalg.solve(frame, D.reshape(d, m * m)).reshape(d, m, m)
    induced_gamma = sol[:m]
    h = sol[m]

    # Weingarten: D_a N = dN[a] + Gamma~(B e_a, N)
    dN = _normal_jacobian_at(N, p)
    DN = dN.T + np.einsum("ijk,ja,k->ia", gamma_amb, B, nvec)
    solN = np.linalg.solve(frame, DN)
    H_w = solN[:m]
    w = solN[m]

    gind = np.einsum("ia,ij,jb->ab", B, E.ambient_metric.components(bp), B)
    H_h = np.linalg.solve(gind, h)

    return GaussWeingartenData(
        point=p,
        induced_gamma=induced_gamma,
        h=h,
        H_w=H_w,
        H_h=H_h,
        w=w,
        frame=frame,
        jacobian=B,
        normal=nvec,
        D=D,
        DN=DN,
    )


def second_fundamental_symmetry(
    E: Embedding, N: NormalField, points: Sequence[Point]
) -> float:
    """max |h(X, Y) - h(Y, X)| over the sampled points."""
    return max(
        float(np.max(np.abs(gw.h - gw.h.T)))
        for gw in (gauss_weingarten(E, N, p) for p in points)
    )


def reconstruction_residuals(gw: GaussWeingartenData) -> dict:
    """How exactly B(nabla e_a e_b) + h N and B(H_w e_a) + w N rebuild the
    ambient derivatives; the defining contract of the decomposition."""
    B, nvec = gw.jacobian, gw.normal
    gauss = gw.D - np.einsum("ic,cab->iab", B, gw.induced_gamma) - np.einsum("ab,i->iab", gw.h, nvec)
    wein = gw.DN - np.einsum("ic,ca->ia", B, gw.H_w) - np.outer(nvec, gw.w)
    return {
        "gauss": float(np.max(np.abs(gauss))),
        "weingarten": float(np.max(np.abs(wein))),
    }
