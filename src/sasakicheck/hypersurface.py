"""Parametric hypersurfaces: normals, induced metric, Gauss-Weingarten data.

An embedding maps a 2n-dimensional chart into a (2n+1)-dimensional
ambient chart.  Everything the surface checks read at a chart point
starts from one :class:`FrameJet`: the image b(p), the Jacobian B, the
Hessian (one nested dual pass of the embedding map), the ambient metric
jet chained through B, and the normal N with its first partials.  Dual
numbers differentiate only the embedding map and the ambient tensors;
the normal and every frame solve are plain numpy, differentiated
implicitly (d(A^-1 b) = A^-1 (db - dA A^-1 b)).

Two shape operators are carried side by side:

* ``H_w`` from the Weingarten split  D_X N = B(H_w X) + w(X) N
* ``H_h`` from the metric relation   g(H_h X, Y) = h(X, Y)

For a unit normal these differ by sign; identity checks adjudicate
between them rather than assuming either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import linalg
from .connection import DET_FLOOR, MetricField, levi_civita_gamma
from .dual import grad_part, real_part, seed
from .errors import EvaluationError, NonFiniteValueError, RankDeficientError, SingularMetricError
from .fields import Point, ScalarField, TensorField, evaluate, generic_jacobian, jet
MIN_SINGULAR_VALUE = 1e-8
FRAME_CONDITION_LIMIT = 1e12


def _full_rank(B: np.ndarray, p: Point) -> np.ndarray:
    if not np.isfinite(B).all():
        raise NonFiniteValueError(f"non-finite embedding Jacobian at {p.coords}")
    sv = np.linalg.svd(B, compute_uv=False)
    if sv[-1] <= MIN_SINGULAR_VALUE:
        raise RankDeficientError(
            f"embedding Jacobian has smallest singular value {sv[-1]:.3e} at {p.coords}"
        )
    return B


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
        return _full_rank(np.array(jac, dtype=float), p)

    def hessian_at(self, p: Point):
        """``(b, B, hess)`` from one nested dual pass of the map:
        b[i] = b^i(p), B[i, a] = d_a b^i and hess[i, a, c] = d_a d_c b^i."""
        m, d = self.dim, self.ambient_dim
        outs = self.map(seed(seed(list(p.coords))))
        b = np.empty(d)
        B = np.empty((d, m))
        hess = np.zeros((d, m, m))
        for i, o in enumerate(outs):
            b[i] = real_part(o)
            for a, g in enumerate(grad_part(o, m)):
                B[i, a] = real_part(g)
                for c, gg in enumerate(grad_part(g, m)):
                    hess[i, a, c] = float(gg)
        return b, B, hess


@dataclass(frozen=True)
class SimpleAmbient:
    """Bare metric-carrying ambient chart (no contact structure)."""

    dim: int
    g: MetricField


@dataclass(frozen=True)
class NormalField:
    """Affine normal N = rho * N_unit with positive scaling rho."""

    embedding: Embedding
    scaling: Optional[ScalarField] = None
    orientation: int = 1

    def components_at(self, p: Point) -> np.ndarray:
        return frame_values(self, p).normal

    def flipped(self) -> "NormalField":
        return NormalField(self.embedding, self.scaling, -self.orientation)


@dataclass(frozen=True, slots=True)
class FrameJet:
    """The tangent-plus-normal frame A = [B | N] at one chart point.

    ``image`` is b(p), ``metric`` the ambient metric there and ``normal``
    the effective normal N.  The first-order fields (``hessian[i, a, c] =
    d_c B[i, a]``, ``dmetric[c] = d_c g~`` along the surface,
    ``dnormal[c] = d_c N`` and the ambient Christoffel symbols ``gamma``)
    are None on a value-only frame from :func:`frame_values`.
    """

    image: Point
    jacobian: np.ndarray
    metric: np.ndarray
    normal: np.ndarray
    frame: np.ndarray
    hessian: Optional[np.ndarray] = None
    dmetric: Optional[np.ndarray] = None
    gamma: Optional[np.ndarray] = None
    dnormal: Optional[np.ndarray] = None


def _unit_normal(B: np.ndarray, G: np.ndarray, orientation: int) -> np.ndarray:
    """Metric unit normal from the cofactor vector c of B (c . x = det([B | x])).

    N = orientation * g~^-1 c / sqrt(c . g~^-1 c).  Since
    det([B | g~^-1 c]) = c . g~^-1 c > 0, orientation 1 makes det([B | N])
    positive and -1 flips it.
    """
    d, m = B.shape
    if abs(np.linalg.det(G)) < DET_FLOOR:
        raise SingularMetricError(f"ambient metric determinant below {DET_FLOOR}")
    stack = np.zeros((d, d, d))
    stack[:, :, :m] = B
    stack[np.arange(d), np.arange(d), m] = 1.0
    c = np.linalg.det(stack)
    n_raw = np.linalg.solve(G, c)
    norm2 = float(c @ n_raw)  # equals g~(n_raw, n_raw)
    if not norm2 > 0.0:
        raise RankDeficientError("normal construction degenerate (nonpositive norm)")
    return (orientation / math.sqrt(norm2)) * n_raw


def _scaling(N: NormalField, p: Point, partials: bool):
    """rho(p) and, if asked, its partials; rho must stay positive."""
    if partials:
        jt = jet(N.scaling, p)
        rho, drho = float(jt.value), jt.partials
    else:
        rho, drho = float(evaluate(N.scaling, p)), None
    if rho <= 0.0:
        label = getattr(N.scaling.func, "text", "<callable>")
        raise EvaluationError(
            f"normal scaling {label!r} must stay positive, got {rho!r} at {list(p.coords)}"
        )
    return rho, drho


def frame_values(N: NormalField, p: Point) -> FrameJet:
    """Value-only frame: one first-order pass of the map, no derivative solves."""
    E = N.embedding
    values, jac = E.jacobian(list(p.coords))
    image = Point([real_part(v) for v in values])
    B = _full_rank(np.array(jac, dtype=float), p)
    G = evaluate(E.ambient_metric.tensor, image)
    nvec = _unit_normal(B, G, N.orientation)
    if N.scaling is not None:
        nvec = _scaling(N, p, partials=False)[0] * nvec
    return FrameJet(image=image, jacobian=B, metric=G, normal=nvec,
                    frame=np.column_stack([B, nvec]))


def frame_jet(N: NormalField, p: Point) -> FrameJet:
    """Frame with first partials.

    The unit normal n is differentiated implicitly: differentiating
    g~(B e_a, n) = 0 and g~(n, n) = 1 along e_c gives one solve
        [B | n]^T g~ d_c n = -( (d_c B)^T g~ n + B^T (d_c g~) n ;  n^T (d_c g~) n / 2 ),
    and a scaled normal N = rho n follows by the product rule.  With g~
    nonsingular and B of full rank, that system and the frame are
    nonsingular too.
    """
    E = N.embedding
    m, d = E.dim, E.ambient_dim
    b, B, hess = E.hessian_at(p)
    _full_rank(B, p)
    image = Point(b)
    jg = jet(E.ambient_metric.tensor, image)
    G = jg.value
    n = _unit_normal(B, G, N.orientation)
    dG = np.einsum("kc,kij->cij", B, jg.partials)
    dGn = dG @ n  # [c, i]
    rhs = np.empty((d, m))
    rhs[:m] = -(np.einsum("iac,i->ac", hess, G @ n) + B.T @ dGn.T)
    rhs[m] = -0.5 * (dGn @ n)
    dn = np.linalg.solve(np.column_stack([B, n]).T @ G, rhs).T

    if N.scaling is None:
        nvec, dnvec = n, dn
    else:
        rho, drho = _scaling(N, p, partials=True)
        nvec, dnvec = rho * n, np.outer(drho, n) + rho * dn
    return FrameJet(image=image, jacobian=B, metric=G, normal=nvec,
                    frame=np.column_stack([B, nvec]), hessian=hess, dmetric=dG,
                    gamma=levi_civita_gamma(G, jg.partials), dnormal=dnvec)


def unit_normal(E: Embedding, p: Point, orientation: int = 1) -> np.ndarray:
    """Oriented metric unit normal at a point."""
    return frame_values(NormalField(E, None, orientation), p).normal


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
    derivatives D_a(B e_b) and D_a N that were decomposed; ``jet`` is
    the frame jet they were built from.
    """

    induced_gamma: np.ndarray
    h: np.ndarray
    H_w: np.ndarray
    H_h: np.ndarray
    w: np.ndarray
    D: np.ndarray
    DN: np.ndarray
    jet: FrameJet

    @property
    def normal(self) -> np.ndarray:
        return self.jet.normal


def gauss_weingarten(E: Embedding, N: NormalField, p: Point) -> GaussWeingartenData:
    """Decompose ambient covariant derivatives into tangential and normal parts."""
    m, d = E.dim, E.ambient_dim
    fj = frame_jet(N, p)
    B, nvec, frame, gamma_amb = fj.jacobian, fj.normal, fj.frame, fj.gamma
    linalg.check_condition(frame, FRAME_CONDITION_LIMIT, what="tangent-normal frame")

    # Gauss: D_a (B e_b) = hess[:, a, b] + Gamma~(B e_a, B e_b)
    D = fj.hessian + np.einsum("ijk,ja,kb->iab", gamma_amb, B, B)
    sol = np.linalg.solve(frame, D.reshape(d, m * m)).reshape(d, m, m)
    induced_gamma = sol[:m]
    h = sol[m]

    # Weingarten: D_a N = dN[a] + Gamma~(B e_a, N)
    DN = fj.dnormal.T + np.einsum("ijk,ja,k->ia", gamma_amb, B, nvec)
    solN = np.linalg.solve(frame, DN)
    H_w = solN[:m]
    w = solN[m]

    gind = np.einsum("ia,ij,jb->ab", B, fj.metric, B)
    H_h = np.linalg.solve(gind, h)

    return GaussWeingartenData(
        induced_gamma=induced_gamma,
        h=h,
        H_w=H_w,
        H_h=H_h,
        w=w,
        D=D,
        DN=DN,
        jet=fj,
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
    B, nvec = gw.jet.jacobian, gw.normal
    gauss = gw.D - np.einsum("ic,cab->iab", B, gw.induced_gamma) - np.einsum("ab,i->iab", gw.h, nvec)
    wein = gw.DN - np.einsum("ic,ca->ia", B, gw.H_w) - np.outer(nvec, gw.w)
    return {
        "gauss": float(np.max(np.abs(gauss))),
        "weingarten": float(np.max(np.abs(wein))),
    }
