"""Parametric hypersurfaces: normals, induced metric, Gauss-Weingarten data.

An embedding maps a 2n-dimensional chart into a (2n+1)-dimensional
ambient chart.  Everything the surface checks read starts from one
:class:`FrameStack` on all P chart points at once, which come as one
:class:`~sasakicheck.fields.PointStack` of chart rows: the images b(p)
(again a stack), the Jacobians B and Hessians (one dual pass of the
embedding map on the point stack's coordinate columns, nested for the
Hessian), the ambient metric and its jet at b(p) chained through B, the
induced metric g = B^T g~ B, and the normal N with its first partials.
Dual numbers differentiate only the embedding map and the ambient
tensors; the normal and every frame solve are batched numpy calls on
(P, d, d) stacks, differentiated implicitly
(d(A^-1 b) = A^-1 (db - dA A^-1 b)).  Products on the stack keep
singleton axes and operand layouts that do not depend on P, so every
point gets the bits it gets in a stack of one.  A report builds one
frame stack, with first partials when a check reads derivatives, and
passes it to the structure split
(:func:`sasakicheck.induced.extract_structure`) and to
:func:`gauss_weingarten`.  The decomposition is one record,
:class:`GaussWeingartenData`, of (P, ...) arrays.  The dual-number
pullback :func:`induced_metric` is the independent oracle of the
frame stack's ``surface_metric``.

Two shape operators are carried side by side:

* ``H_w`` from the Weingarten split  D_X N = B(H_w X) + w(X) N
* ``H_h`` from the metric relation   g(H_h X, Y) = h(X, Y)

For a unit normal these differ by sign; identity checks adjudicate
between them rather than assuming either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import linalg
from .connection import levi_civita_gamma, require_nonsingular
from .dual import grad_part, innermost, seed, value_part
from .errors import (DimensionMismatchError, EvaluationError, NonFiniteValueError,
                     RankDeficientError)
from .fields import PointStack, TensorField, evaluate, jet

MIN_SINGULAR_VALUE = 1e-8
FRAME_CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class Embedding:
    """Map b from a 2n-chart into a (2n+1)-chart carrying a metric.

    ``map_func`` takes the 2n surface coordinates and returns the 2n+1
    ambient coordinates; it must be written with dual-compatible,
    elementwise arithmetic (see :mod:`sasakicheck.fields`).  ``ambient``
    is any object with ``dim`` and a (0, 2) metric field ``g`` (a full
    almost contact structure or a bare metric carrier).
    """

    dim: int
    ambient: object
    map_func: Callable

    def map(self, coords):
        out = self.map_func(list(coords))
        if len(out) != self.ambient.dim:
            raise RankDeficientError(
                f"embedding returned {len(out)} ambient coordinates, expected {self.ambient.dim}"
            )
        return list(out)


@dataclass(frozen=True)
class NormalField:
    """Affine normal N = rho * N_unit with positive scaling rho, a (0, 0)
    field on the surface chart."""

    embedding: Embedding
    scaling: Optional[TensorField] = None
    orientation: int = 1

    def flipped(self) -> "NormalField":
        return NormalField(self.embedding, self.scaling, -self.orientation)


@dataclass(frozen=True, slots=True)
class FrameStack:
    """The tangent-plus-normal frame A = [B | N] at P chart points, built
    from the normal field ``normal_field``.

    Every array has the point axis first.  ``images`` holds b(p),
    ``surface_metric`` the induced metric B^T g~ B and ``normal`` the
    effective normal N.  The first-order fields (``hessian[p, i, a, c] =
    d_c B[p, i, a]``, ``dnormal[p, c] = d_c N`` and the ambient
    Christoffel symbols ``gamma``) are None on a value-only stack.
    """

    normal_field: NormalField
    points: PointStack
    images: PointStack
    jacobian: np.ndarray
    surface_metric: np.ndarray
    normal: np.ndarray
    frame: np.ndarray
    hessian: Optional[np.ndarray] = None
    gamma: Optional[np.ndarray] = None
    dnormal: Optional[np.ndarray] = None


def _map_pass(E: Embedding, chart: PointStack, partials: bool):
    """Images, Jacobians and (with ``partials``) Hessians of the map at every
    chart point, from one dual pass on the coordinate columns.

    A non-finite image or Jacobian B raises, and so does a smallest
    singular value of B at or below ``MIN_SINGULAR_VALUE``: a point passes
    at once where sigma_min(B) >= sqrt(det(B^T B)) / ||B||_F^(m-1) is at
    least 1e4 times that floor (:func:`sasakicheck.linalg.check_rank`),
    and the SVD decides, and prints, the rest.
    """
    m, d, count = E.dim, E.ambient.dim, len(chart)
    coords = seed(chart.columns)
    if partials:
        coords = seed(coords)
    b = np.empty((count, d))
    B = np.empty((count, d, m))
    hess = np.empty((count, d, m, m)) if partials else None
    with np.errstate(all="ignore"):
        for i, out in enumerate(E.map(coords)):
            b[:, i] = innermost(out)
            for a, g in enumerate(grad_part(out, m)):
                B[:, i, a] = innermost(g)
                if partials:
                    for c, gg in enumerate(grad_part(g, m)):
                        hess[:, i, a, c] = gg
    finite = np.isfinite(b).all(axis=1) & np.isfinite(B).all(axis=(1, 2))
    chart.reject(~finite, NonFiniteValueError,
                 lambda i, at: f"non-finite embedding value or Jacobian at {at}")
    linalg.check_rank(B, chart, MIN_SINGULAR_VALUE, "embedding Jacobian")
    return b, B, hess


def _unit_normal(B: np.ndarray, G: np.ndarray, orientation: int, chart: PointStack) -> np.ndarray:
    """Metric unit normals from the cofactor vectors c of B (c . x = det([B | x])).

    N = orientation * g~^-1 c / sqrt(c . g~^-1 c).  Since
    det([B | g~^-1 c]) = c . g~^-1 c > 0, orientation 1 makes det([B | N])
    positive and -1 flips it.
    """
    count, d, m = B.shape
    cof = np.zeros((count, d, d, d))
    cof[:, :, :, :m] = B[:, None]
    cof[:, np.arange(d), np.arange(d), m] = 1.0
    c = np.linalg.det(cof)
    n_raw = np.linalg.solve(G, c[:, :, None])[:, :, 0]
    norm2 = linalg.pair(c, n_raw)  # equals g~(n_raw, n_raw)
    chart.reject(~(norm2 > 0.0), RankDeficientError,
                 lambda i, at: f"normal construction degenerate (nonpositive norm) at {at}")
    return (orientation / np.sqrt(norm2))[:, None] * n_raw


def frame_stack(N: NormalField, chart: PointStack, partials: bool = False) -> FrameStack:
    """The frame at every point of the chart stack, with first partials if ``partials``.

    The unit normal n is differentiated implicitly: differentiating
    g~(B e_a, n) = 0 and g~(n, n) = 1 along e_c gives one solve
        [B | n]^T g~ d_c n = -( (d_c B)^T g~ n + B^T (d_c g~) n ;  n^T (d_c g~) n / 2 ),
    and a scaled normal N = rho n follows by the product rule.  That solve
    runs only once the frame and the induced metric pass their condition
    checks.  A degenerate point (non-finite map, rank-deficient B,
    singular metric, nonpositive scaling, frame or induced metric
    condition number over ``FRAME_CONDITION_LIMIT``) raises, naming the
    first such point.  The condition checks clear a point at once where
    the bound cond_2(A) <= ||A||_F^d / |det A| is at most 1e-4 times the
    limit (:func:`sasakicheck.linalg.check_condition`); only the rest go
    through ``np.linalg.cond``, and every printed condition number comes
    from it.
    """
    E = N.embedding
    if chart.dim != E.dim:
        raise DimensionMismatchError(
            f"points of dimension {chart.dim} fed to a surface on a {E.dim}-dimensional chart")
    b, B, hess = _map_pass(E, chart, partials)
    images = PointStack(b)
    if partials:
        jg = jet(E.ambient.g, images)
        G = jg.value
    else:
        G = evaluate(E.ambient.g, images)
    require_nonsingular(G, chart)
    with np.errstate(all="ignore"):
        n = _unit_normal(B, G, N.orientation, chart)
    if N.scaling is None:
        nvec = n
    else:
        jt = jet(N.scaling, chart) if partials else None
        rho = jt.value if partials else evaluate(N.scaling, chart)
        label = getattr(N.scaling.func, "text", "<callable>")
        chart.reject(rho <= 0.0, EvaluationError, lambda i, at: (
            f"normal scaling {label!r} must stay positive, got {float(rho[i])!r} at {list(at)}"))
        nvec = rho[:, None] * n
    frame = np.concatenate([B, nvec[:, :, None]], axis=2)
    linalg.check_condition(frame, chart, FRAME_CONDITION_LIMIT, what="tangent-normal frame")
    g = B.mT @ G @ B
    linalg.check_condition(g, chart, FRAME_CONDITION_LIMIT, what="induced metric")
    first_order = {}
    if partials:
        dG = np.einsum("pkc,pkij->pcij", B, jg.partials)
        dGn = (dG @ n[:, None, :, None])[..., 0]  # [p, c, i]
        rhs = np.empty(n.shape + (E.dim,))
        rhs[:, :-1] = -(np.einsum("piac,pi->pac", hess, (G @ n[:, :, None])[..., 0])
                        + B.mT @ dGn.mT)
        rhs[:, -1] = -0.5 * (dGn @ n[:, :, None])[..., 0]
        dn = np.linalg.solve(np.concatenate([B, n[:, :, None]], axis=2).mT @ G, rhs).mT
        dnvec = dn if N.scaling is None else (jt.partials[:, :, None] * n[:, None, :]
                                              + rho[:, None, None] * dn)
        first_order = dict(hessian=hess, gamma=levi_civita_gamma(G, jg.partials), dnormal=dnvec)
    return FrameStack(normal_field=N, points=chart, images=images, jacobian=B,
                      surface_metric=g, normal=nvec, frame=frame, **first_order)


def induced_metric(E: Embedding) -> TensorField:
    """Pullback metric g(X, Y) = g~(BX, BY) on the chart (oracle of ``surface_metric``)."""

    def func(coords):
        m, d = E.dim, E.ambient.dim
        outs = E.map(seed(list(coords)))
        gt = E.ambient.g.func([value_part(o) for o in outs])
        jac = [grad_part(o, m) for o in outs]
        gB = [[sum(gt[i][j] * jac[j][a] for j in range(d)) for a in range(m)] for i in range(d)]
        return [
            [sum(jac[i][a] * gB[i][b] for i in range(d)) for b in range(m)]
            for a in range(m)
        ]

    return TensorField((0, 2), E.dim, func)


@dataclass(frozen=True, slots=True)
class GaussWeingartenData:
    """Frame decomposition of the ambient derivative at P chart points.

    Every array is C-contiguous with the point axis first.
    ``induced_gamma[p, c, a, b]`` are the coefficients of the Gauss
    formula's induced connection, D_a(B e_b) = B(nabla_a e_b) + h N;
    ``h`` is its normal part.  ``H_w``/``w`` split D_a N, and ``H_h``
    realizes h through the induced metric.  ``D[p, i, a, b]`` and
    ``DN[p, i, a]`` are the ambient derivatives D_a(B e_b) and D_a N that
    were decomposed, against the frame [B | N] of the frame stack.
    """

    induced_gamma: np.ndarray
    h: np.ndarray
    H_w: np.ndarray
    H_h: np.ndarray
    w: np.ndarray
    D: np.ndarray
    DN: np.ndarray


def gauss_weingarten(fs: FrameStack) -> GaussWeingartenData:
    """Decompose ambient covariant derivatives into tangential and normal parts
    at every point of a frame stack built with partials, with one batched
    solve per decomposition."""
    if fs.hessian is None:
        raise ValueError("gauss_weingarten needs a frame stack built with partials")
    B, nvec, frame, gamma_amb = fs.jacobian, fs.normal, fs.frame, fs.gamma
    count, d, m = B.shape

    # Gauss: D_a (B e_b) = hess[:, a, b] + Gamma~(B e_a, B e_b)
    D = fs.hessian + np.einsum("pijk,pja,pkb->piab", gamma_amb, B, B)
    sol = np.linalg.solve(frame, D.reshape(count, d, m * m)).reshape(count, d, m, m)

    # Weingarten: D_a N = dN[a] + Gamma~(B e_a, N)
    DN = fs.dnormal.mT + np.einsum("pijk,pja,pk->pia", gamma_amb, B, nvec)
    solN = np.linalg.solve(frame, DN)

    H_h = np.linalg.solve(fs.surface_metric, sol[:, m])
    parts = (sol[:, :m], sol[:, m], solN[:, :m], H_h, solN[:, m], D, DN)
    return GaussWeingartenData(*map(np.ascontiguousarray, parts))


def second_fundamental_symmetry(gw: GaussWeingartenData) -> float:
    """max |h(X, Y) - h(Y, X)| over the points of a stack."""
    return linalg.worst(np.abs(gw.h - gw.h.mT))


def reconstruction_residuals(fs: FrameStack, gw: GaussWeingartenData) -> dict:
    """How exactly B(nabla e_a e_b) + h N and B(H_w e_a) + w N rebuild the
    ambient derivatives at every point of a stack, with B and N read from
    the frame stack ``gw`` was built on; the defining contract of the
    decomposition."""
    B, nvec = fs.jacobian, fs.normal
    gauss = (gw.D - np.einsum("pic,pcab->piab", B, gw.induced_gamma)
             - np.einsum("pab,pi->piab", gw.h, nvec))
    wein = gw.DN - np.einsum("pic,pca->pia", B, gw.H_w) - nvec[:, :, None] * gw.w[:, None, :]
    return {"gauss": linalg.worst(np.abs(gauss)), "weingarten": linalg.worst(np.abs(wein))}
