"""Points, fields on coordinate charts, and their jets.

Fields are closures over chart coordinates, not symbolic trees: a
component function receives a list of coordinate values (floats or
:class:`~sasakicheck.dual.Dual` numbers) and returns nested lists (or a
scalar) of components.  Differentiation happens by feeding seeded duals
through the same closure; central finite differences provide an
independent second route for cross checking.

A :class:`PointStack` of (P, dim) rows is the engine's one multi-point
format: the sampler returns one and every stacked layer takes one.
:class:`Point` and the one-point :func:`evaluate`, :func:`jet` and
:func:`fd_derivative` stay as the independent oracles of the stacked
path.  Component functions are elementwise.  :func:`evaluate_stack` and
:func:`jet_stack` call the closure once for a whole stack of P points:
each coordinate is a numpy column of shape (P,), or a dual seeded on
those columns, and each component comes back as such a column or as a
constant, which is broadcast to (P,).  Results carry the point axis
first.  An overflowing product inside a closure gives a non-finite
component, on a stack as on Python floats, and is reported naming the
first offending point by its coordinate tuple; on a stack of plain
columns a division by zero does the same instead of raising
``ZeroDivisionError``.
``dual.exp`` applies ``math.exp`` to every entry of an array, so its
bits and its ``OverflowError`` are those of each point alone.  The
embedding map goes through the same contract: the frame layer
(:mod:`sasakicheck.hypersurface`) seeds the chart columns twice and
reads every image, Jacobian and Hessian from one nested dual pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import math

import numpy as np

from .dual import grad_part, real_part, seed, value_part
from .errors import DimensionMismatchError, EvaluationError, NonFiniteValueError

DEFAULT_FD_STEP = 1e-5


@dataclass(frozen=True)
class Point:
    """A point of an open chart of R^d."""

    coords: tuple

    def __init__(self, coords):
        object.__setattr__(self, "coords", tuple(float(c) for c in coords))
        for c in self.coords:
            if not math.isfinite(c):
                raise NonFiniteValueError(f"non-finite coordinate in {self.coords}")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def shifted(self, k: int, delta: float) -> "Point":
        c = list(self.coords)
        c[k] += delta
        return Point(c)


class PointStack:
    """P points of one chart, with each coordinate as a contiguous (P,) column.

    Built once from (P, dim) rows and shared by every field evaluated on
    the same points; ``coords`` holds those rows.  The rows must be
    finite: a non-finite coordinate raises :class:`NonFiniteValueError`
    with the text a :class:`Point` of that row would raise, and rows that
    do not form a 2-D array (uneven rows among them) raise
    :class:`DimensionMismatchError`.
    """

    def __init__(self, coords):
        try:
            coords = np.asarray(coords, dtype=float)
        except ValueError:
            shapes = sorted({np.shape(row) for row in coords})
            if len(shapes) < 2:
                raise
            raise DimensionMismatchError(f"point rows must form a 2-D (points, dim) array, "
                                         f"got rows of shapes {shapes}") from None
        if coords.ndim != 2:
            raise DimensionMismatchError(
                f"point rows must form a 2-D (points, dim) array, got shape {coords.shape}")
        bad = np.flatnonzero(~np.isfinite(coords).all(axis=1))
        if bad.size:
            raise NonFiniteValueError(f"non-finite coordinate in {tuple(coords[bad[0]].tolist())}")
        self.dim = coords.shape[1]
        self.coords = coords
        self.columns = list(np.ascontiguousarray(coords.T))

    def __len__(self) -> int:
        return len(self.coords)

    def reject(self, bad: np.ndarray, error: type, describe: Callable) -> None:
        """Raise ``error(describe(i, at))`` for the first point i where the
        (P,) mask ``bad`` is set; ``at`` is that point's coordinate tuple."""
        hits = np.flatnonzero(bad)
        if hits.size:
            i = int(hits[0])
            raise error(describe(i, tuple(self.coords[i].tolist())))


@dataclass(frozen=True)
class ScalarField:
    """Real-valued field on a chart; ``func(coords) -> number``."""

    dim: int
    func: Callable

    valence = ()

    @property
    def shape(self) -> tuple:
        return ()


@dataclass(frozen=True)
class TensorField:
    """Tensor field of valence (r, s); ``func(coords)`` returns an array
    of shape (dim,) * (r + s) as nested lists."""

    valence: tuple
    dim: int
    func: Callable

    @property
    def shape(self) -> tuple:
        return (self.dim,) * (self.valence[0] + self.valence[1])


@dataclass(frozen=True)
class Jet:
    """Field components at a point together with coordinate derivatives.

    ``partials[k, ...]`` is the partial derivative along coordinate k of
    the component array.
    """

    value: np.ndarray
    partials: np.ndarray


def _check_point(fld, p: Point) -> None:
    if p.dim != fld.dim:
        raise DimensionMismatchError(
            f"point of dimension {p.dim} fed to a field on a {fld.dim}-dimensional chart"
        )


def _component(nested, idx):
    out = nested
    for i in idx:
        out = out[i]
    return out


def evaluate(fld, p: Point) -> np.ndarray:
    """Evaluate a field at a point, returning float components.

    Raises :class:`NonFiniteValueError` naming the first offending
    component if the output is not finite everywhere.
    """
    _check_point(fld, p)
    raw = fld.func(list(p.coords))
    shape = fld.shape
    out = np.empty(shape, dtype=float)
    for idx in np.ndindex(shape):
        out[idx] = float(_component(raw, idx))
    bad = np.argwhere(~np.isfinite(out))
    if bad.size:
        idx = tuple(int(i) for i in bad[0])
        raise NonFiniteValueError(
            f"non-finite component at index {idx} of field evaluated at {p.coords}"
        )
    return out if shape else out[()]


def _check_stack(fld, stack: PointStack) -> None:
    if stack.dim != fld.dim:
        raise DimensionMismatchError(
            f"points of dimension {stack.dim} fed to a field on a {fld.dim}-dimensional chart"
        )


def _stacked(raw, shape: tuple, count: int, leaf) -> np.ndarray:
    """Components of a closure's nested output as one (P, *shape) array."""
    out = np.empty((count,) + shape, dtype=float)
    for idx in np.ndindex(shape):
        out[(slice(None),) + idx] = leaf(_component(raw, idx))
    return out


def evaluate_stack(fld, stack: PointStack) -> np.ndarray:
    """``evaluate`` at every point of a stack in one closure call.

    Returns an array of shape (P, *fld.shape); a non-finite component
    raises :class:`NonFiniteValueError` for the first such point, as
    ``evaluate`` would there.
    """
    _check_stack(fld, stack)
    with np.errstate(all="ignore"):
        out = _stacked(fld.func(list(stack.columns)), fld.shape, len(stack), lambda c: c)
    bad = ~np.isfinite(out)
    stack.reject(bad.any(axis=tuple(range(1, bad.ndim))), NonFiniteValueError, lambda i, at: (
        f"non-finite component at index {tuple(int(k) for k in np.argwhere(bad[i])[0])} "
        f"of field evaluated at {at}"))
    return out


def jet_stack(fld, stack: PointStack) -> Jet:
    """First-order ``jet`` at every point of a stack in one dual pass.

    ``value`` has shape (P, *fld.shape) and ``partials`` (P, dim,
    *fld.shape), with ``partials[p, k]`` the derivative along coordinate k.
    """
    _check_stack(fld, stack)
    d, shape, count = fld.dim, fld.shape, len(stack)
    coords = seed(stack.columns)
    with np.errstate(all="ignore"):
        raw = fld.func(coords)
        value = _stacked(raw, shape, count, value_part)
        partials = np.empty((count, d) + shape, dtype=float)
        for k in range(d):
            partials[:, k] = _stacked(raw, shape, count, lambda c: grad_part(c, d)[k])
    finite = (np.isfinite(value).all(axis=tuple(range(1, value.ndim)))
              & np.isfinite(partials).all(axis=tuple(range(1, partials.ndim))))
    stack.reject(~finite, NonFiniteValueError, lambda i, at: f"non-finite jet of field at {at}")
    return Jet(value=value, partials=partials)


def jet(fld, p: Point) -> Jet:
    """Value and first partials at a point by dual-number propagation."""
    _check_point(fld, p)
    d = p.dim
    raw = fld.func(seed(list(p.coords)))
    shape = fld.shape
    value = np.empty(shape, dtype=float)
    partials = np.zeros((d,) + shape, dtype=float)
    for idx in np.ndindex(shape):
        comp = _component(raw, idx)
        value[idx] = real_part(comp)
        for k, g in enumerate(grad_part(comp, d)):
            partials[(k,) + idx] = float(g)
    if not np.isfinite(value).all() or not np.isfinite(partials).all():
        raise NonFiniteValueError(f"non-finite jet of field at {p.coords}")
    return Jet(value=value, partials=partials)


def fd_derivative(fld, p: Point, step: float = DEFAULT_FD_STEP) -> Jet:
    """Central-difference first partials; the independent oracle for ``jet``."""
    if step <= 0:
        raise ValueError("finite-difference step must be positive")
    _check_point(fld, p)
    value = evaluate(fld, p)
    shape = fld.shape
    partials = np.zeros((p.dim,) + shape, dtype=float)
    for k in range(p.dim):
        try:
            plus = evaluate(fld, p.shifted(k, step))
            minus = evaluate(fld, p.shifted(k, -step))
        except (ArithmeticError, ValueError) as exc:
            raise EvaluationError(
                f"finite-difference stencil failed near {p.coords} along coordinate {k}: {exc}"
            ) from exc
        partials[k] = (plus - minus) / (2.0 * step)
    return Jet(value=value, partials=partials)
