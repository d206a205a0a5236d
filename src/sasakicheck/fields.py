"""Points, fields on coordinate charts, and their jets.

Fields are closures over chart coordinates, not symbolic trees: a
component function receives a list of coordinate values (floats or
:class:`~sasakicheck.dual.Dual` numbers) and returns nested lists (or a
scalar) of components.  Differentiation happens by feeding seeded duals
through the same closure; central finite differences provide an
independent second route for cross checking.

Component functions are elementwise.  :func:`evaluate_stack` and
:func:`jet_stack` call the closure once for a whole :class:`PointStack`
of P points: each coordinate is a numpy column of shape (P,), or a dual
seeded on those columns, and each component comes back as such a
column or as a constant, which is broadcast to (P,).  Results carry the
point axis first.  An overflowing product inside a closure gives a
non-finite component, on a stack as on Python floats, and is reported
naming the first offending point; on a stack of plain columns a
division by zero does the same instead of raising ``ZeroDivisionError``.
``dual.exp`` applies ``math.exp`` to every entry of an array, so its
bits and its ``OverflowError`` are those of each point alone.  The
embedding map goes through the same contract: the frame layer
(:mod:`sasakicheck.hypersurface`) seeds the chart columns twice and
reads every image, Jacobian and Hessian from one nested dual pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

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

    Built once and shared by every field evaluated on the same points.
    ``coords`` holds the points as (P, dim) rows.  A stack made by
    :meth:`of_rows` builds its :class:`Point` objects only when
    ``points`` is read.
    """

    def __init__(self, points: Sequence[Point], dim: int):
        for p in points:
            if p.dim != dim:
                raise DimensionMismatchError(
                    f"point of dimension {p.dim} in a stack of {dim}-dimensional points"
                )
        self._points = list(points)
        self.dim = dim
        self.coords = np.array([p.coords for p in points], dtype=float).reshape(len(points), dim)
        self.columns = list(np.ascontiguousarray(self.coords.T))

    @classmethod
    def of_rows(cls, coords: np.ndarray) -> "PointStack":
        """A stack of the finite (P, dim) rows of ``coords``."""
        stack = cls.__new__(cls)
        stack._points = None
        stack.dim = coords.shape[1]
        stack.coords = coords
        stack.columns = list(np.ascontiguousarray(coords.T))
        return stack

    @property
    def points(self) -> list:
        if self._points is None:
            self._points = [Point(row) for row in self.coords]
        return self._points

    def __len__(self) -> int:
        return len(self.coords)

    def reject(self, bad: np.ndarray, error: type, describe: Callable) -> None:
        """Raise ``error(describe(i, point))`` for the first point i where the
        (P,) mask ``bad`` is set."""
        hits = np.flatnonzero(bad)
        if hits.size:
            i = int(hits[0])
            raise error(describe(i, self.points[i]))


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
    bad = np.argwhere(~np.isfinite(out))
    if bad.size:
        i, idx = int(bad[0][0]), tuple(int(k) for k in bad[0][1:])
        raise NonFiniteValueError(
            f"non-finite component at index {idx} of field evaluated at {stack.points[i].coords}"
        )
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
    stack.reject(~finite, NonFiniteValueError, lambda i, p: f"non-finite jet of field at {p.coords}")
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


def constant_field(valence: tuple, dim: int, components) -> TensorField:
    comps = np.asarray(components, dtype=float)
    nested = comps.tolist()
    return TensorField(valence, dim, lambda c: nested)


def constant_vector_field(dim: int, vec) -> TensorField:
    return constant_field((1, 0), dim, vec)

