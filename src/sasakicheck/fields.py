"""Point stacks, fields on coordinate charts, and their jets.

Fields are closures over chart coordinates, not symbolic trees: a
component function receives a list of coordinate values and returns
nested lists (or a scalar) of components.  Differentiation happens by
feeding seeded :class:`~sasakicheck.dual.Dual` numbers through the same
closure; central finite differences (:func:`fd_derivative`) provide an
independent second route for cross checking.

A :class:`PointStack` of (P, dim) rows is the engine's one point format:
the sampler returns one, every layer takes one, and one point is a
stack of one row.  Component functions are elementwise.
:func:`evaluate` and :func:`jet` call the closure once for a whole
stack: each coordinate is a numpy column of shape (P,), or a dual seeded
on those columns, and each component comes back as such a column or as
a constant, which is broadcast to (P,).  Results carry the point axis
first.  An overflowing product inside a closure gives a non-finite
component, which is reported naming the first offending point by its
coordinate tuple; on a stack of plain columns a division by zero does
the same instead of raising ``ZeroDivisionError``.
``dual.exp`` applies ``math.exp`` to every entry of an array, so its
bits and its ``OverflowError`` are those of each point alone.  The
embedding map goes through the same contract: the frame layer
(:mod:`sasakicheck.hypersurface`) seeds the chart columns twice and
reads every image, Jacobian and Hessian from one nested dual pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dual import grad_part, seed, value_part
from .errors import DimensionMismatchError, EvaluationError, NonFiniteValueError

DEFAULT_FD_STEP = 1e-5


class PointStack:
    """P points of one chart, with each coordinate as a contiguous (P,) column.

    Built once from (P, dim) rows and shared by every field evaluated on
    the same points; ``coords`` holds those rows.  The rows must be
    finite: a non-finite coordinate raises :class:`NonFiniteValueError`
    naming the first such row, and rows that do not form a 2-D array
    (uneven rows among them) raise :class:`DimensionMismatchError`.
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
class TensorField:
    """Tensor field of valence (r, s); ``func(coords)`` returns an array
    of shape (dim,) * (r + s) as nested lists.  A scalar field has valence
    (0, 0), shape () and returns one number."""

    valence: tuple
    dim: int
    func: Callable

    @property
    def shape(self) -> tuple:
        return (self.dim,) * (self.valence[0] + self.valence[1])


@dataclass(frozen=True)
class Jet:
    """Field components at P points together with coordinate derivatives.

    ``value[p]`` is the component array at point p and ``partials[p, k]``
    its partial derivative along coordinate k.
    """

    value: np.ndarray
    partials: np.ndarray


def _component(nested, idx):
    out = nested
    for i in idx:
        out = out[i]
    return out


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


def evaluate(fld, stack: PointStack) -> np.ndarray:
    """Float components at every point of a stack, in one closure call.

    Returns an array of shape (P, *fld.shape); a non-finite component
    raises :class:`NonFiniteValueError` naming the first such point and
    its first offending component.
    """
    _check_stack(fld, stack)
    with np.errstate(all="ignore"):
        out = _stacked(fld.func(list(stack.columns)), fld.shape, len(stack), lambda c: c)
    bad = ~np.isfinite(out)
    stack.reject(bad.any(axis=tuple(range(1, bad.ndim))), NonFiniteValueError, lambda i, at: (
        f"non-finite component at index {tuple(int(k) for k in np.argwhere(bad[i])[0])} "
        f"of field evaluated at {at}"))
    return out


def jet(fld, stack: PointStack) -> Jet:
    """Values and first partials at every point of a stack, in one dual pass.

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




# what a closure raises on a bad input, and what ``evaluate`` raises on its output
_STENCIL_FAILURES = (ArithmeticError, ValueError, NonFiniteValueError, EvaluationError)


def fd_derivative(fld, stack: PointStack, step: float = DEFAULT_FD_STEP) -> Jet:
    """Central-difference first partials at every point of a stack; the
    independent oracle for ``jet``.

    The 2 * dim shifted copies of every row are one ``evaluate``.  Any
    failure on the stencil (an ``ArithmeticError`` or ``ValueError`` of the
    closure, or a non-finite component) raises :class:`EvaluationError`
    naming the first base point and coordinate k whose stencil fails alone.
    """
    if step <= 0:
        raise ValueError("finite-difference step must be positive")
    value = evaluate(fld, stack)
    d = stack.dim
    # rows[p, k] is point p shifted by +step, then by -step, along coordinate k
    rows = stack.coords[:, None, None, :] + np.stack([np.eye(d) * step, np.eye(d) * -step], 1)
    try:
        out = evaluate(fld, PointStack(rows.reshape(-1, d)))
    except _STENCIL_FAILURES as exc:
        failure, near = exc, f"a stack of {len(stack)} points"
        for p, k in np.ndindex(rows.shape[:2]):
            try:
                evaluate(fld, PointStack(rows[p, k]))
            except _STENCIL_FAILURES as alone:
                failure, near = alone, f"{tuple(stack.coords[p].tolist())} along coordinate {k}"
                break
        raise EvaluationError(
            f"finite-difference stencil failed near {near}: {failure}") from failure
    out = out.reshape(rows.shape[:3] + fld.shape)
    return Jet(value=value, partials=(out[:, :, 0] - out[:, :, 1]) / (2.0 * step))
