"""Small dense linear algebra on stacks of P points.

Arrays carry the point axis first.  :func:`check_condition` rejects
ill-conditioned frames before the engine decomposes against them (the
solves themselves are ``numpy.linalg``, which solves each matrix of a
stack as it would solve it alone).  :func:`pair`, :func:`bilinear` and
:func:`worst` are a stacked dot product, bilinear form and residual
maximum whose bits do not depend on P.
The names :func:`solve_columns` and :func:`det` are kept only as
stubs: the benchmark's tracer (``perfbench/tracing.py``) wraps them by
name.
"""

from __future__ import annotations

import numpy as np

from .errors import IllConditionedFrameError


def solve_columns(A, rhs_columns):
    """Removed dual-number elimination; the name stays because the tracer looks it up."""
    raise NotImplementedError("linalg.solve_columns was removed; use numpy.linalg.solve")


def det(A):
    """Removed dual-number determinant; the name stays because the tracer looks it up."""
    raise NotImplementedError("linalg.det was removed; use numpy.linalg.det")


def check_condition(mats: np.ndarray, stack, limit: float = 1e12, what: str = "frame") -> None:
    """Reject a (P, d, d) stack where some matrix has a condition number
    over ``limit``, naming the first such point of the point ``stack``."""
    c = np.linalg.cond(mats)
    stack.reject(~(c <= limit), IllConditionedFrameError, lambda i, at: (
        f"{what} condition number {c[i]:.3e} exceeds {limit:.1e} at {at}"))


def pair(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X[p] @ Y[p] at every point, as shape (P,); further leading axes broadcast.

    Products on stacks keep explicit singleton axes, (P, 1, d) @ (P, d, 1)
    here, so each point runs the same BLAS call as its one-point ``@``
    and the bits do not depend on P.
    """
    return (X[..., None, :] @ Y[..., :, None])[..., 0, 0]


def bilinear(y: np.ndarray, M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``y[r]^i M[r]_ia x[r]^a`` for every row of (R, d) and (R, d, d) stacks.

    Summed flat, ``i`` outer and ``a`` inner, one elementwise multiply and
    add per term: numpy ufuncs do not fuse them, so each row has the bits
    of the scalar loop ``total += y[i] * M[i, a] * x[a]``, which ``einsum``
    and ``@`` do not promise and the goldens pin.
    """
    total = np.zeros(len(y))
    for i in range(M.shape[1]):
        for a in range(M.shape[2]):
            total = total + y[:, i] * M[:, i, a] * x[:, a]
    return total


def worst(residual: np.ndarray) -> float:
    """Largest entry of a (P, ...) residual stack, as a running
    ``max(res, float(np.max(...)))`` over the points would give it:
    a point whose own maximum is NaN is passed over."""
    per_point = np.max(residual, axis=tuple(range(1, residual.ndim)))
    return float(np.fmax.reduce(per_point, initial=0.0))
