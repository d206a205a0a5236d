"""Small dense linear algebra on stacks of P points.

Arrays carry the point axis first.  :func:`check_condition` rejects
ill-conditioned frames before the engine decomposes against them (the
solves themselves are ``numpy.linalg``, which solves each matrix of a
stack as it would solve it alone).  :func:`pair`, :func:`bilinear` and
:func:`worst` are a stacked dot product, bilinear form and residual
maximum whose bits do not depend on P.
:func:`solve_columns` and :func:`det` are Gaussian elimination on nested
lists that also carries dual numbers; the engine no longer calls them,
and they stay because the benchmark's tracer (``perfbench/tracing.py``)
wraps them by name.
"""

from __future__ import annotations

import numpy as np

from .dual import real_part
from .errors import IllConditionedFrameError, SingularMetricError

_PIVOT_RTOL = 1e-15


def _pivot_scale(A):
    return max((abs(real_part(a)) for row in A for a in row), default=0.0)


def solve_columns(A, rhs_columns):
    """Solve A x = b for every column b in ``rhs_columns``.

    One elimination pass shared by all right-hand sides.  Raises
    :class:`SingularMetricError` when a pivot collapses relative to the
    matrix scale.
    """
    n = len(A)
    m = len(rhs_columns)
    aug = [list(A[i]) + [rhs_columns[j][i] for j in range(m)] for i in range(n)]
    scale = _pivot_scale(A)
    if scale == 0.0:
        raise SingularMetricError("zero matrix in linear solve")
    tol = _PIVOT_RTOL * scale
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(real_part(aug[r][col])))
        if abs(real_part(aug[piv][col])) <= tol:
            raise SingularMetricError(
                f"singular linear system (pivot {real_part(aug[piv][col]):.3e} "
                f"relative to scale {scale:.3e})"
            )
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        inv_p = 1.0 / aug[col][col] if not hasattr(aug[col][col], "grad") else None
        for r in range(col + 1, n):
            f = aug[r][col] / aug[col][col] if inv_p is None else aug[r][col] * inv_p
            if real_part(f) == 0.0 and not hasattr(f, "grad"):
                continue
            for c in range(col, n + m):
                aug[r][c] = aug[r][c] - f * aug[col][c]
    xs = [[0.0] * n for _ in range(m)]
    for j in range(m):
        for i in range(n - 1, -1, -1):
            acc = aug[i][n + j]
            for c in range(i + 1, n):
                acc = acc - aug[i][c] * xs[j][c]
            xs[j][i] = acc / aug[i][i]
    return xs


def det(A):
    n = len(A)
    rows = [list(r) for r in A]
    scale = _pivot_scale(A)
    if scale == 0.0:
        return 0.0
    tol = _PIVOT_RTOL * scale
    sign = 1.0
    out = 1.0
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(real_part(rows[r][col])))
        if abs(real_part(rows[piv][col])) <= tol:
            return 0.0 * rows[piv][col]
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        out = out * rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col] / rows[col][col]
            for c in range(col, n):
                rows[r][c] = rows[r][c] - f * rows[col][c]
    return sign * out


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
