"""Small dense linear algebra.

:func:`check_condition` rejects ill-conditioned frames before the engine
decomposes against them (the solves themselves are ``numpy.linalg``).
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


def check_condition(mat_float, limit: float = 1e12, what: str = "frame"):
    """Reject float matrices whose condition number exceeds ``limit``."""
    c = np.linalg.cond(np.asarray(mat_float, dtype=float))
    if not np.isfinite(c) or c > limit:
        raise IllConditionedFrameError(
            f"{what} condition number {c:.3e} exceeds {limit:.1e}"
        )
    return float(c)
