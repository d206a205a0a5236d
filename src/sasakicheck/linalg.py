"""Small dense linear algebra that works on floats and dual numbers.

Everything here operates on nested lists so that dual numbers flow
through unchanged; chart dimensions never exceed a handful, so plain
Gaussian elimination with partial pivoting (on real parts) is plenty.
"""

from __future__ import annotations

from .dual import real_part
from .errors import IllConditionedFrameError, SingularMetricError

_PIVOT_RTOL = 1e-15


def matvec(A, x):
    return [sum(A[i][j] * x[j] for j in range(len(x))) for i in range(len(A))]


def dot(x, y):
    return sum(a * b for a, b in zip(x, y))


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


def solve(A, b):
    return solve_columns(A, [b])[0]


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
    import numpy as np

    c = np.linalg.cond(np.asarray(mat_float, dtype=float))
    if not np.isfinite(c) or c > limit:
        raise IllConditionedFrameError(
            f"{what} condition number {c:.3e} exceeds {limit:.1e}"
        )
    return float(c)
