"""Small dense linear algebra on stacks of P points.

Arrays carry the point axis first.  :func:`check_condition` rejects
ill-conditioned frames and :func:`check_rank` rank-deficient Jacobians
before the engine decomposes against them (the solves themselves are
``numpy.linalg``, which solves each matrix of a stack as it would solve
it alone).  Both first try a determinant certificate
(:func:`singular_value_bounds`; Higham, *Accuracy and Stability of
Numerical Algorithms*, chs. 9 and 14): for a (d, m) matrix M with d >= m,

    sigma_min(M) >= s = sqrt(det(M^T M)) / ||M||_F^(m-1),
    cond_2(M) <= ||M||_F / s,

so for a square A, cond_2(A) <= ||A||_F^d / |det A|.  A point clears
only with the margin ``CERTIFICATE_MARGIN``: a condition bound at most
1e-4 times the limit, a singular value bound at least 1e4 times the
floor.  Every other point goes through ``np.linalg.cond`` or
``np.linalg.svd``, which decide its verdict, and every condition number
and singular value an error prints comes from them.
:func:`pair`, :func:`bilinear` and :func:`worst` are a stacked dot
product, bilinear form and residual maximum whose bits do not depend on P.
The names :func:`solve_columns` and :func:`det` are kept only as
stubs: the benchmark's tracer (``perfbench/tracing.py``) wraps them by
name.
"""

from __future__ import annotations

import numpy as np

from .errors import IllConditionedFrameError, RankDeficientError

# a bound clears a point only this far inside its limit or above its floor
CERTIFICATE_MARGIN = 1e4
# det(M^T M) rounds relative to ||M||_F^2, so a tall M's bound is trusted only
# while it certifies cond_2(M) <= 1e6, i.e. cond(M^T M) <= 1e12
GRAM_CONDITION_CAP = 1e6


def solve_columns(A, rhs_columns):
    """Removed dual-number elimination; the name stays because the tracer looks it up."""
    raise NotImplementedError("linalg.solve_columns was removed; use numpy.linalg.solve")


def det(A):
    """Removed dual-number determinant; the name stays because the tracer looks it up."""
    raise NotImplementedError("linalg.det was removed; use numpy.linalg.det")


def singular_value_bounds(mats: np.ndarray) -> tuple:
    """Certified (P,) bounds for a (P, d, m) stack, d >= m: a lower bound
    s = sqrt(det(M^T M)) / ||M||_F^(m-1) on each smallest singular value
    (|det M| / ||M||_F^(d-1) for square M) and the upper bound ||M||_F / s
    on each 2-norm condition number.

    Both read NaN where the determinant overflows, and NaN or inf where
    the data or the bound do, so no comparison clears such a point; no
    numpy warning escapes.
    """
    m = mats.shape[-1]
    with np.errstate(all="ignore"):
        fro = np.sqrt(np.sum(mats * mats, axis=(-2, -1)))
        if mats.shape[-2] == m:
            vol = np.abs(np.linalg.det(mats))
        else:
            vol = np.sqrt(np.linalg.det(mats.mT @ mats))
        low = np.where(np.isfinite(vol), vol / fro ** (m - 1), np.nan)
        return low, fro / low


def check_condition(mats: np.ndarray, stack, limit: float, what: str) -> None:
    """Reject a (P, d, d) stack where some matrix has a condition number
    over ``limit``, naming the first such point of the point ``stack``.

    A point whose bound ||A||_F^d / |det A| is at most
    ``limit / CERTIFICATE_MARGIN`` passes; ``np.linalg.cond`` decides the
    rest, and its value is the one the error prints.
    """
    c = np.zeros(len(mats))
    doubt = ~(singular_value_bounds(mats)[1] <= limit / CERTIFICATE_MARGIN)
    if doubt.any():
        c[doubt] = np.linalg.cond(mats[doubt])
    stack.reject(~(c <= limit), IllConditionedFrameError, lambda i, at: (
        f"{what} condition number {c[i]:.3e} exceeds {limit:.1e} at {at}"))


def check_rank(mats: np.ndarray, stack, floor: float, what: str) -> None:
    """Reject a (P, d, m) stack, d >= m, where some matrix has its smallest
    singular value at or below ``floor``, naming the first such point.

    A point whose bound sqrt(det(M^T M)) / ||M||_F^(m-1) is at least
    ``floor * CERTIFICATE_MARGIN``, with a certified condition number of
    at most ``GRAM_CONDITION_CAP``, passes; ``np.linalg.svd`` decides the
    rest, and its value is the one the error prints.
    """
    sv = np.full(len(mats), np.inf)
    low, cond = singular_value_bounds(mats)
    doubt = ~((low >= floor * CERTIFICATE_MARGIN) & (cond <= GRAM_CONDITION_CAP))
    if doubt.any():
        sv[doubt] = np.linalg.svd(mats[doubt], compute_uv=False)[:, -1]
    stack.reject(sv <= floor, RankDeficientError, lambda i, at: (
        f"{what} has smallest singular value {sv[i]:.3e} at {at}"))


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
