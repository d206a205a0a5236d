"""The frame checks' determinant certificate changes no verdict and no error text.

``linalg.check_condition`` and ``linalg.check_rank`` clear a point from
determinant bounds and run the SVD only on the rest.  The SVD-only
checks they replaced stay here as the oracle: on every drawn stack both
versions pass, or both raise the same error with the same message (which
names the first failing point).  The drawn stacks scale one column of
each matrix by 10^k, so they cross the clearing margins and the limits,
and they reach inf and NaN.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sasakicheck import linalg
from sasakicheck.config import load_suite_config
from sasakicheck.errors import IllConditionedFrameError, RankDeficientError
from sasakicheck.fields import PointStack
from sasakicheck.hypersurface import FRAME_CONDITION_LIMIT, MIN_SINGULAR_VALUE
from sasakicheck.runner import run_suite

from conftest import REPO


def svd_check_condition(mats, stack, limit, what):
    c = np.linalg.cond(mats)
    stack.reject(~(c <= limit), IllConditionedFrameError, lambda i, at: (
        f"{what} condition number {c[i]:.3e} exceeds {limit:.1e} at {at}"))


def svd_check_rank(mats, stack, floor, what):
    sv = np.linalg.svd(mats, compute_uv=False)
    stack.reject(sv[:, -1] <= floor, RankDeficientError, lambda i, at: (
        f"{what} has smallest singular value {sv[i, -1]:.3e} at {at}"))


def outcome(check, *args):
    try:
        check(*args)
    except Exception as exc:  # the oracle's own LinAlgError on NaN data included
        return type(exc), str(exc)
    return "pass"


def assert_same_outcome(new, old, mats, bound, what):
    stack = PointStack(np.arange(len(mats), dtype=float)[:, None])
    want = outcome(old, mats, stack, bound, what)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = outcome(new, mats, stack, bound, what)
    assert [str(w.message) for w in caught] == []
    assert got == want
    return got


@st.composite
def scaled_stacks(draw):
    """A (P, d, d) stack with column j of each matrix scaled by 10^k, one k a
    point; a zeroed entry turns an overflowed column's 0 * inf into NaN."""
    d = draw(st.integers(2, 5))
    count = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = rng.standard_normal((count, d, d))
    j = draw(st.integers(0, d - 1))
    for p in range(count):
        if draw(st.booleans()):
            mats[p, 0, j] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            mats[p, :, j] *= np.power(10.0, draw(st.integers(-14, 320)))
    return mats


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(scaled_stacks())
def test_certified_checks_match_the_svd_checks(mats):
    assert_same_outcome(linalg.check_condition, svd_check_condition, mats,
                        FRAME_CONDITION_LIMIT, "frame")
    assert_same_outcome(linalg.check_rank, svd_check_rank, mats[..., :-1],
                        MIN_SINGULAR_VALUE, "Jacobian")


def test_rank_check_does_not_trust_a_gram_determinant_made_of_rounding():
    # Near-parallel columns of size 1e5: det(B^T B) is rounding noise of
    # order u * ||B||_F^4, so the bound alone would clear points whose
    # smallest singular value is about 6e-10; the condition cap sends them
    # to the SVD.
    rng = np.random.default_rng(0)
    b1 = 1e5 * rng.standard_normal((40, 3))
    perp = np.cross(b1, rng.standard_normal((40, 3)))
    perp /= np.linalg.norm(perp, axis=1)[:, None]
    b2 = b1 * (1 + 0.3 * rng.standard_normal((40, 1))) + 1e-9 * perp
    B = np.stack([b1, b2], axis=2)
    low, _ = linalg.singular_value_bounds(B)
    fooled = low >= MIN_SINGULAR_VALUE * linalg.CERTIFICATE_MARGIN
    assert fooled.any()
    for p in np.flatnonzero(fooled):
        got = assert_same_outcome(linalg.check_rank, svd_check_rank, B[p:p + 1],
                                  MIN_SINGULAR_VALUE, "Jacobian")
        assert got[0] is RankDeficientError


@pytest.mark.parametrize("check,oracle,mats,bound,error", [
    # det A = 1e310 overflows while ||A||_F^2 does not: cond_2(A) = 1e140
    (linalg.check_condition, svd_check_condition, np.diag([1e150, 1e150, 1e10])[None],
     FRAME_CONDITION_LIMIT, IllConditionedFrameError),
    # det(B^T B) = 1e580 overflows while ||B||_F^2 does not: sigma_min(B) = 1e-10
    (linalg.check_rank, svd_check_rank, np.eye(4, 3)[None] * [1e150, 1e150, 1e-10],
     MIN_SINGULAR_VALUE, RankDeficientError),
], ids=["condition", "rank"])
def test_overflowed_determinant_never_clears(check, oracle, mats, bound, error):
    got = assert_same_outcome(check, oracle, mats, bound, "matrix")
    assert got[0] is error


@pytest.mark.parametrize("name", ["plane_r3", "quadric_r3", "plane_r5", "quadric_r3_scaled"])
def test_shipped_report_runs_one_svd(monkeypatch, name):
    # the one SVD left is the axiom battery's (1.3c) rank check, which
    # prints its smallest singular value; every frame point clears
    calls = {"svd": 0, "cond": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counted(np.linalg.svd, "svd"))
    monkeypatch.setattr(np.linalg, "cond", counted(np.linalg.cond, "cond"))
    run_suite(load_suite_config(REPO / "configs" / f"{name}.cfg"))
    assert calls == {"svd": 1, "cond": 0}
