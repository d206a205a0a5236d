"""Structure extraction, sample states and Gauss-Weingarten checks do not
depend on how chart points are grouped.

Run on a whole point list, ``extract_structure`` and ``sample_states``
must give, bit for bit, the data the same calls give on one-row stacks: every array of every point of the extracted structure record and
of the sample-state record, and the report maxima; so must the
reconstruction and h-symmetry maxima of a Gauss-Weingarten record.  A
degenerate surface must raise the same error as it does point by point,
naming the first offending sample.
"""

import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

from sasakicheck import (
    Embedding,
    NormalField,
    PointStack,
    TensorField,
    extract_structure,
    frame_stack,
    gauss_weingarten,
    make_pointwise_model,
)
from sasakicheck.errors import (
    EvaluationError,
    IllConditionedFrameError,
    NonFiniteValueError,
    RankDeficientError,
)
from sasakicheck.hypersurface import reconstruction_residuals, second_fundamental_symmetry
from sasakicheck.sampling import sample_points, sample_vectors

from conftest import SURFACES, row, states_at, surface_normal

GW_ARRAYS = ("induced_gamma", "h", "H_w", "H_h", "w", "D", "DN")
STATE_ARRAYS = ("dirs", "covphi", "covu", "covv", "covU", "covV")


def _samples(dim, count, seed):
    rng = np.random.default_rng(seed)
    return sample_points(dim, count, (-1.0, 1.0), rng), sample_vectors(dim, 10, rng)


def _same(a, b):
    """Exact equality of two values: arrays by shape and entries, None with None."""
    if a is None or b is None:
        return a is None and b is None
    return np.shape(a) == np.shape(b) and np.array_equal(a, b)


def _assert_same_bundle(a, b, where):
    for f in fields(a):
        assert _same(getattr(a, f.name), getattr(b, f.name)), (where, f.name)


@pytest.mark.parametrize("count", [8, 50, 400])
@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_extraction_equals_single_point_extractions(surface, count):
    N = surface_normal(SURFACES[surface])
    pts, _ = _samples(N.embedding.dim, count, seed=count + 3)
    whole = extract_structure(frame_stack(N, pts))
    singles = [extract_structure(frame_stack(N, PointStack([p]))) for p in pts.coords]
    for key in ("max_u", "tangency_residual", "lambda_consistency"):
        assert getattr(whole, key) == max(getattr(s, key) for s in singles), key
    assert len(whole.stack.lam) == count
    for i, (p, single) in enumerate(zip(pts.coords, singles)):
        _assert_same_bundle(row(whole.stack, i), row(single.stack, 0), p)


@pytest.mark.parametrize("count", [8, 50, 400])
@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_sample_states_equal_single_point_states(surface, count):
    N = surface_normal(SURFACES[surface])
    pts, dirs = _samples(N.embedding.dim, count, seed=count + 5)
    whole = states_at(N, pts, dirs)
    assert len(whole.dirs) == count
    for i, p in enumerate(pts.coords):
        st, one = row(whole, i), row(states_at(N, PointStack([p]), dirs), 0)
        _assert_same_bundle(st.bundle, one.bundle, p)
        for key in GW_ARRAYS:
            assert _same(getattr(st.gw, key), getattr(one.gw, key)), (p, key)
        for key in STATE_ARRAYS:
            assert _same(getattr(st, key), getattr(one, key)), (p, key)


@pytest.mark.parametrize("count", [8, 50])
@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_stacked_reconstruction_equals_single_point_stacks(surface, count):
    N = surface_normal(SURFACES[surface])
    pts, _ = _samples(N.embedding.dim, count, seed=count + 7)
    whole_fs = frame_stack(N, pts, partials=True)
    single_fs = [frame_stack(N, PointStack([p]), partials=True) for p in pts.coords]
    whole = gauss_weingarten(whole_fs)
    singles = [gauss_weingarten(fs) for fs in single_fs]
    assert all(getattr(whole, f.name).flags.c_contiguous for f in fields(whole))
    for i, fs in enumerate(single_fs):
        for key in ("jacobian", "normal"):
            assert _same(getattr(whole_fs, key)[i], getattr(fs, key)[0]), (i, key)
    rec = reconstruction_residuals(whole_fs, whole)
    for key in ("gauss", "weingarten"):
        assert rec[key] == max(reconstruction_residuals(fs, s)[key]
                               for fs, s in zip(single_fs, singles)), key
    assert second_fundamental_symmetry(whole) == max(
        second_fundamental_symmetry(s) for s in singles)


@pytest.mark.parametrize("surface", ["plane_r3", "plane_r5"])
def test_records_are_plain_stacks(surface):
    """Every record is a plain stack of arrays: counting, indexing or
    walking it raises TypeError; its points are read from its arrays."""
    N = surface_normal(SURFACES[surface])
    pts, dirs = _samples(N.embedding.dim, 3, seed=13)
    states = states_at(N, pts, dirs)
    models = make_pointwise_model(N.embedding.dim // 2, np.array([0.2, 0.5, 0.7]),
                                  np.random.default_rng(13))
    for record in (states, states.bundle, states.gw, models):
        for use in (len, lambda r: r[0], lambda r: r[:1], iter):
            with pytest.raises(TypeError):
                use(record)


def _points(replaced):
    """Seeded chart points in (0.5, 1)^2 with some entries replaced."""
    rows = sample_points(2, 10, (0.5, 1.0), np.random.default_rng(41)).coords.copy()
    for i, coords in replaced.items():
        rows[i] = coords
    return PointStack(rows)


def _raises_naming_first(error, N, pts, first, second):
    """Extraction and the Gauss-Weingarten stack both raise ``error``
    naming ``first``, not ``second``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (lambda: extract_structure(frame_stack(N, pts)),
                      lambda: gauss_weingarten(frame_stack(N, pts, partials=True))):
            with pytest.raises(error) as info:
                build()
            assert re.search(first, str(info.value)), str(info.value)
            assert not re.search(second, str(info.value)), str(info.value)


def test_rank_deficient_jacobian_names_first_bad_point(sasaki3):
    # d/ds of ((s - 0.25)(s - 0.75))^2 vanishes at s = 0.25 and s = 0.75 (and 0.5)
    E = Embedding(2, sasaki3, lambda c: [((c[0] - 0.25) * (c[0] - 0.75)) ** 2, c[1], 0.1])
    pts = _points({4: [0.25, 0.625], 7: [0.75, 0.875]})
    _raises_naming_first(RankDeficientError, NormalField(E), pts,
                         re.escape(str((0.25, 0.625))), re.escape("0.875"))


def test_nonpositive_scaling_names_first_bad_point(quadric_r3):
    # rho vanishes at s = 0.625 and s = 0.875 and is positive elsewhere
    rho = TensorField((0, 0), 2, lambda c: ((c[0] - 0.625) * (c[0] - 0.875)) ** 2)
    pts = _points({2: [0.625, 0.5625], 8: [0.875, 0.9375]})
    _raises_naming_first(EvaluationError, NormalField(quadric_r3, rho), pts,
                         re.escape(str([0.625, 0.5625])), re.escape("0.9375"))


def _blowup(x):
    """1 + (x/4)^4096 by repeated squaring: exactly 1 for |x| <= 1, and a
    multiplication overflow to inf for |x| >= 5."""
    s = 0.25 * x
    for _ in range(12):
        s = s * s
    return 1.0 + s


def test_non_finite_map_value_names_first_bad_point(sasaki3):
    E = Embedding(2, sasaki3, lambda c: [c[0], c[1], 0.1 * _blowup(c[0])])
    pts = _points({3: [5.0, 0.6875], 6: [-6.0, 0.8125]})
    _raises_naming_first(NonFiniteValueError, NormalField(E), pts,
                         r"5\.0, 0\.6875", "0.8125")


def test_ill_conditioned_frame_names_first_bad_point(sasaki3):
    # B's second column shrinks to about 1e-7 where s = 0.625 or s = 0.875,
    # and a large constant scaling puts the frame's condition number over
    # the limit there only
    E = Embedding(2, sasaki3, lambda c: [
        c[0], c[1] * (((c[0] - 0.625) * (c[0] - 0.875)) ** 2 + 1e-7), 0.1])
    rho = TensorField((0, 0), 2, lambda c: 1e6)
    pts = _points({5: [0.625, 0.5625], 9: [0.875, 0.9375]})
    _raises_naming_first(IllConditionedFrameError, NormalField(E, rho), pts,
                         re.escape(str((0.625, 0.5625))), re.escape("0.9375"))
