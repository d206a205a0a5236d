"""The ambient axiom battery does not depend on how samples are grouped.

Run on a whole point stack, ``check_sasakian_axioms`` must return, bit
for bit, the per-key maximum of the same check run on one-row stacks,
and it must raise the same errors, naming the first offending sample.
So must its (1.8)-(1.10) two-form reduction, run on its own.  The field evaluators it stands on must give every row of a stack the
bits a one-row stack gives it, and the (1.6)/(1.7) residuals of all
direction pairs at once must match ``covariant_axiom_loops``, one einsum
per pair.
"""

import re
import warnings

import numpy as np
import pytest

from sasakicheck import (
    AlmostContactMetricStructure,
    MetricField,
    PointStack,
    ScalarField,
    TensorField,
    check_sasakian_axioms,
    dual,
    evaluate,
    fundamental_two_form,
    jet,
    sasakian,
    standard_sasakian,
)
from sasakicheck.connection import DET_FLOOR, christoffel
from sasakicheck.errors import DimensionMismatchError, NonFiniteValueError, SingularMetricError
from sasakicheck.linalg import worst
from sasakicheck.sampling import sample_points, sample_vectors
from sasakicheck.sasakian import (
    _nabla_phi_xi,
    _phi_transport_columns,
    _two_form_identities,
    _xi_transport,
)

from conftest import covariant_axiom_loops, running_max


def _samples(dim, count, seed):
    rng = np.random.default_rng(seed)
    return sample_points(dim, count, (-1.0, 1.0), rng), sample_vectors(dim, 5, rng)


def _per_key_max(dicts):
    return {k: max(d[k] for d in dicts) for k in dicts[0]}


@pytest.mark.parametrize("count", [8, 50, 400])
@pytest.mark.parametrize("n", [1, 2])
def test_axiom_residuals_equal_max_over_single_points(n, count):
    S = standard_sasakian(n)
    # at n = 2, P = 400 this draw is one where summing nabla phi from a
    # strided (non-C-contiguous) stack changes the eq 1.6 maximum
    pts, dirs = _samples(S.dim, count, seed=1004)
    whole = check_sasakian_axioms(S, pts, dirs)
    singles = [check_sasakian_axioms(S, PointStack([p]), dirs).residuals for p in pts.coords]
    assert whole.residuals == _per_key_max(singles)
    assert (whole.sample_count, whole.direction_count) == (count, 5)


@pytest.mark.parametrize("count", [8, 50, 400])
@pytest.mark.parametrize("n", [1, 2])
def test_two_form_residuals_equal_max_over_single_points(n, count):
    S = standard_sasakian(n)
    pts, dirs = _samples(S.dim, count, seed=100 * n + count + 1)
    F = fundamental_two_form(S)

    def two_form(stack):
        return _two_form_identities(evaluate(F, stack), evaluate(S.phi, stack))

    whole = two_form(pts)
    assert whole == _per_key_max([two_form(PointStack([p])) for p in pts.coords])
    # the battery reports the same (1.8)-(1.10) residuals from its shared phi
    assert whole.items() <= check_sasakian_axioms(S, pts, dirs).residuals.items()


def _with(S, **fields):
    parts = {"phi": S.phi, "xi": S.xi, "eta": S.eta, "g": S.g, **fields}
    return AlmostContactMetricStructure(S.dim, parts["phi"], parts["xi"], parts["eta"], parts["g"])


def _points_with(dim, seed, replaced):
    """Seeded points in (0.5, 1)^dim with some entries replaced."""
    rows = sample_points(dim, 10, (0.5, 1.0), np.random.default_rng(seed)).coords.copy()
    for i, coords in replaced.items():
        rows[i] = coords
    return PointStack(rows)


def _blowup(x):
    """1 + (x/4)^4096 by repeated squaring: exactly 1 for |x| <= 1, and a
    multiplication overflow to inf for |x| >= 5."""
    s = 0.25 * x
    for _ in range(12):
        s = s * s
    return 1.0 + s


@pytest.mark.parametrize("n", [1, 2])
def test_overflowing_component_names_first_bad_point(n):
    S = standard_sasakian(n)
    d = S.dim
    eta = TensorField((0, 1), d, lambda c: [e * _blowup(c[0]) for e in S.eta.func(c)])
    first = [5.0] + [0.7] * (d - 1)
    pts = _points_with(d, 3, {3: first, 6: [-6.0] + [0.6] * (d - 1)})
    _, dirs = _samples(d, 1, seed=3)
    message = f"non-finite component at index (0,) of field evaluated at {tuple(first)}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValueError, match=re.escape(message)):
            check_sasakian_axioms(_with(S, eta=eta), pts, dirs)


@pytest.mark.parametrize("n", [1, 2])
def test_degenerate_metric_names_first_singular_point(n):
    S = standard_sasakian(n)
    d = S.dim
    # the metric vanishes where x^1 = 0 and has determinant >= 0.5^(2d) / 4^(2n+1) elsewhere
    g = MetricField(TensorField(
        (0, 2), d, lambda c: [[c[0] * c[0] * x for x in row] for row in S.g.tensor.func(c)]))
    first = [0.0] + [0.8] * (d - 1)
    pts = _points_with(d, 4, {2: first, 7: [0.0] + [0.9] * (d - 1)})
    _, dirs = _samples(d, 1, seed=4)
    message = f"metric determinant below {DET_FLOOR} at {tuple(first)}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMetricError, match=re.escape(message)):
            check_sasakian_axioms(_with(S, g=g), pts, dirs)


@pytest.mark.parametrize("n", [1, 2])
def test_stacked_fields_equal_per_point_fields(n):
    S = standard_sasakian(n)
    stack, _ = _samples(S.dim, 50, seed=21)
    singles = [PointStack([p]) for p in stack.coords]
    for f in (S.phi, S.xi, S.eta, S.g.tensor, fundamental_two_form(S)):
        values = evaluate(f, stack)
        jt = jet(f, stack)
        assert values.shape == jt.value.shape == (50,) + f.shape
        assert jt.partials.shape == (50, S.dim) + f.shape
        for i, one in enumerate(singles):
            jt_one = jet(f, one)
            assert (values[i] == evaluate(f, one)[0]).all()
            # the closure on one row's Python floats
            assert (values[i] == np.array(f.func(one.coords[0].tolist()), float)).all()
            assert (jt.value[i] == jt_one.value[0]).all()
            assert (jt.partials[i] == jt_one.partials[0]).all()
    gamma = christoffel(S.g, stack)
    for i, one in enumerate(singles):
        assert (gamma[i] == christoffel(S.g, one)[0]).all()


def test_stacked_constant_and_scalar_fields_broadcast():
    stack, _ = _samples(3, 4, seed=22)
    vec = evaluate(TensorField((1, 0), 3, lambda c: [1.0, c[0], 2.0]), stack)
    np.testing.assert_array_equal(vec[:, 0], np.ones(4))
    np.testing.assert_array_equal(vec[:, 1], stack.coords[:, 0])
    jt = jet(ScalarField(3, lambda c: c[0] * c[1]), stack)
    assert jt.value.shape == (4,) and jt.partials.shape == (4, 3)
    np.testing.assert_array_equal(jt.partials[:, 2], np.zeros(4))
    np.testing.assert_array_equal(jt.partials[:, 0], stack.coords[:, 1])


def test_stack_dimensions_checked():
    for rows in (np.zeros(3), np.zeros((1, 2, 2)), [[0.0, 0.0, 0.0], [0.0, 0.0]]):
        with pytest.raises(DimensionMismatchError, match="2-D"):
            PointStack(rows)
    stack = PointStack([[0.0, 0.0]])
    with pytest.raises(DimensionMismatchError):
        evaluate(standard_sasakian(1).eta, stack)
    with pytest.raises(DimensionMismatchError):
        jet(standard_sasakian(1).eta, stack)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_stack_rows_must_be_finite(bad):
    rows = np.array([[0.5, 1.0], [0.25, bad], [np.nan, 1.0]])
    with pytest.raises(NonFiniteValueError) as one:
        PointStack(rows[1:2])
    assert str(one.value) == f"non-finite coordinate in {tuple(rows[1].tolist())}"
    # the first non-finite row, named as a stack of it alone would name it
    with pytest.raises(NonFiniteValueError, match=re.escape(str(one.value))):
        PointStack(rows)


def test_stacked_jet_names_first_non_finite_point():
    pts = PointStack([[0.5, 1.0], [5.0, 1.0], [-6.0, 1.0]])
    f = ScalarField(2, lambda c: _blowup(c[0]) * c[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValueError, match=re.escape(f"at {(5.0, 1.0)}")):
            jet(f, pts)


def test_structure_with_exp_factor_batches_like_the_standard_one(sasaki3):
    S = sasaki3
    # exp(0) = 1 on floats and on arrays, so eta is unchanged
    eta = TensorField((0, 1), 3, lambda c: [e * dual.exp(c[0] - c[0]) for e in S.eta.func(c)])
    pts, dirs = _samples(3, 50, seed=23)
    assert (check_sasakian_axioms(_with(S, eta=eta), pts, dirs).residuals
            == check_sasakian_axioms(S, pts, dirs).residuals)


def _covariant_inputs(S, pts, directions):
    """What the battery contracts (1.6) and (1.7) on: nabla phi~, nabla xi,
    phi, xi, eta and g on the stack, and the directions repeated along it
    as (K, P, d)."""
    dphi, dxi = _nabla_phi_xi(S, pts)
    phi, xi, eta, g = (evaluate(f, pts) for f in (S.phi, S.xi, S.eta, S.g.tensor))
    return dphi, dxi, phi, xi, eta, g, np.repeat(directions[:, None], len(pts), axis=1)


@pytest.mark.parametrize("K", [1, 5, 7])
@pytest.mark.parametrize("count", [1, 50, 400])
@pytest.mark.parametrize("n", [1, 2])
def test_covariant_axioms_equal_the_pair_loop_bit_for_bit(n, count, K):
    S = standard_sasakian(n)
    pts, _ = _samples(S.dim, count, seed=1004)
    directions = sample_vectors(S.dim, K, np.random.default_rng(1005))
    dphi, dxi, phi, xi, eta, g, dirs = _covariant_inputs(S, pts, directions)
    r16, r17 = covariant_axiom_loops(dphi, dxi, phi, xi, eta, g, dirs)
    # each column is overwritten by the next, so keep copies
    columns = [c.copy() for c in _phi_transport_columns(dphi, g, xi, eta, dirs)]
    assert np.stack(columns, axis=-1).tobytes() == r16.tobytes()
    assert _xi_transport(dxi, phi, dirs).tobytes() == r17.tobytes()
    res = check_sasakian_axioms(S, pts, directions).residuals
    assert res["1.6"] == running_max(worst(r) for r in r16.reshape(K * K, count, S.dim))
    assert res["1.7"] == running_max(worst(r) for r in r17)


@pytest.mark.parametrize("n", [1, 2])
def test_nan_rows_are_passed_over_pair_by_pair(n, monkeypatch):
    S = standard_sasakian(n)
    pts, directions = _samples(S.dim, 50, seed=7)
    near, nan_point, nan_dir = 17, 30, 2
    dphi, dxi, phi, xi, eta, g, dirs = _covariant_inputs(S, pts, directions)
    dphi, dxi = dphi.copy(), dxi.copy()
    # point ``near`` holds the largest residual of every pair and direction ...
    dphi[near, 0, 0, 0] += 1.0
    dxi[near, 0, 0] += 1.0
    # ... except where direction ``nan_dir`` is NaN there
    dirs[nan_dir, near, 0] = np.nan
    # every row at ``nan_point`` has a NaN component beside a larger finite one,
    # and is passed over whole
    dphi[nan_point, 0, 0, 0] = dxi[nan_point, 0, 0] = np.nan
    dphi[nan_point, 0, 1, 0] += 10.0
    dxi[nan_point, 0, 1] += 10.0
    monkeypatch.setattr(sasakian, "_nabla_phi_xi", lambda S, stack: (dphi, dxi))
    for name in ("_phi_transport_columns", "_xi_transport"):
        helper = getattr(sasakian, name)
        monkeypatch.setattr(sasakian, name, lambda *args, helper=helper: helper(*args[:-1], dirs))
    res = check_sasakian_axioms(S, pts, directions).residuals

    r16, r17 = covariant_axiom_loops(dphi, dxi, phi, xi, eta, g, dirs)
    pairs = r16.reshape(25, 50, S.dim)
    clean = [k * 5 + l for k in range(5) for l in range(5) if nan_dir not in (k, l)]
    for key, per_run, at_near in (("1.6", pairs, pairs[clean, near]),
                                  ("1.7", r17, np.delete(r17[:, near], nan_dir, axis=0))):
        want = running_max(worst(r) for r in per_run)
        # the per-run maxima skip only the NaN rows: ``near`` keeps its clean ones
        assert want == np.max(at_near) > 1e-3
        assert res[key] == want
