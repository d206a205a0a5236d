"""Stacked exact models against one-model calls, bit for bit.

A report checks the exact pointwise models of ``theorems.py`` on
``runner.MODEL_DRAWS`` draws from its ``models`` generator, built as one
stack.  The rows it reports must equal a reference built here the plain
way: one ``make_pointwise_model``, ``check_theorem_3_3``,
``check_theorem_3_2`` and ``model_structure_residuals`` call per draw,
each on a one-draw stack, and running maxima.  Non-finite model data is
an error in every model check.  The stacked construction itself is held
to ``_loop_model``, the one-model construction as it stood before the
stack.  Theorem 3.2's closed-form w is held to
``w_map_columns``, the column-by-column assembly of its affine map, and
a solve, on models with a general metric.  The report's rows
(``theorem_3_2_rows``) read ``impose_theorem_3_2`` on the whole stack of
draws instead of ``check_theorem_3_2`` per draw: its stacked products are
held bit for bit to ``impose_one_draw``, one ``ndarray.dot`` per product
of one draw, its residuals to the check's, its guard to the check's
error, and the check's whole row is pinned on fixed models.
"""

import dataclasses

import numpy as np
import pytest

from sasakicheck import (check_theorem_3_1, check_theorem_3_2, check_theorem_3_3,
                         make_pointwise_model)
from sasakicheck import runner
from sasakicheck.config import load_suite_config
from sasakicheck.runner import MODEL_DRAWS, run_suite
from sasakicheck.sampling import spawn_rngs
from sasakicheck.theorems import (
    LAMBDA_FLOOR,
    MODEL_CONCLUSION_TOL,
    MODEL_TOL,
    _FLOOR_NOTE,
    PointwiseModel,
    _one_model,
    impose_theorem_3_2,
    model_structure_residuals,
    theorem_3_2_rows,
    theorem_3_4_model_consistency,
)

from conftest import SURFACES, impose_one_draw, row, running_max, w_map_columns

SEEDS = range(6)


def _models_config(n, seed):
    """A models-only suite on the plane z = 0.1 of the (2n+1)-chart."""
    config = load_suite_config(SURFACES["plane_r3"])
    config.n, config.seed, config.checks = n, seed, ["models"]
    config.inputs = [f"s{i}" for i in range(1, 2 * n + 1)]
    config.outputs = config.inputs + ["0.1"]
    return config


def _reference_rows(n, seed):
    rng = spawn_rngs(seed)["models"]
    worst_33 = worst_36 = worst_37 = 0.0
    structure = []
    for lam in rng.uniform(0.1, 0.9, size=MODEL_DRAWS):
        model = make_pointwise_model(n, [lam], rng)
        structure.append(max(model_structure_residuals(model).values()))
        r33 = check_theorem_3_3(model, MODEL_TOL).details["conclusion_residuals"]
        worst_33 = max(worst_33, r33["max_h"])
        r = check_theorem_3_2(model, MODEL_CONCLUSION_TOL, rng).details["conclusion_residuals"]
        worst_36, worst_37 = max(worst_36, r["3.6"]), max(worst_37, r["3.7"])
    return {"model_structure": running_max(structure),
            "eq_3_6": worst_36, "eq_3_7": worst_37, "thm_3_3_model": worst_33}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_model_rows_equal_per_draw_calls(n, seed):
    rows = {row.name: row for row in run_suite(_models_config(n, seed)).checks}
    for name, residual in _reference_rows(n, seed).items():
        assert rows[name].max_residual == residual, name
        assert rows[name].samples_used == MODEL_DRAWS


def _stack_of_one(lam, g, phi, u, v, U, V):
    """The one-draw model of one draw's arrays, ``lam`` a float."""
    return PointwiseModel(*(np.asarray(x)[None] for x in (lam, g, phi, u, v, U, V)))


def _draw(stack, i):
    """Draw ``i`` of a stack, as a one-draw stack."""
    return row(stack, slice(i, i + 1))


def _loop_model(n, lam, rng):
    """The one-model construction, one draw at a time, as the oracle."""
    d, m = 2 * n + 1, 2 * n
    phi_amb = np.zeros((d, d))
    phi_amb[:n, n:m] = -np.eye(n)
    phi_amb[n:m, :n] = np.eye(n)
    xi = np.zeros(d)
    xi[-1] = 1.0
    nu = rng.normal(size=m)
    nu /= np.linalg.norm(nu)
    N = np.concatenate([np.sqrt(1.0 - lam * lam) * nu, [lam]])
    Q, _ = np.linalg.qr(np.column_stack([N, rng.normal(size=(d, m))]))
    B = Q[:, 1:]
    if np.linalg.det(np.column_stack([B, N])) < 0:
        B = B.copy()
        B[:, 0] = -B[:, 0]
    return _stack_of_one(lam, B.T @ B, B.T @ phi_amb @ B, (phi_amb @ B).T @ N,
                         B.T @ np.concatenate([np.zeros(m), [1.0]]), -B.T @ (phi_amb @ N),
                         B.T @ xi)


def _bits(model):
    return [np.asarray(getattr(model, f.name)).tobytes() for f in dataclasses.fields(model)]


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_models_equal_one_model_calls_bit_for_bit(n, seed):
    lams = np.random.default_rng(seed).uniform(-0.99, 0.99, size=100)
    stacked_rng, loop_rng, single_rng = (np.random.default_rng(1000 + seed) for _ in range(3))
    stack = make_pointwise_model(n, lams, stacked_rng)
    assert stack.lam.tobytes() == lams.tobytes()
    for i, lam in enumerate(lams.tolist()):
        oracle = _loop_model(n, lam, loop_rng)
        single = make_pointwise_model(n, [lam], single_rng)
        assert single.lam.shape == (1,) and single.n == n
        assert _bits(_draw(stack, i)) == _bits(oracle) == _bits(single)
    with pytest.raises(TypeError):
        single[0]
    # the stack drew exactly what the one-model calls drew
    assert stacked_rng.bit_generator.state == loop_rng.bit_generator.state
    assert stacked_rng.bit_generator.state == single_rng.bit_generator.state


@pytest.mark.parametrize("bad", [1.0, -1.0, 1.5, -7.0, np.inf, -np.inf, np.nan])
def test_model_rejects_lambda_outside_open_interval(bad):
    rng = np.random.default_rng(5)
    for lam in ([bad], np.array([0.5, bad, -0.2]), np.array([bad])):
        with pytest.raises(ValueError, match=r"lambda must lie in \(-1, 1\)"):
            make_pointwise_model(2, lam, rng)


@pytest.mark.parametrize("lam", [0.5, np.float64(0.5), np.array(0.5), [[0.5]], np.zeros((2, 3))])
def test_model_rejects_lambdas_not_a_1d_array(lam):
    """One model is a one-draw stack, ``[lam]``: a scalar lambda is an error,
    as a bare row is for a point stack, and draws nothing."""
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError, match=r"^lambdas must form a 1-D array, got shape "):
        make_pointwise_model(2, lam, rng)
    assert rng.bit_generator.state == np.random.default_rng(6).bit_generator.state


def _with_nan_draw(stack, index, field):
    values = getattr(stack, field).copy()
    values[index] = np.nan
    return dataclasses.replace(stack, **{field: values})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_theorem_3_3_is_the_running_max_of_one_model_calls(n):
    stack = make_pointwise_model(n, np.random.default_rng(n).uniform(0.1, 0.9, size=60),
                                 np.random.default_rng(10 + n))
    singles = [check_theorem_3_3(_draw(stack, i)) for i in range(60)]
    whole = check_theorem_3_3(stack)
    assert whole.details["conclusion_residuals"]["max_h"] == running_max(
        r.details["conclusion_residuals"]["max_h"] for r in singles)
    assert whole.verdict == "pass"
    assert (whole.samples_used, whole.samples_excluded) == (60, 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_structure_residuals_are_the_running_max_of_one_model_calls(n):
    stack = make_pointwise_model(n, np.random.default_rng(n).uniform(-0.9, 0.9, size=40),
                                 np.random.default_rng(20 + n))
    whole = model_structure_residuals(stack)
    singles = [model_structure_residuals(_draw(stack, i)) for i in range(40)]
    assert whole == {k: running_max(s[k] for s in singles) for k in whole}


@pytest.mark.parametrize("check", [model_structure_residuals, check_theorem_3_3,
                                   theorem_3_2_rows])
@pytest.mark.parametrize("field,index", [("phi", 7), ("g", 0), ("u", 3), ("lam", 39)])
def test_stack_checks_reject_a_non_finite_draw(check, field, index):
    """A NaN in any draw is an error, not a draw passed over."""
    stack = make_pointwise_model(2, np.random.default_rng(2).uniform(0.1, 0.9, size=40),
                                 np.random.default_rng(22))
    name = "check_theorem_3_2" if check is theorem_3_2_rows else check.__name__
    with pytest.raises(ValueError, match=rf"^{name} takes finite model data$"):
        check(_with_nan_draw(stack, index, field))


@pytest.mark.parametrize("check", [check_theorem_3_1, check_theorem_3_2,
                                   theorem_3_4_model_consistency])
def test_one_model_checks_reject_a_stack(check):
    stack = make_pointwise_model(1, np.array([0.3, 0.6]), np.random.default_rng(31))
    with pytest.raises(ValueError, match=rf"^{check.__name__} takes one draw, "
                                         r"got lambdas of shape \(2,\)$"):
        check(stack)
    # a float lambda is not a model format
    with pytest.raises(ValueError, match=rf"^{check.__name__} takes one draw, "
                                         r"got lambdas of shape \(\)$"):
        check(dataclasses.replace(_draw(stack, 0), lam=0.3))


def test_theorem_3_3_stack_excludes_draws_below_the_lambda_floor():
    rng = np.random.default_rng(8)
    lams = np.array([0.5, -LAMBDA_FLOOR / 2, -0.3, 0.0, 0.7])
    stack = make_pointwise_model(2, lams, rng)
    whole = check_theorem_3_3(stack)
    kept = [check_theorem_3_3(_draw(stack, i)) for i in (0, 2, 4)]
    assert whole.details["conclusion_residuals"]["max_h"] == running_max(
        r.details["conclusion_residuals"]["max_h"] for r in kept)
    assert (whole.verdict, whole.samples_used, whole.samples_excluded) == ("pass", 3, 2)
    # a stack the floor empties reads as a chart row the floor empties
    none_left = check_theorem_3_3(row(stack, slice(1, 4, 2)))
    assert (none_left.verdict, none_left.max_residual, none_left.details["hypothesis_residual"],
            none_left.details["conclusion_residuals"], none_left.convention,
            none_left.samples_used, none_left.samples_excluded) == (
                "vacuous", 0.0, 0.0, {"max_h": 0.0}, "H = -phi/lambda", 0, 2)
    assert none_left.details["notes"] == [_FLOOR_NOTE.format(2)]


@pytest.mark.parametrize("lam", [0.0, 5e-7, -9e-7])
def test_theorem_3_2_rows_reject_a_draw_below_the_lambda_floor(lam):
    stack = make_pointwise_model(2, [0.5, lam], np.random.default_rng(9))
    with pytest.raises(ValueError, match=r"^theorem_3_2_rows takes lambdas with "
                                         r"\|lambda\| >= 1e-06$"):
        theorem_3_2_rows(stack)


@pytest.mark.parametrize("lam", [0.0, 1e-9, -5e-7])
def test_one_model_lambda_floor_branches_unchanged(lam):
    model = make_pointwise_model(1, [lam], np.random.default_rng(3))
    r33 = check_theorem_3_3(model)
    # a one-draw model counts its excluded draw, as any stack does
    assert (r33.verdict, r33.max_residual, r33.details["hypothesis_residual"],
            r33.details["conclusion_residuals"], r33.samples_used, r33.samples_excluded) == (
                "vacuous", 0.0, 0.0, {"max_h": 0.0}, 0, 1)
    assert r33.details["notes"] == [_FLOOR_NOTE.format(1)]
    rng = np.random.default_rng(4)
    r32 = check_theorem_3_2(model, rng=rng)
    assert r32.convention == "w = 0, lambda = 0 branch"
    assert r32.details["conclusion_residuals"]["3.7"] == 0.0
    # that branch draws its kernel map from the caller's generator
    assert rng.bit_generator.state != np.random.default_rng(4).bit_generator.state


def _general_model(n, rng):
    """Random model data with an SPD metric g != I and a well-conditioned phi
    (singular values in [1, 2]); not a hypersurface, only inputs for w.  The
    report's flat models have U = u and g = I, where a slip between U and u,
    or a missed g, would not show."""
    m = 2 * n
    A = rng.normal(size=(m, m))
    Q1, _ = np.linalg.qr(rng.normal(size=(m, m)))
    Q2, _ = np.linalg.qr(rng.normal(size=(m, m)))
    phi = Q1 @ np.diag(rng.uniform(1.0, 2.0, size=m)) @ Q2
    u, v, U, V = rng.normal(size=(4, m))
    return _stack_of_one(float(rng.uniform(0.1, 0.9)), A @ A.T + np.eye(m), phi, u, v, U, V)


def _imposed_w(md):
    """The closed-form w of a one-draw stack."""
    return impose_theorem_3_2(md)[1][0][0]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_form_w_equals_the_assembled_affine_solve(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(50):
        md = _general_model(n, rng)
        lam, g, phi, u, _, U, V = _one_model(md, "")
        phi_inv = np.linalg.inv(phi)
        M, base = w_map_columns(phi_inv, U, V, g, lam)
        oracle = np.linalg.solve(M + lam * np.eye(2 * n), u - base)
        w = _imposed_w(md)
        assert np.max(np.abs(w - oracle)) <= 1e-12 * np.max(np.abs(oracle))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_form_w_imposes_the_scalar_relation(n):
    """h(Y, V) = u(Y) - lambda w(Y) for h = H^T g, H = phi^-1 (U (x) w - lambda I)."""
    rng = np.random.default_rng(50 + n)
    for _ in range(50):
        md = _general_model(n, rng)
        lam, g, phi, u, _, U, V = _one_model(md, "")
        phi_inv = np.linalg.inv(phi)
        w = _imposed_w(md)
        H = phi_inv @ (np.outer(U, w) - lam * np.eye(2 * n))
        hV = H.T @ g @ V
        assert np.max(np.abs(hV - (u - lam * w))) <= 1e-12 * (1.0 + np.max(np.abs(hV)))


def _zero_slope_draw():
    # phi = g = I and V = e_1 give a = e_1, so U . a + lambda = -0.5 + 0.5 = 0
    return _stack_of_one(0.5, np.eye(2), np.eye(2), np.array([1.0, 0.0]), np.zeros(2),
                         np.array([-0.5, 0.0]), np.array([1.0, 0.0]))


def _stack(draws):
    """One stack of one-draw stacks, in order."""
    return PointwiseModel(*(np.concatenate([getattr(md, f.name) for md in draws])
                            for f in dataclasses.fields(PointwiseModel)))


def test_theorem_3_2_rejects_a_zero_slope():
    with pytest.raises(ValueError, match="slope 0"):
        check_theorem_3_2(_zero_slope_draw())
    # inside a stack, after draws whose slope is not 0
    rng = np.random.default_rng(80)
    draws = [_general_model(1, rng) for _ in range(5)]
    with pytest.raises(ValueError, match=r"slope 0 in w at lambda 0\.5$"):
        theorem_3_2_rows(_stack([*draws[:3], _zero_slope_draw(), *draws[3:]]))


def _with_singular_phi(md, rng):
    """``md`` with a phi of determinant about 1e-13 (singular values 1e-13 and 1)."""
    m = md.phi.shape[-1]
    Q1, _ = np.linalg.qr(rng.normal(size=(m, m)))
    Q2, _ = np.linalg.qr(rng.normal(size=(m, m)))
    phi = Q1 @ np.diag([1e-13, *np.ones(m - 1)]) @ Q2
    return dataclasses.replace(md, phi=phi[None])


@pytest.mark.parametrize("n,k", [(1, 0), (2, 6), (3, 11)])
def test_stacked_guard_names_the_first_singular_draw(n, k):
    """A singular phi at draw k (and again later) raises the one-draw error
    of draw k, whose lambda clears the floor, before any draw is imposed."""
    rng = np.random.default_rng(90 + n)
    draws = [_general_model(n, rng) for _ in range(12)]
    draws[k] = _with_singular_phi(draws[k], rng)
    draws[-1] = _with_singular_phi(draws[-1], rng)
    lam, det = float(draws[k].lam[0]), np.linalg.det(draws[k].phi[0])
    assert abs(lam) >= LAMBDA_FLOOR and abs(det) < 1e-12
    message = f"phi unexpectedly singular (det {det:.3e}) for lambda {lam}"
    with pytest.raises(ValueError) as stacked:
        theorem_3_2_rows(_stack(draws))
    with pytest.raises(ValueError) as alone:
        check_theorem_3_2(draws[k])
    assert str(stacked.value) == str(alone.value) == message


def test_theorem_3_2_rows_take_one_det_and_one_inverse(monkeypatch):
    """The guard and phi^-1 of a 100-draw stack are one call each."""
    stack = make_pointwise_model(2, np.random.default_rng(95).uniform(0.1, 0.9, size=100),
                                 np.random.default_rng(96))
    calls = {"det": 0, "inv": 0}

    def counting(name):
        original = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    rows = theorem_3_2_rows(stack)
    assert calls == {"det": 1, "inv": 1}
    assert [r.samples_used for r in rows] == [100, 100]


def _report_stack(n, seed):
    """The stack of a report's draws, as its models group draws them."""
    rng = spawn_rngs(seed)["models"]
    return make_pointwise_model(n, rng.uniform(0.1, 0.9, size=MODEL_DRAWS), rng)


def _general_and_report_stacks(n, seed):
    """A stack of 50 general draws and a report's stack of draws."""
    rng = np.random.default_rng(seed)
    return _stack([_general_model(n, rng) for _ in range(50)]), _report_stack(n, seed=n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_imposed_residuals_equal_the_check_bit_for_bit(n):
    for stack in _general_and_report_stacks(n, 70 + n):
        residuals, _ = impose_theorem_3_2(stack)
        for i, both in enumerate(zip(*residuals)):
            concl = check_theorem_3_2(_draw(stack, i)).details["conclusion_residuals"]
            assert type(concl["3.6"]) is float and type(concl["3.7"]) is float
            assert both == (concl["3.6"], concl["3.7"])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_imposition_equals_the_per_draw_reference_bit_for_bit(n):
    """The residuals, w, imposed map, H and h of a stack equal those of the
    one-draw ``ndarray.dot`` formula, draw by draw."""
    for stack in _general_and_report_stacks(n, 75 + n):
        (r36, r37), products = impose_theorem_3_2(stack)
        for i in range(len(stack.lam)):
            lam, g, phi, u, _, U, V = _one_model(_draw(stack, i), "")
            residuals, reference = impose_one_draw(lam, g, phi, u, U, V)
            assert residuals == (r36[i], r37[i])
            assert [x[i].tobytes() for x in products] == [x.tobytes() for x in reference]


def _thm_3_2_row(residual, verdict, hyp, r36, r37, asymmetry):
    return {"name": "thm_3_2_model", "equation_ref": "Thm 3.2 (model)",
            "max_residual": residual, "tolerance": 1e-10, "verdict": verdict,
            "convention": "d(lambda) = 0 model, w from scalar compatibility",
            "samples_used": 1, "samples_excluded": 0,
            "details": {"hypothesis_residual": hyp,
                        "conclusion_residuals": {"3.6": r36, "3.7": r37},
                        "notes": [f"h asymmetry under the hypothesis: {asymmetry}"]}}


@pytest.mark.parametrize("model,expected", [
    (lambda: make_pointwise_model(1, [0.3], np.random.default_rng(61)),
     _thm_3_2_row(1.1102230246251565e-16, "pass", 0.0, 1.1102230246251565e-16,
                  5.551115123125783e-17, "1.800e-01")),
    (lambda: make_pointwise_model(2, [-0.6], np.random.default_rng(62)),
     _thm_3_2_row(2.220446049250313e-16, "pass", 1.1102230246251565e-16,
                  2.220446049250313e-16, 2.220446049250313e-16, "8.053e-01")),
    # not a hypersurface's data, so the conclusions miss
    (lambda: _general_model(3, np.random.default_rng(63)),
     _thm_3_2_row(3.2987639700220814, "refuted", 4.163336342344337e-17,
                  3.2987639700220814, 0.5070684582312553, "1.874e+00")),
])
def test_theorem_3_2_model_row_pinned(model, expected):
    assert dataclasses.asdict(check_theorem_3_2(model())) == expected


@pytest.mark.parametrize("field,index", [("phi", 37), ("v", 99)])
def test_report_rejects_a_non_finite_draw(monkeypatch, field, index):
    """A NaN anywhere in the report's stack of draws is an error; the
    structure check, the first to read the stack, names itself."""
    build = runner.make_pointwise_model

    def with_nan(n, lams, rng):
        models = build(n, lams, rng)
        return _with_nan_draw(models, index, field) if len(lams) > index else models

    monkeypatch.setattr(runner, "make_pointwise_model", with_nan)
    with pytest.raises(ValueError, match=r"^model_structure_residuals takes finite model data$"):
        run_suite(_models_config(2, 0))
