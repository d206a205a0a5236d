import dataclasses
import time

import numpy as np
import pytest

from sasakicheck import (
    NormalField,
    TensorField,
    check_theorem_3_1,
    check_theorem_3_2,
    check_theorem_3_3,
    check_theorem_3_4,
    extract_structure,
    frame_stack,
    gauss_weingarten,
    make_pointwise_model,
    parallel_residual,
    verify_differential_identities,
)
from sasakicheck.config import load_suite_config
from sasakicheck.dual import exp
from sasakicheck.report import verdict
from sasakicheck.runner import run_suite
from sasakicheck.theorems import (
    _FLOOR_NOTE,
    PointwiseModel,
    _implication,
    _largest,
    model_structure_residuals,
    theorem_3_1_chart,
    theorem_3_2_chart,
    theorem_3_3_chart,
    theorem_3_4_model_consistency,
)

from conftest import (
    REPO,
    chart_points,
    chart_vectors,
    constant_vector_field,
    euclidean_metric,
    states_at,
)


@pytest.fixture()
def plane_structure(plane_r3):
    pts = chart_points(2, 12, seed=83)
    N = NormalField(plane_r3)
    return extract_structure(frame_stack(N, pts))


def test_parallel_residual_rejects_unknown_field(plane_structure):
    with pytest.raises(ValueError):
        parallel_residual([], "xi")


def test_constant_field_on_flat_chart_is_parallel():
    # the covariant derivative machinery itself: flat metric, constant field
    from sasakicheck.connection import christoffel
    from sasakicheck.fields import jet
    from sasakicheck.connection import covariant_derivative_components

    g = euclidean_metric(2)
    Y = constant_vector_field(2, [1.0, 2.0])
    pts = chart_points(2, 5)
    jy = jet(Y, pts)
    full = covariant_derivative_components(jy.value, jy.partials, christoffel(g, pts), (1, 0))
    assert np.max(np.abs(full)) <= 1e-8


def test_V_not_parallel_on_plane(plane_structure):
    pts = chart_points(2, 10, seed=89)
    dirs = chart_vectors(2, 4, seed=90)
    assert parallel_residual(states_at(plane_structure.normal, pts, dirs), "V") > 1e-3


def test_nabla_V_matches_adjudicated_identity(plane_structure):
    # direct covariant derivative against the (2.15) right-hand side under
    # the adjudicated convention: nabla_Y V = phi' Y - lambda H_w Y
    pts = chart_points(2, 8, seed=91)
    bd = plane_structure.bundle_at(pts)
    gw = gauss_weingarten(frame_stack(plane_structure.normal, pts, partials=True))
    covV = bd.dV + np.einsum("paij,pj->pia", gw.induced_gamma, bd.V)
    for Y in chart_vectors(2, 3, seed=92):
        direct = np.einsum("i,pia->pa", Y, covV)
        via_identity = -(bd.phi @ Y) - bd.lam[:, None] * (gw.H_w @ Y)
        assert np.max(np.abs(direct - via_identity)) < 1e-5


def test_model_constructor_structure_residuals():
    rng = np.random.default_rng(101)
    models = {1: [], 2: [], 3: []}
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        lam = float(rng.uniform(-0.99, 0.99))
        models[n].append(make_pointwise_model(n, [lam], rng))
    for same_n in models.values():
        assert max(max(model_structure_residuals(md).values()) for md in same_n) <= 1e-12


def test_model_constructor_rejects_invariant_lambda():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        make_pointwise_model(1, [1.0], rng)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_theorem_3_3_exact_models(n):
    rng = np.random.default_rng(200 + n)
    start = time.perf_counter()
    for _ in range(100):
        model = make_pointwise_model(n, [rng.uniform(0.1, 0.9)], rng)
        res = check_theorem_3_3(model)
        assert res.verdict == "pass"
        assert res.details["conclusion_residuals"]["max_h"] <= 1e-12
    assert time.perf_counter() - start < 2.0


def test_theorem_3_3_lambda_grid():
    rng = np.random.default_rng(7)
    for lam in np.linspace(0.05, 0.95, 10):
        model = make_pointwise_model(1, [lam], rng)
        assert check_theorem_3_3(model).details["conclusion_residuals"]["max_h"] <= 1e-12


def test_theorem_3_3_lambda_zero_excluded():
    model = make_pointwise_model(1, [1e-9], np.random.default_rng(3))
    res = check_theorem_3_3(model)
    assert res.verdict == "vacuous"
    assert res.details["notes"] == [_FLOOR_NOTE.format(1)]


def test_theorem_3_3_chart_vacuous_generically(plane_structure):
    res = theorem_3_3_chart(states_at(plane_structure.normal, chart_points(2, 8, seed=93),
                                      chart_vectors(2, 4, seed=94)))
    assert res.verdict == "vacuous"


def test_theorem_3_1_model_n1_imposable_but_conclusions_fail():
    # at n = 1 the constraint admits an exact symmetric-h solution, yet the
    # stated conclusions do not follow from it: h(V, .) = -u is forced, so
    # symmetry plants -u(U) = lam^2 - 1 in the h(U, V) slot, off the
    # -u (x) v / (1 - lam^2) profile the conclusions assert
    rng = np.random.default_rng(11)
    model = make_pointwise_model(1, [0.5], rng)
    res = check_theorem_3_1(model)
    assert res.details["hypothesis_residual"] <= 1e-10
    assert res.verdict == "refuted"
    for eq in ("3.2", "3.3", "3.4"):
        assert res.details["conclusion_residuals"][eq] > 0.1
    assert any("side condition" in n for n in res.details["notes"])


def test_theorem_3_1_model_n2_obstructed():
    rng = np.random.default_rng(13)
    model = make_pointwise_model(2, [0.4], rng)
    res = check_theorem_3_1(model)
    assert res.verdict == "vacuous"
    assert res.details["hypothesis_residual"] > 1e-3
    assert any("rank-degenerate" in n for n in res.details["notes"])


def test_theorem_3_1_synthetic_invariant_point_with_nonzero_V():
    # u = v = 0 alongside V != 0 cannot satisfy the constraint; the solver
    # must record the obstruction instead of pretending otherwise
    m = 2
    model = PointwiseModel(
        lam=np.array([1.0]), g=np.eye(m)[None], phi=np.array([[[0.0, -1.0], [1.0, 0.0]]]),
        u=np.zeros((1, m)), v=np.zeros((1, m)), U=np.zeros((1, m)), V=np.array([[1.0, 0.0]]),
    )
    res = check_theorem_3_1(model)
    assert res.verdict == "vacuous"
    assert res.details["hypothesis_residual"] > 1e-3
    assert any("unsolvable" in n for n in res.details["notes"])


def test_theorem_3_1_model_lambda_zero_flags_35_exclusion():
    model = make_pointwise_model(1, [0.0], np.random.default_rng(29))
    res = check_theorem_3_1(model)
    assert any("lambda = 0 exclusion" in n for n in res.details["notes"])


def test_theorem_3_1_chart_vacuous(plane_structure):
    rows = theorem_3_1_chart(states_at(plane_structure.normal, chart_points(2, 8, seed=95),
                                       chart_vectors(2, 4, seed=96)), structure_sign=-1.0)
    assert [r.name for r in rows] == ["eq_3_1", "eq_3_2", "eq_3_3", "eq_3_4", "eq_3_5"]
    assert [r.verdict for r in rows] == ["vacuous"] * 5
    assert rows[0].max_residual > 1e-3
    assert [r.max_residual for r in rows[1:]] == [None] * 4


@pytest.mark.parametrize("n,lam", [(1, 0.3), (1, 0.7), (2, 0.5), (3, 0.85)])
def test_theorem_3_2_model_confirms_conclusions(n, lam):
    rng = np.random.default_rng(17)
    model = make_pointwise_model(n, [lam], rng)
    res = check_theorem_3_2(model)
    assert res.verdict == "pass", (res.details["conclusion_residuals"], res.details["notes"])
    assert res.details["conclusion_residuals"]["3.6"] <= 1e-10
    assert res.details["conclusion_residuals"]["3.7"] <= 1e-10
    assert any("asymmetry" in note for note in res.details["notes"])


def test_theorem_3_2_lambda_zero_branch():
    rng = np.random.default_rng(19)
    model = make_pointwise_model(1, [0.0], rng)
    res = check_theorem_3_2(model, rng=rng)
    assert res.verdict == "pass"
    assert res.details["conclusion_residuals"]["3.6"] <= 1e-10
    assert any("ker(phi)" in note for note in res.details["notes"])


def test_theorem_3_2_chart_vacuous(plane_structure):
    res = theorem_3_2_chart(states_at(plane_structure.normal, chart_points(2, 8, seed=97),
                                      chart_vectors(2, 4, seed=98)), structure_sign=-1.0)
    assert res.verdict == "vacuous"


def test_theorem_3_4_chart_vacuous_on_quadric(quadric_r3):
    pts = chart_points(2, 10, seed=99)
    res = check_theorem_3_4(states_at(NormalField(quadric_r3), pts, chart_vectors(2, 4, seed=100)),
                            structure_sign=-1.0)
    assert res.verdict == "vacuous"


def test_theorem_3_4_scaled_normal_w_is_dlog_rho(quadric_r3):
    rho = TensorField((0, 0), 2, lambda c: exp(c[0] + c[1]))
    N = NormalField(quadric_r3, scaling=rho)
    gw = gauss_weingarten(frame_stack(N, chart_points(2, 8, seed=103), partials=True))
    np.testing.assert_allclose(gw.w, np.ones((8, 2)), atol=1e-6)


def test_theorem_3_4_model_consistency_recorded():
    model = make_pointwise_model(1, [0.5], np.random.default_rng(23))
    res = theorem_3_4_model_consistency(model)
    assert res.verdict == "vacuous"
    assert res.details["conclusion_residuals"]["forced_u"] > 0.1
    assert any("forces u = 0" in n for n in res.details["notes"])


NAN = float("nan")


@pytest.mark.parametrize("residual,tol,miss,held,expected", [
    (1e-7, 1e-5, "fail", True, "pass"),
    (1e-5, 1e-5, "fail", True, "pass"),  # at the tolerance passes
    (1e-3, 1e-5, "fail", True, "fail"),
    (1e-3, 1e-5, "refuted", True, "refuted"),
    (1e-3, 1e-5, "vacuous", True, "vacuous"),  # eq_3_1: a hypothesis residual over tol
    (1e-7, 1e-5, "refuted", False, "vacuous"),  # a hypothesis that never held
    (1e-3, 1e-5, "fail", False, "vacuous"),
    (0.0, 0.0, "refuted", True, "pass"),  # theorem_3_3_chart's h_bound rule
    (1e-300, 0.0, "refuted", True, "refuted"),
    (np.inf, 1e-5, "refuted", True, "refuted"),
    (1e300, np.inf, "fail", True, "pass"),
    (NAN, 1e-5, "fail", True, "fail"),  # a NaN residual never passes
    (NAN, 1e-5, "refuted", True, "refuted"),
    (NAN, 1e-5, "refuted", NAN <= 1e-6, "vacuous"),  # a NaN hypothesis never holds
    (1e-7, 1e-5, "refuted", NAN <= 1e-6, "vacuous"),
])
def test_verdict_table(residual, tol, miss, held, expected):
    assert verdict(residual, tol, miss, held) == expected


def test_largest_conclusion_is_nan_wherever_a_nan_sits():
    for concl in ({"a": NAN, "b": 0.0}, {"a": 0.0, "b": NAN}):
        assert np.isnan(_largest(concl))
    assert _largest({"a": 1e-3, "b": 2e-3}) == 2e-3


def test_implication_prints_the_conclusion_its_verdict_judges():
    res = _implication("thm", "Thm", 0.0, {"3.6": 1e-7, "3.7": NAN}, 1e-5, True, "", 1)
    assert res.verdict == "refuted"
    assert np.isnan(res.max_residual)


# xi-tangent surfaces (lambda = 0 everywhere) at seed 7: the chart theorem
# rows eq_3_1 to eq_3_5, thm_3_2_chart, thm_3_3_chart and eq_3_8 as
# (verdict, samples used, samples excluded)
_XI_TANGENT_ROWS = {
    ("plane_r3", "s, 0.3, t"): [("pass", 50, 0), *[("refuted", 5000, 0)] * 3, ("vacuous", 0, 50),
                                ("vacuous", 0, 50), ("vacuous", 0, 50), ("vacuous", 0, 0)],
    ("plane_r3", "s, s^2, t"): [("pass", 50, 0), *[("refuted", 5000, 0)] * 3, ("vacuous", 0, 50),
                                ("vacuous", 0, 50), ("vacuous", 0, 50), ("vacuous", 0, 0)],
    ("plane_r5", "0.3, a, b, c, d"): [("vacuous", 50, 0), *[("vacuous", 0, 0)] * 4,
                                      ("vacuous", 0, 50), ("vacuous", 0, 0), ("vacuous", 0, 0)],
}


@pytest.mark.parametrize("config, outputs", sorted(_XI_TANGENT_ROWS))
def test_no_chart_theorem_row_is_judged_on_zero_samples(config, outputs):
    suite = load_suite_config(REPO / "configs" / f"{config}.cfg")
    suite = dataclasses.replace(suite, inputs=["s", "t"] if suite.n == 1 else list("abcd"),
                                outputs=outputs.split(", "), seed=7, checks=["theorems"])
    rows = run_suite(suite).checks
    assert [(r.verdict, r.samples_used, r.samples_excluded)
            for r in rows] == _XI_TANGENT_ROWS[config, outputs]
    for r in rows:
        # a row the floor emptied says so, and no other row does
        emptied = r.samples_used == 0 and r.samples_excluded > 0
        assert emptied == any("LAMBDA_FLOOR" in note for note in r.details.get("notes", [])), r.name


@pytest.mark.parametrize("check", [check_theorem_3_1, check_theorem_3_2,
                                   theorem_3_4_model_consistency])
@pytest.mark.parametrize("field", ["u", "g", "lam"])
@pytest.mark.parametrize("bad", [NAN, np.inf])
def test_one_model_checks_reject_non_finite_data(check, field, bad):
    model = make_pointwise_model(1, [0.5], np.random.default_rng(37))
    value = np.array(getattr(model, field), dtype=float)
    value.flat[0] = bad
    with pytest.raises(ValueError, match=rf"^{check.__name__} takes finite model data$"):
        check(dataclasses.replace(model, **{field: value}))


def test_verdicts_stable_under_direction_scaling(plane_structure):
    pts = chart_points(2, 8, seed=107)
    vecs = chart_vectors(2, 10, seed=108)
    # pairs are (vecs[0], vecs[1]), (vecs[2], vecs[3]), ...; scale X and Y differently
    scaled = [(17.0 if k % 2 == 0 else 0.03) * v for k, v in enumerate(vecs)]
    a, _, _ = verify_differential_identities(states_at(plane_structure.normal, pts, vecs))
    b, _, _ = verify_differential_identities(states_at(plane_structure.normal, pts, scaled))
    for x, y in zip(a, b):
        assert x.max_residual == pytest.approx(y.max_residual, abs=1e-10)
        assert x.convention == y.convention
