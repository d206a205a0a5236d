"""The algebraic battery and the chart theorems do not depend on how samples are grouped.

Run on many points (or a sample-state record of many points),
``verify_algebraic_identities`` and the chart-theorem checks must give,
bit for bit, what the same calls give one point at a time, combined as
each check combines its samples: residual maxima, summed sample counts
and, for Theorem 3.4, the smallest |h|.  The chart theorems are also driven through their
non-vacuous branches, on states edited so that the hypothesis holds.
"""

from dataclasses import replace

import numpy as np
import pytest

from sasakicheck import (
    PointStack,
    check_theorem_3_4,
    extract_structure,
    frame_stack,
    parallel_residual,
    verify_algebraic_identities,
)
from sasakicheck.sampling import sample_points, sample_vectors
from sasakicheck.theorems import (
    HYPOTHESIS_TOL,
    LAMBDA_FLOOR,
    theorem_3_1_chart,
    theorem_3_2_chart,
    theorem_3_3_chart,
)

from conftest import SURFACES, row, states_at, surface_normal


def _points(dim, count, seed):
    return sample_points(dim, count, (-1.0, 1.0), np.random.default_rng(seed))


def _assert_combines(whole, singles):
    """``whole`` report is the per-key maximum of the one-point ``singles``."""
    assert whole.sample_count == sum(s.sample_count for s in singles)
    for i, r in enumerate(whole.identities):
        parts = [s.identities[i] for s in singles]
        assert r.name == parts[0].name
        assert r.residual == max(p.residual for p in parts), r.name
        assert r.samples_used == sum(p.samples_used for p in parts), r.name
        assert list(r.details) == list(parts[0].details), r.name
        for key, value in r.details.items():
            assert value == max(p.details[key] for p in parts), key


@pytest.mark.parametrize("count", [8, 50, 400])
@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_algebraic_battery_equals_single_point_batteries(surface, count):
    N = surface_normal(SURFACES[surface])
    pts = _points(N.embedding.dim, count, seed=count + 7)
    S = extract_structure(N, frame_stack(N, pts))
    _assert_combines(verify_algebraic_identities(S),
                     [verify_algebraic_identities(
                         extract_structure(N, frame_stack(N, PointStack([p]))))
                      for p in pts.coords])


def _zeroed(st, *keys):
    return replace(st, **{k: np.zeros_like(getattr(st, k)) for k in keys})


def _flat_h(st):
    return replace(st, gw=replace(st.gw, h=np.zeros_like(st.gw.h)))


def _edited(states, variant):
    """Real states, or states edited so that the chart hypotheses hold."""
    if variant == "real":
        return states
    out = _zeroed(states, "covphi", "covU", "covV")
    if variant in ("h_zero", "lambda_floor"):
        out = _flat_h(out)
    if variant == "lambda_floor":
        lam = out.bundle.lam.copy()
        lam[[1, len(lam) - 2]] = 0.25 * LAMBDA_FLOOR
        out = replace(out, bundle=replace(out.bundle, lam=lam))
    return out


def _combined(singles, hypothesis_gated):
    """Combine one-state results the way one call over all states does.

    For Theorems 3.1 and 3.2 the conclusions count only when the combined
    hypothesis residual is within tolerance; Theorems 3.3 and 3.4 gate
    each sample on its own hypothesis.
    """
    used = sum(r.samples_used for r in singles)
    excluded = sum(r.samples_excluded for r in singles)
    concl = {k: max(r.conclusion_residuals[k] for r in singles)
             for k in singles[0].conclusion_residuals}
    if hypothesis_gated:
        hyp = max(r.hypothesis_residual for r in singles)
        if hyp > HYPOTHESIS_TOL:
            concl, used, excluded = dict.fromkeys(concl, 0.0), 0, 0
    return concl, used, excluded


def _assert_theorem_combines(whole, singles, hypothesis_gated, hyp=None):
    concl, used, excluded = _combined(singles, hypothesis_gated)
    assert whole.conclusion_residuals == concl
    assert (whole.samples_used, whole.samples_excluded) == (used, excluded)
    if hyp is not None:
        assert whole.hypothesis_residual == hyp


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("variant", ["real", "parallel", "h_zero", "lambda_floor"])
@pytest.mark.parametrize("count", [8, 50])
@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_chart_theorems_equal_single_state_checks(surface, count, variant, sign):
    N = surface_normal(SURFACES[surface])
    m = N.embedding.dim
    rng = np.random.default_rng(count + 13)
    pts = sample_points(m, count, (-1.0, 1.0), rng)
    dirs = sample_vectors(m, 10, rng)
    states = _edited(states_at(N, pts, dirs), variant)
    ones = [row(states, slice(i, i + 1)) for i in range(count)]

    for field in ("phi", "U", "V"):
        assert parallel_residual(states, field) == max(parallel_residual(o, field) for o in ones)

    for theorem in (theorem_3_1_chart, theorem_3_2_chart):
        whole = theorem(states, structure_sign=sign)
        singles = [theorem(o, structure_sign=sign) for o in ones]
        _assert_theorem_combines(whole, singles, True,
                                 max(r.hypothesis_residual for r in singles))

    whole = theorem_3_3_chart(states)
    singles = [theorem_3_3_chart(o) for o in ones]
    _assert_theorem_combines(whole, singles, False,
                             0.0 if whole.samples_used else
                             max(r.hypothesis_residual for r in singles))

    whole = check_theorem_3_4(states, structure_sign=sign)
    singles = [check_theorem_3_4(o, structure_sign=sign) for o in ones]
    # with no usable sample the hypothesis residual is the smallest |h|
    _assert_theorem_combines(whole, singles, False,
                             0.0 if whole.samples_used else
                             min(r.hypothesis_residual for r in singles))

    if variant != "real":
        # the edited hypotheses hold, so the conclusions were evaluated
        assert theorem_3_1_chart(states).samples_used == count * len(dirs) ** 2
    if variant == "lambda_floor":
        assert theorem_3_2_chart(states).samples_excluded == 2
        assert theorem_3_3_chart(states).samples_excluded == 2
        assert check_theorem_3_4(states).samples_excluded == 2


# ---------------------------------------------------------------------------
# per-sample loops as the reference for the stacked formulas
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def _loop_structure_residuals(bundles):
    """(2.5)-(2.8) one point at a time, with scalar products per point."""
    sub = {}

    def bump(key, value):
        sub[key] = max(sub.get(key, 0.0), float(value))

    for bd in bundles:
        phi, u, U, V, v, lam, g, en5 = bd.phi, bd.u, bd.U, bd.V, bd.v, bd.lam, bd.g, bd.eta_n
        square = np.max(np.abs(phi @ phi + np.eye(len(u)) - np.outer(U, u) - np.outer(V, v)))
        bump("2.5a", square)
        bump("2.8a", square)
        for family, en, forms, vectors in (("2.5", en5, "b", "c"), ("2.8", lam, "c", "b")):
            bump(family + forms, max(np.max(np.abs(u @ phi - lam * v)),
                                     np.max(np.abs(v @ phi + en * u))))
            bump(family + vectors, max(np.max(np.abs(phi @ U + en * V)),
                                       np.max(np.abs(phi @ V - lam * U))))
            bump(family + "d", max(abs(float(u @ U) - (1.0 - lam * en)), abs(float(u @ V))))
            bump(family + "e", max(abs(float(v @ U)), abs(float(v @ V) - (1.0 - lam * en))))
        bump("2.6", np.max(np.abs(phi.T @ g @ phi - g + np.outer(u, u) + np.outer(v, v))))
        bump("2.7", max(np.max(np.abs(g @ U - u)), np.max(np.abs(g @ V - v))))
    return sub


@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_algebraic_battery_equals_per_point_loop(surface):
    N = surface_normal(SURFACES[surface])
    pts = _points(N.embedding.dim, 50, seed=17)
    S = extract_structure(N, frame_stack(N, pts))
    want = _loop_structure_residuals(row(S.stack, i) for i in range(len(pts)))
    rep = verify_algebraic_identities(S)
    assert {k: v for r in rep.identities for k, v in r.details.items()} == want


def _loop_conclusions(states, sign):
    """The chart-theorem conclusions sample by sample and direction by
    direction, as if every hypothesis held, skipping lambda below the floor
    where a conclusion divides by it or excludes it."""
    out = dict.fromkeys(("3.2", "3.3", "3.4", "3.5", "3.6", "3.7", "3.8", "h_bound"), 0.0)

    def bump(key, value):
        out[key] = max(out[key], abs(float(value)))

    for i in range(len(states.dirs)):
        st = row(states, i)
        bd, gw, dirs = st.bundle, st.gw, st.dirs
        lam, u, phi = bd.lam, sign * bd.u, sign * bd.phi
        one = 1.0 - lam * lam
        bump("3.3", np.max(np.abs(gw.h @ bd.V)))
        for X in dirs:
            for Y in dirs:
                bump("3.2", one * (X @ gw.h @ Y) + (u @ Y) * (bd.v @ X))
                bump("3.4", one * (X @ bd.g @ Y) - (bd.v @ X) * (bd.v @ Y))
                if abs(lam) >= LAMBDA_FLOOR:
                    bump("3.6", X @ gw.h @ (phi @ Y) - lam * (X @ bd.g @ Y) + (gw.w @ Y) * (u @ X))
        if abs(lam) >= LAMBDA_FLOOR:
            for Y in dirs:
                bump("3.5", lam * (gw.w @ Y) - u @ Y + bd.dlam @ Y)
                bump("3.7", gw.w @ Y - 2.0 * lam * (u @ Y) + lam * lam * ((bd.dlam @ Y) / lam))
                bump("3.8", lam * (gw.w @ Y) - sign * (bd.u @ Y) + bd.dlam @ Y)
            # nabla V = 0 here, so the bound takes its floor 1e-15
            C = (1.0 + np.max(np.abs(bd.g))) * (1.0 + np.max(np.abs(bd.phi)))
            bump("h_bound", max(0.0, np.max(np.abs(gw.h)) - C * 1e-15 / abs(lam)))
    return out


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("variant", ["parallel", "lambda_floor"])
@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_chart_theorems_equal_per_sample_loops(surface, variant, sign):
    N = surface_normal(SURFACES[surface])
    m = N.embedding.dim
    rng = np.random.default_rng(19)
    pts = sample_points(m, 12, (-1.0, 1.0), rng)
    states = _edited(states_at(N, pts, sample_vectors(m, 6, rng)), variant)
    want = _loop_conclusions(states, sign)
    got = {**theorem_3_1_chart(states, structure_sign=sign).conclusion_residuals,
           **theorem_3_2_chart(states, structure_sign=sign).conclusion_residuals,
           **theorem_3_3_chart(states).conclusion_residuals}
    if variant == "lambda_floor":  # h = 0 holds only here
        got.update(check_theorem_3_4(states, structure_sign=sign).conclusion_residuals)
    else:
        del want["3.8"]
    # the per-sample dot products read strided views, the stacked ones
    # contiguous copies; BLAS may sum those in a different order
    assert got == pytest.approx(want, rel=16 * EPS, abs=16 * EPS)
