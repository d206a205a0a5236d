"""The differential battery's convention variants, one at a time.

``verify_differential_identities`` measures every convention variant of
(2.11)-(2.17) at every direction pair.  The oracle here evaluates each
variant on its own, as scalar code over states and pairs, with the
per-pair contractions and the sign arithmetic of the printed formulas,
and keeps the largest residual the way the battery does (a NaN residual
is passed over).  The battery must give the same numbers bit for bit:
every variant, the best residual under the other structure sign, the
measured v(HY) and the (2.18) details.  A battery over many states must
also combine the one-state batteries: per-variant maxima, summed counts.
The stacked bilinear form the battery uses must equal the oracle's scalar
one bit for bit, and so must each entry of its block of per-pair vector
contractions equal that product formed for one pair.

The ``eq_2_18`` report row is driven through its non-vacuous branch on
states edited so that its premise h(Y, U) = 0 holds.
"""

from dataclasses import replace

import numpy as np
import pytest

from sasakicheck import linalg
from sasakicheck.config import load_suite_config
from sasakicheck.induced import (
    H_TAGS,
    STRUCTURE_TAGS,
    _pair_vectors,
    verify_differential_identities,
)
from sasakicheck.runner import GROUPS, _Context
from sasakicheck.sampling import sample_points, sample_vectors

from conftest import SURFACES, by_name, row, states_at, surface_normal

NAMES = ("2.11", "2.12", "2.13", "2.14", "2.15", "2.16", "2.17")
H_FREE = ("2.12", "2.13", "2.16")
NU_FREE = ("2.16",)


def _states(surface, count=12, directions=6, seed=23):
    N = surface_normal(SURFACES[surface])
    m = N.embedding.dim
    rng = np.random.default_rng(seed)
    pts = sample_points(m, count, (-1.0, 1.0), rng)
    dirs = sample_vectors(m, directions, rng)
    return states_at(N, pts, dirs)


def _points(states):
    """Each point's one-point state, in order."""
    return [row(states, i) for i in range(len(states.dirs))]


def _variants(name):
    """(nu, H tag) of each variant of one identity, in report order."""
    nus = (1.0,) if name in NU_FREE else (1.0, -1.0)
    hs = (None,) if name in H_FREE else H_TAGS
    return [(nu, h) for nu in nus for h in hs]


def _bilinear(y, M, x) -> float:
    """Return ``y^i M_ia x^a`` summed flat, ``i`` outer and ``a`` inner."""
    xs = x.tolist()
    total = 0.0
    for yi, row in zip(y.tolist(), M.tolist()):
        for m, xa in zip(row, xs):
            total += yi * m * xa
    return total


def _label(s, nu, h):
    return (f"{STRUCTURE_TAGS[s]}|{h if h is not None else 'H-free'}|"
            f"{'printed' if nu > 0 else 'hH-negated'}")


def _residual(name, s, nu, htag, st, X, Y):
    """One variant's residual at one direction pair."""
    bd, gw = st.bundle, st.gw
    H = {"H_h": gw.H_h, "H_w": gw.H_w, "-H_w": -gw.H_w, None: gw.H_h}[htag]
    HY = H @ Y
    gXY = float(X @ bd.g @ Y)
    hXY = float(X @ gw.h @ Y)
    uX = float(bd.u @ X)
    vX = float(bd.v @ X)
    wY = float(gw.w @ Y)
    if name == "2.11":
        Lphi = np.einsum("i,iab,b->a", Y, st.covphi, X)
        rhs = vX * Y - gXY * bd.V + nu * s * (-(hXY) * bd.U - uX * HY)
        return float(np.max(np.abs(s * Lphi - rhs)))
    if name == "2.12":
        hphiXY = float((bd.phi @ X) @ gw.h @ Y)
        return abs(s * _bilinear(Y, st.covu, X) - (-nu * s * hphiXY - s * uX * wY - bd.lam * gXY))
    if name == "2.13":
        gphiYX = float((bd.phi @ Y) @ bd.g @ X)
        return abs(_bilinear(Y, st.covv, X) - (s * gphiYX + nu * bd.lam * hXY))
    if name == "2.14":
        LU = np.einsum("i,ia->a", Y, st.covU)
        return float(np.max(np.abs(s * LU - (s * wY * bd.U - nu * s * (bd.phi @ HY) - bd.lam * Y))))
    if name == "2.15":
        LV = np.einsum("i,ia->a", Y, st.covV)
        return float(np.max(np.abs(LV - (s * (bd.phi @ Y) + nu * bd.lam * HY))))
    if name == "2.16":
        Yh = Y @ gw.h
        return abs(float(Yh @ bd.V) - (s * float(bd.u @ Y) - float(bd.dlam @ Y) - bd.lam * wY))
    Yh = Y @ gw.h
    return abs(s * float(Yh @ bd.U) - (-nu * (s * float(bd.u @ HY))))


def _oracle(states, strict_paper):
    """Each variant's largest residual over a list of one-point ``states``,
    then the report fields read from them."""
    signs = (1.0,) if strict_paper else (1.0, -1.0)
    pairs = [(st, X, Y) for st in states for X, Y in zip(st.dirs[0::2], st.dirs[1::2])]
    acc = {}
    for name in NAMES:
        for s in signs:
            for nu, h in _variants(name):
                worst = 0.0
                for st, X, Y in pairs:
                    worst = max(worst, _residual(name, s, nu, h, st, X, Y))
                acc[(name, s, nu, h)] = worst
    variants = {name: {_label(s, nu, h): acc[(name, s, nu, h)]
                       for s in signs for nu, h in _variants(name)} for name in NAMES}

    def best(name, s):
        # the first variant within ten times the smallest residual
        entries = [acc[(name, s, nu, h)] for nu, h in _variants(name)]
        band = min(entries) * 10.0 + 1e-12
        return next(r for r in entries if r <= band)

    other = None
    if not strict_paper:
        plus = max(best(name, 1.0) for name in NAMES)
        minus = max(best(name, -1.0) for name in NAMES)
        other = {name: best(name, -1.0 if plus <= minus else 1.0) for name in NAMES}

    v_HY = {"H_h": 0.0, "H_w": 0.0}
    HU = {"H_h": 0.0, "H_w": 0.0}
    premise = 0.0
    for st in states:
        bd, gw = st.bundle, st.gw
        premise = max(premise, float(np.max(np.abs(gw.h @ bd.U))))
        for key, H in (("H_h", gw.H_h), ("H_w", gw.H_w)):
            v_HY[key] = max(v_HY[key], float(np.max(np.abs(bd.v @ H))))
            HU[key] = max(HU[key], float(np.max(np.abs(H @ bd.U))))
    return variants, other, v_HY, premise, HU, len(pairs)


@pytest.mark.parametrize("strict_paper", [False, True])
@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_battery_equals_per_variant_oracle(surface, strict_paper):
    # an odd direction count leaves the last direction unpaired, as the oracle's zip does
    for directions in (6, 7):
        states = _states(surface, directions=directions)
        rows, sign, v_HY_measured = verify_differential_identities(
            states, tolerance=1e-5, strict_paper=strict_paper)
        variants, other, v_HY, premise, HU, pair_count = _oracle(_points(states), strict_paper)
        assert pair_count == len(states.dirs) * 3
        for name in NAMES:
            r = by_name(rows, name)
            assert r.samples_used == pair_count
            assert r.convention.endswith(STRUCTURE_TAGS[sign]), name
            assert r.details["variants"] == variants[name], (directions, name)
            assert list(r.details["variants"]) == list(variants[name]), name
            if strict_paper:
                assert "best_other_structure_sign" not in r.details
            else:
                assert r.details["best_other_structure_sign"] == other[name], (directions, name)
        assert v_HY_measured == v_HY
        r18 = by_name(rows, "2.18")
        assert r18.details == {"premise_max_h_Y_U": premise, "HU_norms": HU,
                               "vacuous": premise > 1e-5}
        assert r18.max_residual == HU["H_h"]
        assert r18.samples_used == len(states.dirs)


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_pair_vectors_equal_per_pair_products_bit_for_bit(surface, seed):
    # the report's own states, whose records are views with the report's strides
    config = replace(load_suite_config(SURFACES[surface]), seed=seed)
    states = _Context(config).states
    block = _pair_vectors(states)
    K = states.dirs.shape[1] // 2
    assert block.shape == (len(states.dirs), K, 10, states.dirs.shape[2])
    for p, st in enumerate(_points(states)):
        bd, gw = st.bundle, st.gw
        for k, (X, Y) in enumerate(zip(st.dirs[0::2], st.dirs[1::2])):
            HY = [H @ Y for H in (gw.H_h, gw.H_w, -gw.H_w)]
            want = np.array([bd.phi @ Y, np.einsum("i,iab,b->a", Y, st.covphi, X),
                             np.einsum("i,ia->a", Y, st.covU), np.einsum("i,ia->a", Y, st.covV),
                             *HY, *(bd.phi @ hy for hy in HY)])
            assert np.array_equal(block[p, k].view(np.int64), want.view(np.int64)), (p, k)


@pytest.mark.parametrize("strict_paper", [False, True])
@pytest.mark.parametrize("surface", ["quadric_r3", "quadric_r5"])
def test_battery_passes_over_nan_residuals_like_the_oracle(surface, strict_paper):
    states = _states(surface)
    covphi, covU = states.covphi.copy(), states.covU.copy()
    # one NaN component each: it spoils one entry of (2.11)'s and (2.14)'s
    # vector residuals at every pair of points 3 and 5
    covphi[3, 0, 1, 0] = covU[5, 1, 0] = np.nan
    states = replace(states, covphi=covphi, covU=covU)
    rows, _, _ = verify_differential_identities(states, strict_paper=strict_paper)
    variants = _oracle(_points(states), strict_paper)[0]
    for name in NAMES:
        assert by_name(rows, name).details["variants"] == variants[name], name
    # such a pair's maximum is NaN, so the whole pair is passed over, its
    # finite components included: the point drops out of that identity
    for name, point in (("2.11", 3), ("2.14", 5)):
        rest = _oracle([st for i, st in enumerate(_points(states)) if i != point],
                       strict_paper)[0]
        assert variants[name] == rest[name], name
        assert all(np.isfinite(r) for r in variants[name].values()), name


@pytest.mark.parametrize("surface", ["quadric_r3", "quadric_r5"])
def test_eq_2_18_passes_over_nan_inputs_like_the_oracle(surface):
    states = _states(surface)
    h, H_h = states.gw.h.copy(), states.gw.H_h.copy()
    # point 2's h(., U) and point 4's H_h U and v(H_h .) each have a NaN entry
    h[2, 0, 0] = H_h[4, 0, 0] = np.nan
    states = replace(states, gw=replace(states.gw, h=h, H_h=H_h))
    rows, _, v_HY_measured = verify_differential_identities(states)
    variants, _, v_HY, premise, HU, _ = _oracle(_points(states), strict_paper=False)
    r18 = by_name(rows, "2.18")
    assert r18.details["premise_max_h_Y_U"] == premise
    assert r18.details["HU_norms"] == HU
    assert v_HY_measured == v_HY
    # each NaN point is passed over, as a running max over the points does
    for value in (premise, *HU.values(), *v_HY.values()):
        assert np.isfinite(value) and value > 0.0
    for name in NAMES:
        assert by_name(rows, name).details["variants"] == variants[name], name


@pytest.mark.parametrize("dim", [2, 4])
def test_stacked_bilinear_equals_the_scalar_form_bit_for_bit(dim):
    rng = np.random.default_rng(40 + dim)
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -3e-310, 2.2e-308, 1e308])
    rows = 500

    def draw(*shape):
        a = rng.standard_normal((rows, *shape))
        hit = rng.random(a.shape) < 0.2
        a[hit] = rng.choice(special, size=hit.sum())
        return a

    y, M, x = draw(dim), draw(dim, dim), draw(dim)
    drawn = np.concatenate([y.ravel(), M.ravel(), x.ravel()]).view(np.int64)
    assert np.isin(special.view(np.int64), drawn).all()
    with np.errstate(all="ignore"):
        got = linalg.bilinear(y, M, x)
    want = np.array([_bilinear(y[r], M[r], x[r]) for r in range(rows)])
    assert np.isnan(want).any() and np.isinf(want).any()
    # IEEE 754 leaves open which operand's sign a NaN result carries (and
    # the hardware picks by operand position); the battery reads the form
    # only through abs, so a NaN must stay NaN, every other total keep its bits
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def test_battery_without_a_direction_pair_raises():
    with pytest.raises(ValueError, match="direction pair"):
        verify_differential_identities(_states("plane_r3", directions=1))


@pytest.mark.parametrize("strict_paper", [False, True])
@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_battery_variants_equal_single_state_batteries(surface, strict_paper):
    states = _states(surface, count=8, seed=29)
    whole = verify_differential_identities(states, strict_paper=strict_paper)[0]
    singles = [verify_differential_identities(row(states, slice(i, i + 1)),
                                              strict_paper=strict_paper)[0]
               for i in range(len(states.dirs))]
    for name in NAMES:
        r = by_name(whole, name)
        parts = [by_name(s, name) for s in singles]
        assert r.samples_used == sum(p.samples_used for p in parts), name
        assert list(r.details["variants"]) == list(parts[0].details["variants"]), name
        for key, value in r.details["variants"].items():
            assert value == max(p.details["variants"][key] for p in parts), (name, key)
    assert by_name(whole, "2.18").samples_used == sum(by_name(s, "2.18").samples_used
                                                     for s in singles)


def _scaled_H(st, factor):
    """States with h = 0, so that h(Y, U) = 0, and H_h scaled by ``factor``."""
    gw = replace(st.gw, h=np.zeros_like(st.gw.h), H_h=factor * st.gw.H_h)
    return replace(st, gw=gw)


@pytest.mark.parametrize("surface", ["plane_r3", "quadric_r3_scaled", "quadric_r5"])
def test_eq_2_18_row_is_decided_where_its_premise_holds(surface):
    config = load_suite_config(SURFACES[surface])
    tol = config.tolerances["differential"]
    real = _Context(config).states
    norm = max(float(np.max(np.abs(H @ U))) for H, U in zip(real.gw.H_h, real.bundle.U))
    assert norm > tol
    for factor, verdict in ((1.0, "fail"), (2.0 * tol / norm, "fail"),
                            (0.5 * tol / norm, "pass"), (0.0, "pass")):
        ctx = _Context(config)
        ctx.states = _scaled_H(real, factor)
        row = GROUPS["differential"](ctx)[-1]
        assert row.name == "eq_2_18"
        assert not row.details["vacuous"]
        assert row.details["premise_max_h_Y_U"] == 0.0
        assert row.max_residual == row.details["HU_norms"]["H_h"]
        assert (row.max_residual <= tol) == (verdict == "pass"), factor
        assert row.verdict == verdict, factor
