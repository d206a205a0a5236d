"""A Sasakian automorphism leaves every chart-side measurement unchanged.

F(x, y, z) = (x + a, y + b, z + c + b sum_i x^i) and the reflection
R(x, y, z) = (-x, -y, z) preserve eta = (dz - sum_i y^i dx^i)/2, the
metric g and phi of ``standard_sasakian(n)``.  So a surface composed
with either has the same induced (phi, g, u, v, lambda) data, the same
Gauss-Weingarten data in its chart frame, and the same report rows, up
to roundoff: each only moves the images and pushes the ambient vectors
forward by its constant differential.  This checks
the split, the Gauss-Weingarten layer and the differential battery
against an answer they do not compute themselves.  The mutant
z + c - b sum_i x^i is not an automorphism, and it must move the data.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from sasakicheck.config import load_suite_config
from sasakicheck.report import report_to_dict
from sasakicheck.runner import _Context, run_suite

from conftest import SURFACES

A, B, C = 0.3, -0.7, 1.25
GROUPS = ["gauss_weingarten", "structure", "algebraic", "differential", "theorems"]
# the benchmark's roundoff bound for report floats (perfbench/compare.py)
ABS_TOL, REL_TOL = 1e-12, 1e-9
# Gauss-Weingarten arrays in the chart frame; the rest are ambient vectors
GW_CHART = ("induced_gamma", "h", "H_w", "H_h", "w")
GW_AMBIENT = ("D", "DN")
FRAME_AMBIENT = ("jacobian", "normal")


def _composed(config, z_sign=1.0):
    """The config whose map is F after the config's own map; with
    ``z_sign`` = -1 the mutant z + c - b sum_i x^i."""
    n, out = config.n, config.outputs
    xsum = " + ".join(f"({e})" for e in out[:n])
    outputs = ([f"({e}) + ({A})" for e in out[:n]] + [f"({e}) + ({B})" for e in out[n:2 * n]]
               + [f"({out[2 * n]}) + ({C}) + ({z_sign * B})*({xsum})"])
    return replace(config, outputs=outputs)


def _dF(n):
    """F's differential, the same at every point."""
    J = np.eye(2 * n + 1)
    J[2 * n, :n] = B
    return J


def _reflected(config):
    """The config whose map is R after the config's own map."""
    out = config.outputs
    return replace(config, outputs=[f"-({e})" for e in out[:-1]] + out[-1:])


def _dR(n):
    """R's differential, diag(-1, ..., -1, 1)."""
    return np.diag([-1.0] * (2 * n) + [1.0])


def _close(want, got):
    want, got = np.asarray(want), np.asarray(got)
    return want.shape == got.shape and bool(np.all(np.abs(got - want)
                                                   <= ABS_TOL + REL_TOL * np.abs(want)))


def _same_report(want, got, where=""):
    """Floats within the roundoff bound, everything else exactly."""
    if isinstance(want, dict):
        assert list(want) == list(got), where
        for key in want:
            _same_report(want[key], got[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(want) == len(got), where
        for i, (w, g) in enumerate(zip(want, got)):
            _same_report(w, g, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and _close(want, got), (where, want, got)
    else:
        assert type(want) is type(got) and want == got, (where, want, got)


def _report(config):
    report = report_to_dict(run_suite(config))
    for key in ("generated_at", "embedding"):
        report["meta"].pop(key)
    return report


@pytest.mark.parametrize("seed", [3, 7])
@pytest.mark.parametrize("surface", sorted(SURFACES))
@pytest.mark.parametrize("automorphism,differential", [(_composed, _dF), (_reflected, _dR)],
                         ids=["F", "R"])
def test_automorphism_leaves_chart_side_unchanged(automorphism, differential, surface, seed):
    config = replace(load_suite_config(SURFACES[surface]), seed=seed, checks=GROUPS)
    moved = automorphism(config)
    base, image = _Context(config), _Context(moved)
    for f in fields(base.structure.stack):
        assert _close(getattr(base.structure.stack, f.name),
                      getattr(image.structure.stack, f.name)), f.name
    dF = differential(config.n)
    for key in GW_CHART:
        assert _close(getattr(base.gws, key), getattr(image.gws, key)), key
    ambient = ([(base.gws, image.gws, key) for key in GW_AMBIENT]
               + [(base.frames, image.frames, key) for key in FRAME_AMBIENT])
    for before, after, key in ambient:
        # the ambient index comes right after the point axis
        pushed = np.moveaxis(np.tensordot(dF, getattr(before, key), axes=(1, 1)), 0, 1)
        assert _close(pushed, getattr(after, key)), key
    want, got = _report(config), _report(moved)
    assert want["meta"]["structure_sign"] == got["meta"]["structure_sign"]
    _same_report(want, got)


@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_non_automorphism_moves_the_induced_data(surface):
    config = replace(load_suite_config(SURFACES[surface]), checks=GROUPS)
    base = _Context(config).structure.stack
    mutant = _Context(_composed(config, z_sign=-1.0)).structure.stack
    moved = max(float(np.max(np.abs(getattr(base, f.name) - getattr(mutant, f.name))))
                for f in fields(base) if getattr(base, f.name) is not None)
    assert moved > 1e-3
