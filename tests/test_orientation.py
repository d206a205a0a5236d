"""Flipping the normal leaves every report row unchanged, bit for bit.

N -> -N negates u, U, lambda and h, so every identity, theorem and
reconstruction the report measures is either even in the normal or
adjudicated through the structure sign (which the flip leaves alone).
On each shipped config a report with ``orientation`` -1 must print the
same rows as with +1 -- names, residuals, tolerances, verdicts,
conventions, counts and details -- and the same adjudicated structure
sign and measured max |v(H .)|.
"""

import json
from dataclasses import replace

import pytest

from sasakicheck.config import load_suite_config
from sasakicheck.report import report_to_dict
from sasakicheck.runner import run_suite

from conftest import REPO

CONFIGS = sorted((REPO / "configs").glob("*.cfg"))


def _report(config, orientation):
    return report_to_dict(run_suite(replace(config, orientation=orientation)))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_orientation_flip_leaves_every_row_unchanged(path):
    config = load_suite_config(path)
    assert config.orientation == 1
    up, down = _report(config, 1), _report(config, -1)
    assert (down["meta"]["orientation"], up["meta"]["orientation"]) == (-1, 1)
    for key in ("structure_sign", "v_HY_measured"):
        assert json.dumps(down["meta"][key]) == json.dumps(up["meta"][key]), key
    assert len(down["checks"]) == len(up["checks"]) > 0
    # JSON prints each float as its shortest repr, so equal texts are equal bits
    for want, got in zip(up["checks"], down["checks"]):
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True), want["name"]
