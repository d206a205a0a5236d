"""Verdicts do not depend on the BLAS kernel.

``test_config_cli.py::test_golden_reports`` compares the shipped reports
byte for byte, and their last float bits follow the OpenBLAS kernel that
numpy picks for the host.  Here each golden config is rendered in a child
process with the kernel forced through ``OPENBLAS_CORETYPE`` and compared
with its golden through the benchmark's own comparison,
``perfbench/compare.diff`` (imported read-only, as ``regen_goldens.py``
imports it): strings, integers and booleans exactly, floats within its
roundoff bound.  Only the children's environment is set.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))

from compare import diff  # noqa: E402

GOLDENS = ["plane_r3", "quadric_r3", "plane_r5", "quadric_r3_scaled"]
RENDER = ("import json, sys\n"
          "from test_config_cli import CONFIGS, normalized_json_report\n"
          "print(json.dumps({name: normalized_json_report(CONFIGS / f'{name}.cfg')"
          " for name in sys.argv[1:]}))")


def _openblas_on_x86_64():
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower() and platform.machine() in (
        "x86_64", "AMD64")


@pytest.mark.skipif(not _openblas_on_x86_64(), reason="needs numpy on OpenBLAS on x86-64")
@pytest.mark.parametrize("core", ["Haswell", "Prescott"])
def test_golden_verdicts_hold_under_another_blas_kernel(core):
    path = os.pathsep.join([str(HERE.parent / "src"), str(HERE)])
    env = {**os.environ, "OPENBLAS_CORETYPE": core, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", RENDER, *GOLDENS], cwd=HERE, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    rendered = json.loads(done.stdout)
    for name in GOLDENS:
        golden = json.loads((HERE / "golden" / f"{name}.json").read_text())
        assert diff(golden, json.loads(rendered[name]), name) == []
