"""Count and sha256 of a fixed set of rendered JSON reports.

    python3 tools/report_digest.py [--seeds 25]

The set is every shipped config in ``configs/`` plus
``perfbench/configs/quadric_r5.cfg`` (read, never written), at seeds
0 .. N-1:

* each config's own checks and sample count, strict paper mode off and on;
* a few group subsets at 60 points, strict paper mode off, which read
  the surface through different paths (value-only frames, frames with
  partials, the sample states alone).

Each report is rendered as the CLI's JSON with ``generated_at`` masked,
and the digest is taken over the texts in that order.  Two commits that
print the same line produce the same reports bit for bit, so a refactor
can show that it changes no number.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# one BLAS thread, as in the benchmark worker, before numpy is imported
os.environ.update({name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                          "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                          "NUMEXPR_NUM_THREADS")})
sys.path.insert(0, str(ROOT / "src"))

from sasakicheck.config import load_suite_config  # noqa: E402
from sasakicheck.report import render_json  # noqa: E402
from sasakicheck.runner import run_suite  # noqa: E402

CONFIGS = sorted((ROOT / "configs").glob("*.cfg")) + [ROOT / "perfbench" / "configs" / "quadric_r5.cfg"]
SUBSETS = (["structure", "algebraic"], ["gauss_weingarten", "structure"],
           ["structure", "differential"], ["theorems"])
SUBSET_POINTS = 60
TIMESTAMP = re.compile(r'"generated_at": "[^"]*"')


def variants(config, seeds: int):
    """The configurations of the set for one loaded config, in digest order."""
    for seed in range(seeds):
        for strict in (False, True):
            yield dataclasses.replace(config, seed=seed, strict_paper=strict)
        for checks in SUBSETS:
            yield dataclasses.replace(config, seed=seed, strict_paper=False, checks=checks,
                                      count=SUBSET_POINTS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=25, help="seeds 0 .. N-1 (default 25)")
    args = parser.parse_args(argv)
    digest, count = hashlib.sha256(), 0
    for path in CONFIGS:
        for config in variants(load_suite_config(path), args.seeds):
            text = TIMESTAMP.sub('"generated_at": "TIMESTAMP"', render_json(run_suite(config)))
            digest.update(text.encode())
            count += 1
    print(f"reports {count} sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
