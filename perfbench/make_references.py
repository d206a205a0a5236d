"""Record the pinned reference reports under ``perfbench/references``.

    python3 perfbench/make_references.py [WORKLOAD ...]

Runs every (config, pool seed) a workload can draw and stores each
report exactly as the engine rendered it (parsed, keyed
``<config>@<seed>``, the timestamp replaced as in ``tests/golden``) in
``references/<workload>.json.gz``; the output is byte-identical when
the engine's reports are.  Run it only
at a commit whose reports are trusted: the benchmark counts every
difference from these files as a failed report.  The ``battery_r3``
reports at seed 7 are checked against ``tests/golden`` instead and are
not recorded here.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
sys.path.insert(0, str(ROOT / "src"))

from worker import load_engine, run_report, setup  # noqa: E402
from workloads import WORKLOADS, reference_key  # noqa: E402


def record(name: str) -> Path:
    workload = WORKLOADS[name]
    configs = setup(ROOT, workload)
    references = {}
    for path in workload.configs:
        for seed in workload.pool:
            _, text, _, error = run_report(dataclasses.replace(configs[path], seed=seed))
            if error is not None:
                raise SystemExit(f"{reference_key(path, seed)} raised:\n{error}")
            report = json.loads(text)
            report["meta"]["generated_at"] = "TIMESTAMP"  # as in tests/golden
            references[reference_key(path, seed)] = report
    out = ROOT / "perfbench" / "references" / f"{name}.json.gz"
    with open(out, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(references, sort_keys=True, separators=(",", ":")).encode())
    return out


if __name__ == "__main__":
    load_engine()
    for name in sys.argv[1:] or sorted(WORKLOADS):
        print(record(name))
