"""Peak RSS of the benchmark worker's report loop at a fixed report count.

    python3 tools/rss_at_report_count.py --workload battery_r3 --seed 4 --reports 600

``perfbench/worker.py`` in timed mode runs reports for a fixed time and
keeps every rendered report text until the run ends, so its
``peak_rss_kb`` grows with the number of reports that fit in the run: a
faster engine reads more RSS.  This script runs the same loop (the
worker's set-up, its host-speed sampler, ``report_sequence``,
``run_report`` and the kept ``(path, seed, text, code, error)`` rows)
for a fixed number of reports instead, so two commits can be compared at
equal work.  It checks every report against its reference as the worker
does and prints one JSON line.  It stays until the worker keeps digests
instead of report texts: until then it is the evidence that a speed-up
adds no engine memory, only more kept reports.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the worker's thread settings, before numpy is imported
os.environ.update({name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                          "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                          "NUMEXPR_NUM_THREADS")})
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import worker  # noqa: E402
from calibrate import HostSpeed  # noqa: E402
from workloads import WORKLOADS, report_sequence  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--reports", type=int, required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    host = HostSpeed()
    host.start()
    worker.load_engine()
    configs = worker.setup(ROOT, workload)
    outputs = []
    for path, cfg_seed in islice(report_sequence(workload, args.seed), args.reports):
        _, text, code, error = worker.run_report(dataclasses.replace(configs[path], seed=cfg_seed))
        outputs.append((path, cfg_seed, text, code, error))
    host.stop()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed, _ = worker.check(ROOT, workload, outputs)
    print(json.dumps({"workload": workload.name, "seed": args.seed, "reports": len(outputs),
                      "failed": failed, "peak_rss_mb": peak_rss_kb / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
