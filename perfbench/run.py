"""sasakicheck benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload battery_r3 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics
(``report_p50_s``, ``points_per_s``, ``setup_s``, ``peak_rss_mb``);
the times are scaled to nominal host speed (``calibrate.py``) and the
unscaled wall times are printed above the JSON.  With ``--trace 1`` the
JSON carries the per-layer metrics instead.  Every
report is checked against its reference; ``failed`` counts the reports
that raised, gave an unexpected exit code or differed, and the line
above the JSON states that share as ``mismatch_ratio``.

The engine runs in child processes started from this one, with BLAS and
OpenMP pools pinned to one thread and ``src`` on ``PYTHONPATH``; this
process never imports numpy.  See ``perfbench/README.md`` for the
workloads and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from calibrate import scale
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SPANS_DIR = ROOT / "bench-out"
SETUP_PROBES = 9  # fresh processes that only set up, for setup_s
DEADLINE_S = 170.0  # the whole run must end within 180 s
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({name: "1" for name in THREAD_ENV})
    return env


def run_worker(args, deadline: float):
    """Start a worker and wait for it.

    Returns its set-up time from process start to its ``ready`` line,
    scaled to nominal host speed by the samples the line reports, and the
    last line of its output.
    """
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), "--root", str(ROOT), *args],
                            stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    killer = threading.Timer(max(0.0, deadline - start), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        ready_s = perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        killer.join()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    parts = ready.split()
    if code != 0 or len(parts) != 3 or parts[0] != "ready":
        raise WorkerError(f"worker {' '.join(args)} exited with code {code}")
    lines = rest.strip().splitlines()
    return scale(ready_s, float(parts[1]), int(parts[2])), (lines[-1] if lines else "")


def untraced(workload: str, seed: int, seconds: float, deadline: float):
    base = ["--workload", workload, "--seed", str(seed)]
    setup_samples = [run_worker([*base, "--mode", "setup"], deadline)[0]
                     for _ in range(SETUP_PROBES)]
    line = run_worker([*base, "--mode", "timed", "--seconds", str(seconds)], deadline)[1]
    result = json.loads(line)
    reports = result["scaled"]
    metrics = {
        "report_p50_s": (statistics.median(reports), "s"),
        "points_per_s": (result["points"] / sum(reports), "1/s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }
    result["unscaled"] = {
        "report_p50_s": statistics.median(result["durations"]),
        "points_per_s": result["points"] / sum(result["durations"]),
        "kernel_mean_ms": 1e3 * result["kernel_mean_s"],
    }
    return result, metrics


def traced(workload: str, seed: int, deadline: float):
    args = ["--workload", workload, "--seed", str(seed), "--mode", "traced",
            "--out-dir", str(SPANS_DIR)]
    result = json.loads(run_worker(args, deadline)[1])
    metrics = {name: (value, unit_of(name)) for name, value in result["metrics"].items()}
    return result, metrics


def unit_of(layer_metric: str) -> str:
    if layer_metric == "trace.overhead_ratio":
        return "ratio"
    if layer_metric.endswith("_per_point"):
        return "calls/point"
    if layer_metric.endswith("_calls"):
        return "calls/report"
    if layer_metric == "theorems.samples_excluded":
        return "samples/report"
    if layer_metric.split(".")[0] in ("setup", "config", "exprs") \
            or layer_metric == "sasakian.standard_s":
        return "s"  # once per process set-up
    return "s/report"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/sasakicheck/__init__.py", "configs", "tests/golden")
               if not (ROOT / p).exists()]
    if missing:
        print(f"error: {ROOT} is not a sasakicheck checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2

    deadline = perf_counter() + DEADLINE_S
    try:
        if args.trace:
            result, metrics = traced(args.workload, args.seed, deadline)
        else:
            result, metrics = untraced(args.workload, args.seed, args.seconds, deadline)
    except (WorkerError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, problems = result["reports"], result["failed"], result["problems"]
    for line in problems:
        print(f"mismatch: {line}", file=sys.stderr)
    print("provenance: " + json.dumps(result["provenance"], sort_keys=True))
    if "spans_file" in result:
        print(f"spans: {result['spans_file']}")
    print(f"{args.workload} seed {args.seed}: {attempted} reports, "
          f"mismatch_ratio {failed / attempted:.4f} ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if "unscaled" in result:
        print("  unscaled wall time: " + ", ".join(
            f"{name} = {value:.6g}" for name, value in result["unscaled"].items()))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
