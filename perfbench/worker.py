"""Engine-side half of the benchmark; ``run.py`` starts it in a fresh process.

    worker.py --root DIR --workload NAME --seed N --mode setup|timed|traced
              [--seconds S]

Every mode first does the set-up a user pays before the first verdict
(engine and numpy import, config load, expression compile,
``standard_sasakian``) and then prints ``ready <kernel seconds>
<samples>``, the host-speed samples taken during set-up.  ``setup``
exits there.  ``timed`` runs reports closed-loop for ``--seconds``
seconds, one caller, each report starting only when the previous one
rendered; it samples host speed throughout (``calibrate.HostSpeed``).
``traced`` runs each check group alone on one round of the workload
(one report per config), then that round twice, each report once
untraced and once under the tracer.  Both then check every report
against its reference and print one JSON line.
"""

from __future__ import annotations

import argparse
import dataclasses
import gzip
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from itertools import islice
from pathlib import Path
from time import perf_counter

from calibrate import HostSpeed, scale
from compare import diff, expected_exit_code, load_references
from tracing import Tracer
from workloads import (ALL_GROUPS, GOLDEN_DIR, GOLDEN_SEED, WORKLOADS, config_name,
                       reference_key, report_sequence)

# numpy and engine modules, bound by load_engine() so that the import is
# timed and, in timed runs, host-speed sampled
np = config = exprs = report = runner = sasakian = None

# Per-point waste counts that must repeat exactly between two traced passes.
WASTE_RATIOS = ("hypersurface.gw_calls_per_point", "induced.bundle_calls_per_point",
                "connection.christoffel_calls_per_point", "dual.seed_calls_per_point")


def load_engine() -> float:
    """Import numpy and the engine; return the seconds it took."""
    global np, config, exprs, report, runner, sasakian
    start = perf_counter()
    import numpy as np
    from sasakicheck import config, exprs, report, runner, sasakian
    return perf_counter() - start


def setup(root: Path, workload) -> dict:
    """Load the workload's configs and build what a report builds first.

    ``run_suite`` compiles the expressions and builds the ambient structure
    again; doing it here once makes ``setup_s`` cover their first-call cost.
    """
    configs = {}
    for path in workload.configs:
        cfg = config.load_suite_config(root / path)
        cfg = dataclasses.replace(cfg, checks=list(workload.groups),
                                  count=workload.count or cfg.count)
        exprs.compile_map(cfg.outputs, cfg.inputs)
        if cfg.scaling is not None:
            exprs.compile_expression(cfg.scaling, cfg.inputs)
        sasakian.standard_sasakian(cfg.n)
        configs[path] = cfg
    return configs


def run_report(cfg):
    """One report, timed from the ``run_suite`` call to the rendered JSON."""
    start = perf_counter()
    try:
        rep = runner.run_suite(cfg)
        text = report.render_json(rep)
    except Exception:  # a report that raises is a counted mismatch, not a crash
        return perf_counter() - start, None, None, traceback.format_exc()
    return perf_counter() - start, text, report.exit_code_for(rep), None


def check(root: Path, workload, outputs):
    """Check ``(path, seed, text, exit_code, error)`` rows against references.

    Returns the number of rows that mismatched and a description of each
    difference found.
    """
    references = load_references(root, workload.name)
    failed, problems = 0, []
    for path, seed, text, code, error in outputs:
        key = reference_key(path, seed)
        if error is not None:
            failed += 1
            problems.append(f"{key}: raised\n{error}")
            continue
        if workload.golden_first and seed == GOLDEN_SEED:
            golden = root / GOLDEN_DIR / f"{config_name(path)}.json"
            reference = json.loads(golden.read_text())
        elif key in references:
            reference = references[key]
        else:
            failed += 1
            problems.append(f"{key}: no reference")
            continue
        found = diff(reference, json.loads(text), key)
        if code != expected_exit_code(reference):
            found.append(f"{key}: exit code {code}, expected {expected_exit_code(reference)}")
        failed += bool(found)
        problems.extend(found)
    return failed, problems


def provenance(workload, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def timed(root: Path, workload, configs: dict, host: HostSpeed, seed: int,
          seconds: float) -> dict:
    """Closed-loop reports for ``seconds``, each timed raw and host-scaled."""
    outputs, durations, scaled, points = [], [], [], 0
    start = perf_counter()
    for path, cfg_seed in report_sequence(workload, seed):
        cfg = dataclasses.replace(configs[path], seed=cfg_seed)
        kernel_s, samples = host.reading()
        elapsed, text, code, error = run_report(cfg)
        kernel_after, samples_after = host.reading()
        durations.append(elapsed)
        scaled.append(scale(elapsed, kernel_after - kernel_s, samples_after - samples))
        points += cfg.count
        outputs.append((path, cfg_seed, text, code, error))
        if perf_counter() - start >= seconds:
            break
    host.stop()
    kernel_s, samples = host.reading()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed, problems = check(root, workload, outputs)
    return {
        "durations": durations,
        "scaled": scaled,
        "kernel_mean_s": kernel_s / samples,
        "points": points,
        "peak_rss_kb": peak_rss_kb,
        "reports": len(outputs),
        "failed": failed,
        "problems": problems,
    }


def layer_metrics(tracer: Tracer, passes, n_reports: int, n_points: int, import_s: float):
    """Per-layer metrics from the setup spans and two passes over one round.

    Returns the metrics and the waste ratios that differ between passes.
    """
    setup_t = tracer.totals(["setup"])
    per_pass = [tracer.totals(tags) for tags in passes]
    both = tracer.totals([t for tags in passes for t in tags])
    excluded = sum(tracer.excluded.get(t, 0) for t in passes[0])

    def setup_s(name):
        return setup_t[name].self_s if name in setup_t else 0.0

    def self_s(*names):  # mean self seconds per report over both passes
        return sum(both[n].self_s for n in names if n in both) / (len(passes) * n_reports)

    def calls(name, totals=per_pass[0]):
        return totals[name].calls if name in totals else 0

    def ratios(totals):
        return {
            "hypersurface.gw_calls_per_point":
                calls("hypersurface.gauss_weingarten", totals) / n_points,
            "induced.bundle_calls_per_point": calls("induced.bundle_at", totals) / n_points,
            "connection.christoffel_calls_per_point":
                calls("connection.christoffel", totals) / n_points,
            "dual.seed_calls_per_point": calls("dual.seed", totals) / n_points,
        }

    values = {
        "setup.import_s": import_s,
        "config.load_s": setup_s("config.load"),
        "exprs.compile_s": setup_s("exprs.compile"),
        "sasakian.standard_s": setup_s("sasakian.standard"),
        "sasakian.axioms_s": self_s("sasakian.axioms"),
        "sasakian.axioms_calls": calls("sasakian.axioms") / n_reports,
        "fields.jet_calls": calls("fields.jet") / n_reports,
        "fields.jet_s": self_s("fields.jet"),
        "fields.evaluate_calls": calls("fields.evaluate") / n_reports,
        "fields.evaluate_s": self_s("fields.evaluate"),
        "dual.seed_calls": calls("dual.seed") / n_reports,
        "dual.seed_s": self_s("dual.seed"),
        "linalg.solve_columns_calls": calls("linalg.solve_columns") / n_reports,
        "linalg.solve_columns_s": self_s("linalg.solve_columns"),
        "linalg.det_calls": calls("linalg.det") / n_reports,
        "linalg.det_s": self_s("linalg.det"),
        "connection.christoffel_calls": calls("connection.christoffel") / n_reports,
        "connection.christoffel_s": self_s("connection.christoffel"),
        "hypersurface.gauss_weingarten_calls":
            calls("hypersurface.gauss_weingarten") / n_reports,
        "hypersurface.gauss_weingarten_s": self_s("hypersurface.gauss_weingarten"),
        "hypersurface.reconstruction_s": self_s("hypersurface.reconstruction"),
        "induced.extract_s": self_s("induced.extract"),
        "induced.values_at_s": self_s("induced.values_at"),
        "induced.bundle_at_calls": calls("induced.bundle_at") / n_reports,
        "induced.bundle_at_s": self_s("induced.bundle_at"),
        "induced.algebraic_s": self_s("induced.algebraic"),
        "induced.differential_s": self_s("induced.differential"),
        "theorems.chart_s": self_s("theorems.chart", "theorems.parallel_residual"),
        "theorems.parallel_residual_calls": calls("theorems.parallel_residual") / n_reports,
        "theorems.models_s": self_s("theorems.models"),
        "theorems.samples_excluded": excluded / n_reports,
        "runner.self_s": self_s("runner.run_suite"),
        "report.render_s": self_s("report.render"),
    }
    values.update(ratios(per_pass[0]))
    repeat = [ratios(t) for t in per_pass]
    unrepeated = [k for k in WASTE_RATIOS if any(r[k] != repeat[0][k] for r in repeat)]
    return values, unrepeated


def traced(root: Path, workload, configs: dict, tracer: Tracer, seed: int,
           import_s: float) -> dict:
    first_round = list(islice(report_sequence(workload, seed), len(workload.configs)))
    round_cfgs = [(path, s, dataclasses.replace(configs[path], seed=s))
                  for path, s in first_round]

    # Each group alone includes the structure extraction it shares with the
    # others, so group times do not add up to a full report.
    group_s = {}
    for group in workload.groups:
        times = [run_report(dataclasses.replace(cfg, checks=[group]))[0]
                 for _, _, cfg in round_cfgs]
        group_s[group] = statistics.fmean(times)

    # Each report runs untraced and then traced, back to back, so that host
    # drift does not leak into the overhead ratio.
    outputs, passes, untraced_s, traced_s = [], [], [], []
    for name in ("A", "B"):
        tags = []
        for i, (path, s, cfg) in enumerate(round_cfgs):
            elapsed, *result = run_report(cfg)
            untraced_s.append(elapsed)
            outputs.append((path, s, *result))
            tracer.tag = (name, i)
            tags.append(tracer.tag)
            with tracer.installed():
                elapsed, *result = run_report(cfg)
            traced_s.append(elapsed)
            outputs.append((path, s, *result))
        passes.append(tags)

    n_points = sum(cfg.count for _, _, cfg in round_cfgs)
    metrics, unrepeated = layer_metrics(tracer, passes, len(round_cfgs), n_points,
                                        import_s)
    for group in ALL_GROUPS:  # 0 for groups this workload does not run
        metrics[f"runner.group.{group}_s"] = group_s.get(group, 0.0)
    metrics["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(untraced_s)
    failed, problems = check(root, workload, outputs)
    problems += [f"{k}: differs between the two traced passes" for k in unrepeated]
    return {"metrics": metrics, "reports": len(outputs), "failed": failed,
            "problems": problems}


def write_spans(tracer: Tracer, out_dir: Path, workload, seed: int) -> Path:
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload.name}-seed{seed}.json.gz"
    with gzip.open(path, "wt") as fh:
        json.dump([[name, parent, str(tag), start, end]
                   for name, parent, tag, start, end in tracer.spans], fh)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out-dir", type=Path, default=None,
                        help="traced mode: write the spans here")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    workload = WORKLOADS[args.workload]

    # Traced runs are not host-scaled: the sampler would run inside spans.
    host = HostSpeed()
    if args.mode != "traced":
        host.start()
    import_s = load_engine()
    engine = Path(runner.__file__).resolve()
    if root / "src" not in engine.parents:
        host.stop()
        print(f"error: imported the engine from {engine}, not from {root / 'src'}",
              file=sys.stderr)
        return 1

    tracer = Tracer()
    if args.mode == "traced":
        tracer.tag = "setup"
        with tracer.installed():
            configs = setup(root, workload)
    else:
        configs = setup(root, workload)
    kernel_s, samples = host.reading()
    # the set-up's own host-speed samples, so run.py can scale its set-up time
    print(f"ready {kernel_s!r} {samples}", flush=True)
    if args.mode == "setup":
        host.stop()
        return 0

    if args.mode == "timed":
        result = timed(root, workload, configs, host, args.seed, args.seconds)
    else:
        result = traced(root, workload, configs, tracer, args.seed, import_s)
        if args.out_dir is not None:
            result["spans_file"] = str(write_spans(tracer, args.out_dir, workload, args.seed))
    result["provenance"] = provenance(workload, args.seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
