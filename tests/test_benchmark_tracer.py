"""The benchmark's span tracer still finds every engine function it wraps,
and tracing leaves a report unchanged.

``perfbench/tracing.py`` looks each span target up by module and name; a
renamed or deleted engine function breaks only the traced benchmark run.
This test loads the tracer from its file, runs a small report with it
installed and compares the JSON with an untraced run, ``generated_at``
masked.
"""

import importlib.util
import re
import sys

from sasakicheck import report, runner
from sasakicheck.config import load_suite_config

from conftest import REPO

TIMESTAMP = re.compile(r'"generated_at": "[^"]*"')


def _tracing_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("tracing", REPO / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _report_json(config):
    # through the module attributes, which the tracer rebinds while installed
    return TIMESTAMP.sub('"generated_at": ""', report.render_json(runner.run_suite(config)))


def test_traced_report_equals_untraced_report(monkeypatch):
    tracing = _tracing_module(monkeypatch)
    config = load_suite_config(REPO / "configs" / "quadric_r3.cfg")
    config.count = 5
    untraced = _report_json(config)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = _report_json(config)
    assert traced == untraced
    spans = {span[0] for span in tracer.spans}
    # a runner path that bypassed the wrapped names would read zero seconds for its span
    assert {"runner.run_suite", "report.render", "hypersurface.gauss_weingarten",
            "induced.extract", "induced.differential", "theorems.chart",
            "theorems.models"} <= spans
    # leaving the block restored the originals: a later run records no span
    recorded = len(tracer.spans)
    assert _report_json(config) == untraced
    assert len(tracer.spans) == recorded
