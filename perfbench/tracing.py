"""Span tracing of the engine from outside, by wrapping its public functions.

The engine binds most cross-module names with ``from .x import y``, so
replacing ``x.y`` alone would miss callers.  ``Tracer.installed`` wraps
each target function once and rebinds every name in every
``sasakicheck`` module that refers to the original object; methods are
wrapped on their class.  Leaving the ``with`` block restores the
originals, so untraced work in the same process runs unwrapped code.

Spans are kept in memory as ``[name, parent, tag, start, end]`` lists;
``parent`` is the index of the enclosing span (-1 at top level) and
``tag`` is whatever the caller set as ``Tracer.tag`` when the span
opened, which the benchmark uses to label setup and each report.  A
span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Iterable, List

# span name -> (module, function) pairs it covers
FUNCTIONS = {
    "config.load": [("config", "load_suite_config")],
    "exprs.compile": [("exprs", "compile_expression"), ("exprs", "compile_map")],
    "sasakian.standard": [("sasakian", "standard_sasakian")],
    "sasakian.axioms": [("sasakian", "check_sasakian_axioms")],
    "fields.jet": [("fields", "jet")],
    "fields.evaluate": [("fields", "evaluate")],
    "dual.seed": [("dual", "seed")],
    "linalg.solve_columns": [("linalg", "solve_columns")],
    "linalg.det": [("linalg", "det")],
    "connection.christoffel": [("connection", "christoffel")],
    "hypersurface.gauss_weingarten": [("hypersurface", "gauss_weingarten")],
    "hypersurface.reconstruction": [("hypersurface", "reconstruction_residuals")],
    "induced.extract": [("induced", "extract_structure")],
    "induced.algebraic": [("induced", "verify_algebraic_identities")],
    "induced.differential": [("induced", "verify_differential_identities")],
    "theorems.parallel_residual": [("theorems", "parallel_residual")],
    "theorems.chart": [("theorems", "theorem_3_1_chart"), ("theorems", "theorem_3_2_chart"),
                       ("theorems", "theorem_3_3_chart"), ("theorems", "check_theorem_3_4")],
    "theorems.models": [("theorems", "make_pointwise_model"),
                        ("theorems", "model_structure_residuals"),
                        ("theorems", "check_theorem_3_1"), ("theorems", "check_theorem_3_2"),
                        ("theorems", "check_theorem_3_3"),
                        ("theorems", "theorem_3_4_model_consistency")],
    "runner.run_suite": [("runner", "run_suite")],
    "report.render": [("report", "render_json")],
}

# span name -> (module, class, method)
METHODS = {
    "induced.values_at": ("induced", "InducedStructure", "values_at"),
    "induced.bundle_at": ("induced", "InducedStructure", "bundle_at"),
}

# spans whose return value carries ``samples_excluded``
EXCLUSION_SPANS = frozenset({"theorems.chart"})

PACKAGE = "sasakicheck"


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.excluded: Dict[object, int] = {}
        self.tag: object = None
        self._stack: List[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count_excluded = name in EXCLUSION_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, self.tag, 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            if count_excluded:
                self.excluded[span[2]] = (self.excluded.get(span[2], 0)
                                          + getattr(result, "samples_excluded", 0))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target where the engine looks it up; restore on exit."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        undo = []
        try:
            for span_name, targets in FUNCTIONS.items():
                for module_name, attr in targets:
                    original = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), attr)
                    wrapped = self._wrap(span_name, original)
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                undo.append((module, key, original))
                                setattr(module, key, wrapped)
            for span_name, (module_name, cls_name, method) in METHODS.items():
                cls = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), cls_name)
                original = cls.__dict__[method]
                undo.append((cls, method, original))
                setattr(cls, method, self._wrap(span_name, original))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def totals(self, tags: Iterable[object]) -> Dict[str, LayerTotals]:
        """Calls and self seconds per span name over spans with one of ``tags``."""
        wanted = set(tags)
        child_s = [0.0] * len(self.spans)
        for name, parent, tag, start, end in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: Dict[str, LayerTotals] = {}
        for i, (name, parent, tag, start, end) in enumerate(self.spans):
            if tag in wanted:
                t = out.setdefault(name, LayerTotals())
                t.calls += 1
                t.self_s += end - start - child_s[i]
        return out
