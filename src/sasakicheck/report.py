"""Verification reports: JSON for machines, a fixed-width table for humans.

One verdict vocabulary serves report rows and the implication results
of ``theorems.py`` alike: ``pass``/``fail`` for tolerance checks,
``vacuous`` for implication checks whose hypothesis never held,
``refuted`` for identity claims and implications whose conclusion
misses.  :func:`verdict` is the one rule that picks among them.  Only
``fail`` affects the exit code; a refuted claim is a finding about the
identity, not an engine failure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_CHECK_FAILED = 2


def verdict(residual, tol, miss: str = "fail", held: bool = True) -> str:
    """``vacuous`` unless ``held``, else ``pass`` when ``residual <= tol``, else
    ``miss``.  So a NaN residual never passes, and a gate ``held=hyp <= eps``
    reads a NaN hypothesis as never holding."""
    if not held:
        return "vacuous"
    return "pass" if residual <= tol else miss


@dataclass
class CheckResult:
    name: str
    equation_ref: str
    max_residual: Optional[float]
    tolerance: Optional[float]
    verdict: str
    convention: str = ""
    samples_used: int = 0
    samples_excluded: int = 0
    details: dict = dc_field(default_factory=dict)


@dataclass
class VerificationReport:
    meta: Dict
    checks: List[CheckResult]

    def failed(self) -> List[CheckResult]:
        return [c for c in self.checks if c.verdict == "fail"]


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "meta": report.meta,
        "checks": [
            {
                "name": c.name,
                "equation_ref": c.equation_ref,
                "max_residual": c.max_residual,
                "tolerance": c.tolerance,
                "verdict": c.verdict,
                "convention": c.convention,
                "samples_used": c.samples_used,
                "samples_excluded": c.samples_excluded,
                "details": c.details,
            }
            for c in report.checks
        ],
    }


def render_json(report: VerificationReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"


def _fmt(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, float):
        return f"{x:.3e}"
    return str(x)


def render_text(report: VerificationReport) -> str:
    lines = []
    meta = report.meta
    lines.append(f"suite: {meta.get('config', '?')}   seed: {meta.get('seed', '?')}   "
                 f"version: {meta.get('version', '?')}")
    if "structure_sign" in meta:
        lines.append(f"adjudicated structure sign: {meta['structure_sign']}")
    header = f"{'check':<24} {'ref':<18} {'residual':>11} {'tol':>9} {'verdict':<8} convention"
    lines.append(header)
    lines.append("-" * len(header))
    for c in report.checks:
        lines.append(
            f"{c.name:<24} {c.equation_ref:<18} {_fmt(c.max_residual):>11} "
            f"{_fmt(c.tolerance):>9} {c.verdict:<8} {c.convention}"
        )
    n_fail = len(report.failed())
    lines.append("-" * len(header))
    lines.append(f"{len(report.checks)} checks, {n_fail} failed")
    return "\n".join(lines) + "\n"


def exit_code_for(report: VerificationReport) -> int:
    return EXIT_CHECK_FAILED if report.failed() else EXIT_OK
