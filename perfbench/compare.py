"""Compare a rendered report with its reference.

Every field the reference holds must be present in the report and
match: strings, booleans, integers and nulls exactly (verdicts,
convention tags, sample counts, ``meta.structure_sign``), floats within
a roundoff bound.  Fields only the report has are ignored, so reports
may grow new metadata without tripping the benchmark; ``generated_at``
and ``version`` are never compared.

The roundoff bound is ``ABS_TOL + REL_TOL * |reference|``.  It absorbs
last-bit drift from a different summation order or BLAS build (the
shipped ``quadric_r3`` golden differs from numpy 2.4.6 output by about
2.2e-16), and stays four orders of magnitude below the smallest check
tolerance (1e-8), so no verdict can move inside it.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import List

ABS_TOL = 1e-12
REL_TOL = 1e-9
IGNORED_KEYS = frozenset({"generated_at", "version"})


def diff(reference, report, where: str = "") -> List[str]:
    """Differences between ``reference`` and ``report``, as readable lines."""
    if isinstance(reference, dict):
        if not isinstance(report, dict):
            return [f"{where}: expected an object"]
        out = []
        for key, want in reference.items():
            if key in IGNORED_KEYS:
                continue
            if key not in report:
                out.append(f"{where}.{key}: missing")
            else:
                out.extend(diff(want, report[key], f"{where}.{key}"))
        return out
    if isinstance(reference, list):
        if not isinstance(report, list) or len(report) != len(reference):
            return [f"{where}: expected a list of {len(reference)}"]
        out = []
        for i, (want, got) in enumerate(zip(reference, report)):
            name = want.get("name", i) if isinstance(want, dict) else i
            out.extend(diff(want, got, f"{where}[{name}]"))
        return out
    if isinstance(reference, float) and isinstance(report, (int, float)) \
            and not isinstance(report, bool):
        if abs(report - reference) <= ABS_TOL + REL_TOL * abs(reference):
            return []
        return [f"{where}: {report!r} != {reference!r}"]
    if type(report) is not type(reference) or report != reference:
        return [f"{where}: {report!r} != {reference!r}"]
    return []


def expected_exit_code(reference: dict) -> int:
    """The CLI's documented exit code for a report: 2 if any check failed."""
    return 2 if any(c["verdict"] == "fail" for c in reference["checks"]) else 0


def load_references(root: Path, workload_name: str) -> dict:
    path = root / "perfbench" / "references" / f"{workload_name}.json.gz"
    with gzip.open(path, "rt") as fh:
        return json.load(fh)
