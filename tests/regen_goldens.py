"""Regenerate the golden reports in ``tests/golden`` at seed 7.

    PYTHONPATH=src python tests/regen_goldens.py

Each golden is rebuilt through ``normalized_json_report`` (the function
the golden tests compare with) and diffed against the file on disk.  The
script prints, per golden, how many floats changed and the largest
absolute and relative change.  It writes nothing if any string, integer,
boolean or null field changed, if the report's shape changed, or if a
float moved by more than ``ABS_TOL + REL_TOL * |old|``, the bound the
benchmark uses to compare reports (``perfbench/compare.py``).  Exit code
0 means every golden was written or already current, 1 that the
regeneration was refused.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))

from compare import ABS_TOL, REL_TOL  # noqa: E402
from test_config_cli import CONFIGS, GOLDEN, normalized_json_report  # noqa: E402

SEED = 7


def diff(old, new, where, stats, problems):
    """Walk two JSON values; count float changes in ``stats``, list the rest in ``problems``."""
    if isinstance(old, dict) and isinstance(new, dict):
        if list(old) != list(new):
            problems.append(f"{where}: keys {list(old)} -> {list(new)}")
            return
        for key in old:
            diff(old[key], new[key], f"{where}.{key}", stats, problems)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            problems.append(f"{where}: list of {len(old)} -> {len(new)}")
            return
        for i, (a, b) in enumerate(zip(old, new)):
            name = a.get("name", i) if isinstance(a, dict) else i
            diff(a, b, f"{where}[{name}]", stats, problems)
    elif type(old) is float and type(new) is float:
        if old == new:
            return
        change = abs(new - old)
        stats["changed"] += 1
        stats["max_abs"] = max(stats["max_abs"], change)
        if old != 0.0:
            stats["max_rel"] = max(stats["max_rel"], change / abs(old))
        if change > ABS_TOL + REL_TOL * abs(old):
            problems.append(f"{where}: {old!r} -> {new!r} (beyond {ABS_TOL} + {REL_TOL}*|old|)")
    elif type(old) is not type(new) or old != new:
        problems.append(f"{where}: {old!r} -> {new!r}")


def main() -> int:
    rendered = {}
    refused = False
    for path in sorted(GOLDEN.glob("*.json")):
        text = normalized_json_report(CONFIGS / f"{path.stem}.cfg", seed=SEED)
        stats = {"changed": 0, "max_abs": 0.0, "max_rel": 0.0}
        problems = []
        diff(json.loads(path.read_text()), json.loads(text), path.stem, stats, problems)
        print(f"{path.stem}: {stats['changed']} floats changed, "
              f"max abs change {stats['max_abs']:.3e}, max rel change {stats['max_rel']:.3e}")
        for line in problems:
            print(f"  refused: {line}")
        refused = refused or bool(problems)
        rendered[path] = text
    if refused:
        print("nothing written")
        return 1
    for path, text in rendered.items():
        if path.read_text() != text:
            path.write_text(text)
            print(f"wrote {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
