"""``tools/rss_at_report_count.py``, the equal-work peak RSS that a speed-up
cites next to the benchmark's timed ``peak_rss_mb``, runs and prints its line."""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_rss_at_report_count_prints_one_json_line():
    done = subprocess.run([sys.executable, str(REPO / "tools" / "rss_at_report_count.py"),
                           "--workload", "battery_r3", "--seed", "1", "--reports", "3"],
                          cwd=REPO, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 1, done.stdout
    result = json.loads(lines[0])
    assert result["workload"] == "battery_r3" and result["seed"] == 1
    assert result["reports"] == 3
    assert result["failed"] == 0
    assert result["peak_rss_mb"] > 0
