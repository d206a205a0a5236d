"""``tools/report_digest.py``, the fingerprint a refactor cites to show
that it changes no report, runs and repeats itself.

The hash is not pinned: like the goldens, it depends on the BLAS kernel.
"""

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_report_digest_is_repeatable():
    lines = []
    for _ in range(2):
        done = subprocess.run([sys.executable, str(REPO / "tools" / "report_digest.py"),
                               "--seeds", "1"], cwd=REPO, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert re.fullmatch(r"reports 30 sha256 [0-9a-f]{64}\n", done.stdout), done.stdout
        lines.append(done.stdout)
    assert lines[0] == lines[1]
