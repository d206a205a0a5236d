"""The README's ``Library use`` example runs against the current API.

The block is read from README.md and executed as written, so a change to
a public name or signature that breaks the documented example fails
here instead of leaving the README stale.
"""

import re

from conftest import REPO

EXAMPLE = re.compile(r"^## Library use\n+```python\n(.*?)^```$", re.S | re.M)


def test_library_use_example_runs(capsys):
    match = EXAMPLE.search((REPO / "README.md").read_text(encoding="utf-8"))
    assert match, "README.md has no ```python block under '## Library use'"
    exec(compile(match.group(1), "README.md:Library use", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # one line per differential identity, the Theorem 3.4 verdict, then lambda and the count
    assert lines[-2] in {"pass", "vacuous", "refuted"}, lines
    assert lines[-1].split()[-1] == "50", lines
