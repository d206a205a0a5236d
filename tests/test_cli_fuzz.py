"""The CLI ends in an exit code, never a traceback, on drawn surfaces.

Hypothesis draws polynomial graphs over the chart, with one to three
terms of coefficient +-10^k for k from -320 (subnormal) to 308 (near
overflow), at n = 1 and 2, under a unit or scaled normal and any
nonempty set of check groups.  Steep, flat-to-underflow and overflowing
surfaces all land here; each must exit 0 or 2 with a report, or 1 with
an ``error:`` line last on stderr.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from sasakicheck.cli import main
from sasakicheck.config import CHECK_GROUPS

NAMES = {1: ["s", "t"], 2: ["s", "t", "x", "y"]}
SCALINGS = ["unit", "exp(s)", "1e300 + s*s", "1e-300 + s*s", "s"]


@st.composite
def terms(draw, names):
    sign = draw(st.sampled_from(["", "-"]))
    k = draw(st.integers(-320, 308))
    powers = [draw(st.integers(0, 2)) for _ in names]
    factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, powers) if e]
    return "*".join([f"{sign}1e{k}"] + factors)


@st.composite
def suites(draw):
    """Config text and the check groups to run it with."""
    n = draw(st.sampled_from([1, 2]))
    names = NAMES[n]
    graph = " + ".join(draw(st.lists(terms(names), min_size=1, max_size=3)))
    body = f"""
[ambient]
name = standard_sasakian
n = {n}

[embedding]
inputs = {", ".join(names)}
outputs = {", ".join(names)}, {graph}

[normal]
scaling = {draw(st.sampled_from(SCALINGS))}

[sample]
count = 4
seed = {draw(st.integers(0, 9))}
"""
    groups = draw(st.lists(st.sampled_from(CHECK_GROUPS), min_size=1, unique=True))
    return body, groups


@settings(max_examples=40, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(suite=suites())
def test_cli_exits_with_a_code_on_drawn_polynomial_graphs(tmp_path, capsys, suite):
    body, groups = suite
    path = tmp_path / "drawn.cfg"
    path.write_text(body)
    capsys.readouterr()
    code = main(["--config", str(path)] + [arg for g in groups for arg in ("--check", g)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), body
    if code == 1:
        assert err.splitlines()[-1].startswith("error:"), (body, err)
