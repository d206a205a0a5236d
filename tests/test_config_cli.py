import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sasakicheck import (
    InducedStructure,
    PointStack,
    hypersurface,
    induced,
    linalg,
    runner,
    sasakian,
    unit_normal,
)
from sasakicheck.cli import main
from sasakicheck.config import CHECK_GROUPS, load_suite_config, resolve_config_path
from sasakicheck.errors import ConfigError
from sasakicheck.report import render_json, render_text, report_to_dict
from sasakicheck.runner import GROUPS, run_suite

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"

TIMESTAMP = re.compile(r'"generated_at": "[^"]*"')


def normalized_json_report(config_path, **overrides):
    config = load_suite_config(config_path)
    for key, value in overrides.items():
        setattr(config, key, value)
    report = run_suite(config)
    return TIMESTAMP.sub('"generated_at": "TIMESTAMP"', render_json(report))


def write_config(tmp_path, body, name="suite.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return path


GOOD = """
[ambient]
name = standard_sasakian
n = 1

[embedding]
inputs = s, t
outputs = s, t, 0.1

[sample]
count = 6
seed = 7

[suite]
checks = axioms
"""


def test_load_shipped_configs():
    for name in ("plane_r3", "quadric_r3", "plane_r5", "quadric_r3_scaled"):
        cfg = load_suite_config(CONFIGS / f"{name}.cfg")
        assert cfg.name == name
        assert len(cfg.outputs) == cfg.ambient_dim


def test_wrong_output_arity_names_expressions(tmp_path):
    bad = GOOD.replace("outputs = s, t, 0.1", "outputs = s, t")
    with pytest.raises(ConfigError, match=r"outputs 2 coordinates.*\['s', 't'\]"):
        load_suite_config(write_config(tmp_path, bad))


@pytest.mark.parametrize("body,what,text", [
    (GOOD.replace("outputs = s, t, 0.1", "outputs = s, t, s +* t"), "embedding", "s +* t"),
    (GOOD + "\n[normal]\nscaling = log(s-s)\n", "normal scaling", "log(s-s)"),
], ids=["embedding", "normal_scaling"])
def test_bad_expression_reported_with_location(tmp_path, body, what, text):
    with pytest.raises(ConfigError, match=f"bad {what} expression") as info:
        load_suite_config(write_config(tmp_path, body))
    # the parse error names the expression and its position; the wrapper adds neither
    assert str(info.value).count(text) == 1, str(info.value)
    assert "(at position" in str(info.value)


def test_repeated_input_name_rejected(tmp_path):
    bad = GOOD.replace("inputs = s, t", "inputs = s, s")
    with pytest.raises(ConfigError, match=r"inputs names 's' more than once"):
        load_suite_config(write_config(tmp_path, bad))


def test_unknown_check_group_rejected(tmp_path):
    bad = GOOD.replace("checks = axioms", "checks = axioms, plotting")
    with pytest.raises(ConfigError, match="plotting"):
        load_suite_config(write_config(tmp_path, bad))


def test_empty_check_group_list_rejected(tmp_path, capsys):
    path = write_config(tmp_path, GOOD.replace("checks = axioms", "checks ="))
    with pytest.raises(ConfigError, match=r"\[suite\] checks names no check group"):
        load_suite_config(path)
    assert main(["--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [suite] checks names no check group")


def test_unknown_tolerance_rejected(tmp_path):
    bad = GOOD + "\n[tolerances]\nwibble = 1e-3\n"
    with pytest.raises(ConfigError, match="wibble"):
        load_suite_config(write_config(tmp_path, bad))


SCALED = (CONFIGS / "quadric_r3_scaled.cfg").read_text()


@pytest.mark.parametrize("body, message", [
    (SCALED.replace("scaling = exp", "scalling = exp"),
     r"unknown \[normal\] key 'scalling'; valid: scaling, orientation, base_point$"),
    (GOOD.replace("count = 6", "cuont = 6"),
     r"unknown \[sample\] key 'cuont'; valid: count, box, seed$"),
    (GOOD + "\n[extra]\nfoo = 1\n",
     r"unknown section \[extra\]; valid: ambient, embedding, normal, sample, tolerances, suite$"),
    ("[DEFAULT]\nseed = 3\n" + GOOD, r"unknown section \[DEFAULT\]; valid: ambient, "),
], ids=["normal_key", "sample_key", "extra_section", "default_section"])
def test_unknown_section_or_key_rejected(tmp_path, capsys, body, message):
    """A misspelled key or an extra section is an error, not a silent default."""
    path = write_config(tmp_path, body)
    with pytest.raises(ConfigError, match=message):
        load_suite_config(path)
    assert main(["--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: unknown ")


def test_bad_box_rejected(tmp_path):
    bad = GOOD.replace("seed = 7", "seed = 7\nbox = 2, -2")
    with pytest.raises(ConfigError, match="box"):
        load_suite_config(write_config(tmp_path, bad))


@pytest.mark.parametrize("box", ["-inf, inf", "nan, 1", "-inf, 1", "0, inf"])
def test_non_finite_box_rejected(tmp_path, box):
    bad = GOOD.replace("seed = 7", f"seed = 7\nbox = {box}")
    with pytest.raises(ConfigError, match="box"):
        load_suite_config(write_config(tmp_path, bad))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-8"])
def test_bad_tolerance_value_rejected(tmp_path, value):
    bad = GOOD + f"\n[tolerances]\naxiom = {value}\n"
    with pytest.raises(ConfigError, match="tolerance axiom"):
        load_suite_config(write_config(tmp_path, bad))


def test_negative_seed_rejected(tmp_path):
    with pytest.raises(ConfigError, match="seed"):
        load_suite_config(write_config(tmp_path, GOOD.replace("seed = 7", "seed = -3")))


def test_config_dir_env_lookup(tmp_path, monkeypatch):
    write_config(tmp_path, GOOD, name="mine.cfg")
    monkeypatch.setenv("SASAKICHECK_CONFIG_DIR", str(tmp_path))
    assert resolve_config_path("mine").name == "mine.cfg"
    assert resolve_config_path("mine.cfg").name == "mine.cfg"
    with pytest.raises(ConfigError):
        resolve_config_path("absent")


def test_runner_determinism_same_seed():
    a = normalized_json_report(CONFIGS / "plane_r3.cfg", count=10)
    b = normalized_json_report(CONFIGS / "plane_r3.cfg", count=10)
    assert a == b


def test_runner_differs_across_seeds():
    a = normalized_json_report(CONFIGS / "plane_r3.cfg", count=10, seed=1)
    b = normalized_json_report(CONFIGS / "plane_r3.cfg", count=10, seed=2)
    assert a != b


def test_empty_check_list_yields_empty_report(tmp_path, capsys):
    cfg = load_suite_config(write_config(tmp_path, GOOD))
    cfg.checks = []
    report = run_suite(cfg)
    assert report.checks == []
    assert render_text(report).splitlines()[-1].startswith("0 checks")


def test_cli_exit_zero_and_report_shape(tmp_path, capsys):
    path = write_config(tmp_path, GOOD)
    code = main(["--config", str(path), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    names = [c["name"] for c in payload["checks"]]
    assert names == [f"eq_1_{k}" for k in range(1, 8)]
    assert all(c["verdict"] == "pass" for c in payload["checks"])


def test_cli_exit_one_on_config_error(tmp_path, capsys):
    path = write_config(tmp_path, GOOD.replace("outputs = s, t, 0.1", "outputs = s, t"))
    code = main(["--config", str(path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_exit_one_on_missing_file(capsys):
    assert main(["--config", "/nonexistent/nowhere.cfg"]) == 1


def test_cli_exit_two_on_failing_check(tmp_path, capsys):
    body = GOOD + "\n[tolerances]\naxiom = 1e-30\n"
    path = write_config(tmp_path, body)
    code = main(["--config", str(path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert any(c["verdict"] == "fail" for c in payload["checks"])
    text_code = main(["--config", str(path), "--format", "text"])
    out = capsys.readouterr().out
    assert text_code == 2
    assert " fail " in out


def test_cli_check_subset_and_seed_override(tmp_path, capsys):
    path = write_config(tmp_path, GOOD.replace("checks = axioms", "checks = axioms, two_form"))
    code = main(["--config", str(path), "--format", "json", "--check", "two_form", "--seed", "12"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [c["name"] for c in payload["checks"]] == ["eq_1_8", "eq_1_9", "eq_1_10"]
    assert payload["meta"]["seed"] == 12


def test_cli_strict_paper_flag(tmp_path, capsys):
    body = GOOD.replace("checks = axioms", "checks = differential").replace("count = 6", "count = 5")
    path = write_config(tmp_path, body)
    code = main(["--config", str(path), "--format", "json", "--strict-paper"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0  # refuted rows are findings, not failures
    assert payload["meta"]["strict_paper"] is True
    assert payload["meta"]["structure_sign"] == "as-extracted"
    refs = {c["name"]: c["verdict"] for c in payload["checks"]}
    assert refs["eq_2_11"] == "refuted"


def test_eq_2_18_equation_ref_string(tmp_path, capsys):
    body = GOOD.replace("checks = axioms", "checks = differential").replace("count = 6", "count = 5")
    path = write_config(tmp_path, body)
    main(["--config", str(path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    ref = next(c["equation_ref"] for c in payload["checks"] if c["name"] == "eq_2_18")
    assert ref == "Eq (2.18)"


def test_render_report_formats(tmp_path):
    cfg = load_suite_config(write_config(tmp_path, GOOD))
    report = run_suite(cfg)
    assert json.loads(render_json(report))["meta"]["config"] == "suite"
    assert "eq_1_1" in render_text(report)


def test_every_identity_has_exactly_one_check():
    config = load_suite_config(CONFIGS / "plane_r3.cfg")
    config.count = 8
    report = run_suite(config)
    refs = [c.equation_ref for c in report.checks]
    wanted = (
        [f"Eq (1.{k})" for k in range(1, 11)]
        + [f"Eq (2.{k})" for k in range(5, 19)]
        + [f"Eq (3.{k})" for k in range(1, 9)]
    )
    for ref in wanted:
        assert refs.count(ref) == 1, (ref, refs.count(ref))


def _rows(config, groups):
    return report_to_dict(run_suite(replace(config, checks=list(groups))))["checks"]


@pytest.mark.parametrize("name,tolerances", [
    ("plane_r3", {}), ("quadric_r3", {}), ("plane_r5", {}), ("quadric_r3_scaled", {}),
    # hypotheses that hold put the adjudicated structure sign into the theorem rows
    ("quadric_r3", {"hypothesis": 1e3}),
], ids=["plane_r3", "quadric_r3", "plane_r5", "quadric_r3_scaled", "quadric_r3_loose"])
def test_group_rows_do_not_depend_on_other_groups(name, tolerances):
    config = load_suite_config(CONFIGS / f"{name}.cfg")
    config = replace(config, count=10, tolerances={**config.tolerances, **tolerances})
    assert tuple(GROUPS) == CHECK_GROUPS
    alone = [row for group in CHECK_GROUPS for row in _rows(config, [group])]
    assert alone == _rows(config, CHECK_GROUPS)


def test_lambda_nonneg_orientation(tmp_path, capsys):
    body = GOOD.replace("checks = axioms", "checks = structure") + (
        "\n[normal]\norientation = lambda_nonneg\nbase_point = 0.2, 0.4\n"
    )
    path = write_config(tmp_path, body)
    code = main(["--config", str(path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["meta"]["orientation_mode"] == "lambda_nonneg"
    assert payload["meta"]["orientation"] in (1, -1)
    # the plane's det-positive normal already has eta(N) > 0
    assert payload["meta"]["orientation"] == 1


def test_lambda_nonneg_base_point_arity(tmp_path):
    body = GOOD + "\n[normal]\norientation = lambda_nonneg\nbase_point = 0.2\n"
    with pytest.raises(ConfigError, match="base_point"):
        load_suite_config(write_config(tmp_path, body))


def test_cli_exit_one_on_degenerate_embedding(tmp_path, capsys):
    body = GOOD.replace("outputs = s, t, 0.1", "outputs = s, s, 0.1").replace(
        "checks = axioms", "checks = structure")
    path = write_config(tmp_path, body)
    assert main(["--config", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_out_file_written(tmp_path, capsys):
    path = write_config(tmp_path, GOOD)
    out = tmp_path / "report.json"
    main(["--config", str(path), "--format", "json", "--out", str(out)])
    capsys.readouterr()
    assert json.loads(out.read_text())["meta"]["config"] == "suite"


def test_cli_arithmetic_error_exits_one_without_traceback(tmp_path):
    body = GOOD.replace("outputs = s, t, 0.1", "outputs = s, t, 1/(s-s)").replace(
        "checks = axioms", "checks = structure")
    path = write_config(tmp_path, body)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "sasakicheck", "--config", str(path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "'1/(s-s)'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_nonpositive_normal_scaling_exits_one_without_traceback(tmp_path):
    body = GOOD.replace("outputs = s, t, 0.1", "outputs = s, t, (s^2 + t^2)/2").replace(
        "checks = axioms", "checks = gauss_weingarten, structure") + "\n[normal]\nscaling = s\n"
    path = write_config(tmp_path, body)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "sasakicheck", "--config", str(path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: normal scaling 's' must stay positive")
    assert "Traceback" not in proc.stderr


SCALED = GOOD.replace("count = 6", "count = 50") + "\n[normal]\nscaling = {}\n"
DEGENERATE = {
    "map_division_by_zero": GOOD.replace("outputs = s, t, 0.1", "outputs = s, t, 1/(s-s)"),
    "map_rank_deficient": GOOD.replace("outputs = s, t, 0.1", "outputs = s, s, 0.1"),
    "map_overflow": GOOD.replace("outputs = s, t, 0.1", "outputs = s, t, exp(800*s)"),
    "scaling_nonpositive": SCALED.format("s"),
    "scaling_overflow": SCALED.format("exp(-800*s)"),
    "scaling_ill_conditioned": SCALED.format("exp(700*s)"),
    "map_division_by_zero_at_base": GOOD.replace("outputs = s, t, 0.1", "outputs = s, t, 1/(s-s)")
    + "\n[normal]\norientation = lambda_nonneg\nbase_point = 0.2, 0.4\n",
}
# the error line of each, naming the first offending chart point (or the
# base point) as a tuple (stack rejections) or as a list (expression and
# scaling failures)
DEGENERATE_ERRORS = {
    "map_division_by_zero": "error: expression '1/(s-s)' failed at "
    "[0.26408847113914624, -0.026443454071219064]: division by a dual number with zero real part",
    "map_rank_deficient": "error: embedding Jacobian has smallest singular value 0.000e+00 at "
    "(0.26408847113914624, -0.026443454071219064)",
    "map_overflow": "error: tangent-normal frame condition number 4.538e+94 exceeds 1.0e+12 at "
    "(0.26408847113914624, -0.026443454071219064)",
    "scaling_nonpositive": "error: normal scaling 's' must stay positive, got -0.9314720428144216 "
    "at [-0.9314720428144216, 0.3562626262481232]",
    "scaling_overflow": "error: expression 'exp(-800*s)' failed at "
    "[-0.9314720428144216, 0.3562626262481232]: math range error",
    "scaling_ill_conditioned": "error: tangent-normal frame condition number inf exceeds 1.0e+12 "
    "at (0.26408847113914624, -0.026443454071219064)",
    # the orientation probe at the base point fails first, in the frame layer's dual pass
    "map_division_by_zero_at_base": "error: expression '1/(s-s)' failed at [0.2, 0.4]: "
    "division by a dual number with zero real part",
}


@pytest.mark.parametrize("name", DEGENERATE)
def test_degenerate_surface_gives_one_error_line_whichever_groups_run(tmp_path, capsys, name):
    path = write_config(tmp_path, DEGENERATE[name])
    lines = set()
    for groups in (["structure"], ["structure", "algebraic"], ["structure", "differential"],
                   ["theorems"], ["gauss_weingarten", "structure"]):
        argv = ["--config", str(path)] + [arg for g in groups for arg in ("--check", g)]
        assert main(argv) == 1, groups
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err
        lines.add(err)
    assert lines == {DEGENERATE_ERRORS[name] + "\n"}


@pytest.mark.parametrize("body,args", [
    (GOOD, ["--seed", "-1"]),
    (GOOD.replace("seed = 7", "seed = -3"), []),
    (GOOD.replace("seed = 7", "seed = 7\nbox = -inf, inf"), []),
    (GOOD.replace("seed = 7", "seed = 7\nbox = -1e308, 1e308"), []),
    (GOOD + "\n[tolerances]\naxiom = nan\n", []),
    (GOOD.replace("outputs = s, t, 0.1", "outputs = s, t, " + "(" * 400 + "s" + ")" * 400), []),
    (GOOD.replace("outputs = s, t, 0.1", "outputs = s, t, " + "-" * 3000 + "s"), []),
], ids=["cli_seed", "config_seed", "box", "box_width_overflow", "tolerance", "deep_parentheses",
        "deep_signs"])
def test_cli_bad_number_exits_one_without_traceback(tmp_path, body, args):
    path = write_config(tmp_path, body)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "sasakicheck", "--config", str(path), *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_cli_config_not_utf8_exits_one_without_traceback(tmp_path):
    path = tmp_path / "bad.cfg"
    text = GOOD.encode("utf-8")
    path.write_bytes(text + b"# \xff\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "sasakicheck", "--config", str(path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr == (f"error: config {path} is not UTF-8: byte 0xff "
                           f"at offset {len(text) + 2}\n")
    assert "Traceback" not in proc.stderr


def _frame_builds(monkeypatch, config):
    """Run the suite and record the frame stacks it builds (the point
    count of each, split by whether it carries partials), and count
    structure splits, Gauss-Weingarten decompositions, ambient axiom
    batteries, structure bundles built by ``bundle_at``/``values_at``, dual
    eliminations, wherever the engine looks them up, and the ``PointStack``
    objects it constructs."""
    builds = {"partials": [], "values": []}
    calls = dict.fromkeys(["_structure_stack", "gauss_weingarten", "check_sasakian_axioms",
                           "bundle_at", "values_at", "linalg.det", "linalg.solve_columns",
                           "PointStack"], 0)
    frame_stack = hypersurface.frame_stack

    def recorded_frame_stack(N, points, partials=False):
        builds["partials" if partials else "values"].append(len(points))
        return frame_stack(N, points, partials)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    functions = {"_structure_stack": induced._structure_stack,
                 "gauss_weingarten": hypersurface.gauss_weingarten,
                 "check_sasakian_axioms": sasakian.check_sasakian_axioms,
                 "linalg.det": linalg.det,
                 "linalg.solve_columns": linalg.solve_columns}
    wrapped = {id(frame_stack): recorded_frame_stack,
               **{id(fn): counted(name, fn) for name, fn in functions.items()}}
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "sasakicheck":
            for key, value in list(vars(module).items()):
                if id(value) in wrapped:
                    monkeypatch.setattr(module, key, wrapped[id(value)])
    for name in ("bundle_at", "values_at"):
        monkeypatch.setattr(InducedStructure, name, counted(name, getattr(InducedStructure, name)))
    monkeypatch.setattr(PointStack, "__init__", counted("PointStack", PointStack.__init__))
    run_suite(config)
    return builds, calls


def test_run_suite_builds_each_point_once(monkeypatch):
    config = load_suite_config(CONFIGS / "plane_r3.cfg")
    config.checks = list(CHECK_GROUPS)
    config.count = 10
    builds, calls = _frame_builds(monkeypatch, config)
    # one frame stack with partials serves the structure split, the
    # Gauss-Weingarten group and the sample states
    assert builds == {"partials": [10], "values": []}
    # the structure is split once; the axioms and two_form groups share
    # one ambient axiom battery; the points are three stacks (the ambient
    # samples, the chart samples and their images)
    assert calls == {"_structure_stack": 1, "gauss_weingarten": 1, "check_sasakian_axioms": 1,
                     "bundle_at": 0, "values_at": 0, "linalg.det": 0, "linalg.solve_columns": 0,
                     "PointStack": 3}


def test_lambda_nonneg_probe_builds_one_row_stacks(monkeypatch):
    config = load_suite_config(CONFIGS / "plane_r3.cfg")
    config.checks = list(CHECK_GROUPS)
    config.count = 10
    config.orientation, config.base_point = "lambda_nonneg", (0.2, 0.4)
    builds, calls = _frame_builds(monkeypatch, config)
    # the orientation probe is one value-only frame at the base point: one
    # chart row and its image on top of the report's three stacks
    assert builds == {"partials": [10], "values": [1]}
    assert calls == {"_structure_stack": 1, "gauss_weingarten": 1, "check_sasakian_axioms": 1,
                     "bundle_at": 0, "values_at": 0, "linalg.det": 0, "linalg.solve_columns": 0,
                     "PointStack": 5}


@pytest.mark.parametrize("name,outputs", [
    ("plane_r3", ["(s^2 + t^2)/2", "s", "t"]),
    ("plane_r5", ["s1", "s2", "s3", "(s1^2 - s4^2)/2 + s2*s3", "s4"]),
])
def test_lambda_nonneg_sign_matches_one_point_probe(name, outputs):
    # the probe picks the sign of eta(N) at the base point, with eta taken by the
    # closure on the image's Python floats; on these surfaces eta(N) changes sign
    # with the last chart coordinate
    config = load_suite_config(CONFIGS / f"{name}.cfg")
    config.count, config.outputs = 2, outputs
    config.orientation = "lambda_nonneg"
    signs = []
    for row in np.random.default_rng(41).uniform(-2.0, 2.0, (20, config.surface_dim)):
        config.base_point = tuple(row.tolist())
        context = runner._Context(config)
        E = context.embedding
        eta = np.array(context.ambient.eta.func(E.map(config.base_point)), float)
        lam0 = float(eta @ unit_normal(E, PointStack([config.base_point]))[0])
        signs.append(context.orientation)
        assert context.orientation == (1 if lam0 >= 0 else -1), row
    assert set(signs) == {-1, 1}


VALUES, PARTIALS = {"partials": [], "values": [10]}, {"partials": [10], "values": []}


@pytest.mark.parametrize("checks,builds,splits,gws", [
    (["axioms", "structure", "algebraic"], VALUES, 1, 0),
    (["structure", "algebraic"], VALUES, 1, 0),
    (["gauss_weingarten"], PARTIALS, 0, 1),
    (["structure", "differential"], PARTIALS, 1, 1),
])
def test_per_point_data_built_only_for_groups_that_read_it(monkeypatch, checks, builds, splits,
                                                           gws):
    config = load_suite_config(CONFIGS / "plane_r3.cfg")
    config.checks = checks
    config.count = 10
    # one frame stack of all points, with partials only when a group reads derivatives
    assert _frame_builds(monkeypatch, config) == (builds, {
        "_structure_stack": splits, "gauss_weingarten": gws,
        # extraction does not re-check the report's ambient
        "check_sasakian_axioms": int("axioms" in checks),
        "bundle_at": 0, "values_at": 0, "linalg.det": 0, "linalg.solve_columns": 0,
        "PointStack": 3})


@pytest.mark.parametrize("name", ["plane_r3", "quadric_r3", "plane_r5", "quadric_r3_scaled"])
def test_golden_reports(name):
    got = normalized_json_report(CONFIGS / f"{name}.cfg")
    want = (GOLDEN / f"{name}.json").read_text()
    assert got == want


def test_report_digest_one_seed():
    # one seed of tools/report_digest.py: every config and group subset, bit for bit;
    # the hash depends on the BLAS kernel, as the goldens do
    tool = REPO / "tools" / "report_digest.py"
    proc = subprocess.run([sys.executable, str(tool), "--seeds", "1"],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == ("reports 30 sha256 "
                           "ee25e649fed61a5418792fd7be5abbdf13679a0cbcd71866841f06995b0b464c\n")


def test_cli_unwritable_out_exits_one_without_traceback(tmp_path):
    path = write_config(tmp_path, GOOD)
    out = tmp_path / "missing" / "x.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "sasakicheck", "--config", str(path),
                           "--check", "axioms", "--out", str(out)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: cannot write report to {str(out)!r}:")
    assert "Traceback" not in proc.stderr
