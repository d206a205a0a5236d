import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from sasakicheck import Embedding, InducedStructure, hypersurface, linalg
from sasakicheck.cli import main
from sasakicheck.config import CHECK_GROUPS, load_suite_config, resolve_config_path
from sasakicheck.errors import ConfigError
from sasakicheck.report import render_json, render_text
from sasakicheck.runner import run_suite

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


def test_bad_expression_reported_with_location(tmp_path):
    bad = GOOD.replace("outputs = s, t, 0.1", "outputs = s, t, s +* t")
    with pytest.raises(ConfigError, match="bad embedding expression"):
        load_suite_config(write_config(tmp_path, bad))


def test_unknown_check_group_rejected(tmp_path):
    bad = GOOD.replace("checks = axioms", "checks = axioms, plotting")
    with pytest.raises(ConfigError, match="plotting"):
        load_suite_config(write_config(tmp_path, bad))


def test_unknown_tolerance_rejected(tmp_path):
    bad = GOOD + "\n[tolerances]\nwibble = 1e-3\n"
    with pytest.raises(ConfigError, match="wibble"):
        load_suite_config(write_config(tmp_path, bad))


def test_bad_box_rejected(tmp_path):
    bad = GOOD.replace("seed = 7", "seed = 7\nbox = 2, -2")
    with pytest.raises(ConfigError, match="box"):
        load_suite_config(write_config(tmp_path, bad))


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


def _per_point_calls(monkeypatch, config):
    """Run the suite and count, per chart point, Gauss-Weingarten
    decompositions, structure bundles, embedding Hessians, frame jets,
    value-only frames, ``values_at`` calls and dual eliminations, wherever
    the engine looks them up."""
    functions = {"gauss_weingarten": hypersurface.gauss_weingarten,
                 "frame_jet": hypersurface.frame_jet,
                 "frame_values": hypersurface.frame_values,
                 "linalg.det": linalg.det,
                 "linalg.solve_columns": linalg.solve_columns}
    methods = {"bundle_at": (InducedStructure, "bundle_at"),
               "values_at": (InducedStructure, "values_at"),
               "hessian_at": (Embedding, "hessian_at")}
    calls = dict.fromkeys([*functions, *methods], 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, original in functions.items():
        wrapped = counted(name, original)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "sasakicheck":
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, wrapped)
    for name, (cls, attr) in methods.items():
        monkeypatch.setattr(cls, attr, counted(name, getattr(cls, attr)))
    run_suite(config)
    return {k: v / config.count for k, v in calls.items()}


def test_run_suite_builds_each_point_once(monkeypatch):
    config = load_suite_config(CONFIGS / "plane_r3.cfg")
    config.checks = list(CHECK_GROUPS)
    config.count = 10
    assert _per_point_calls(monkeypatch, config) == {
        "gauss_weingarten": 1.0, "bundle_at": 1.0, "hessian_at": 1.0,
        "frame_jet": 1.0, "frame_values": 1.0, "values_at": 0.0,
        "linalg.det": 0.0, "linalg.solve_columns": 0.0}


@pytest.mark.parametrize("checks,gw_per_point", [
    (["axioms", "structure", "algebraic"], 0.0),
    (["gauss_weingarten"], 1.0),
])
def test_per_point_data_built_only_for_groups_that_read_it(monkeypatch, checks, gw_per_point):
    config = load_suite_config(CONFIGS / "plane_r3.cfg")
    config.checks = checks
    config.count = 10
    # structure extraction builds one value-only frame per point
    values_per_point = 1.0 if "structure" in checks else 0.0
    assert _per_point_calls(monkeypatch, config) == {
        "gauss_weingarten": gw_per_point, "bundle_at": 0.0, "hessian_at": gw_per_point,
        "frame_jet": gw_per_point, "frame_values": values_per_point, "values_at": 0.0,
        "linalg.det": 0.0, "linalg.solve_columns": 0.0}


@pytest.mark.parametrize("name", ["plane_r3", "quadric_r3", "plane_r5", "quadric_r3_scaled"])
def test_golden_reports(name):
    got = normalized_json_report(CONFIGS / f"{name}.cfg")
    want = (GOLDEN / f"{name}.json").read_text()
    assert got == want
