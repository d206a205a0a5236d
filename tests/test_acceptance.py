"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import re
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from sasakicheck import (
    Embedding,
    NormalField,
    PointStack,
    ScalarField,
    check_sasakian_axioms,
    check_theorem_3_3,
    check_theorem_3_4,
    extract_structure,
    fd_derivative,
    frame_stack,
    gauss_weingarten,
    jet,
    make_pointwise_model,
    standard_sasakian,
    verify_algebraic_identities,
    verify_differential_identities,
)
from sasakicheck.cli import main
from sasakicheck.config import load_suite_config
from sasakicheck.dual import cos, exp, sin
from sasakicheck.hypersurface import reconstruction_residuals
from sasakicheck.report import render_json
from sasakicheck.runner import run_suite
from sasakicheck.sampling import sample_points, sample_vectors

from conftest import SimpleAmbient, euclidean_metric, states_at

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"
TIMESTAMP = re.compile(r'"generated_at": "[^"]*"')


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[criterion {number}] FAIL  {description}")
        raise
    print(f"[criterion {number}] PASS  {description}")


def _points(dim, count, seed):
    return sample_points(dim, count, (-1.0, 1.0), np.random.default_rng(seed))


def _pair_dirs(dim, seed):
    """Ten directions; the differential battery pairs them (0, 1), (2, 3), ..."""
    return sample_vectors(dim, 10, np.random.default_rng(seed))


def test_criterion_1_sasakian_axioms():
    with criterion(1, "axiom battery <= 1e-8 at 100 points for n in {1, 2} within 5 s"):
        start = time.perf_counter()
        for n in (1, 2):
            S = standard_sasakian(n)
            pts = _points(S.dim, 100, seed=7)
            dirs = sample_vectors(S.dim, 5, np.random.default_rng(8))
            rep = check_sasakian_axioms(S, pts, dirs)
            assert rep.max_residual <= 1e-8, rep.residuals
        assert time.perf_counter() - start <= 5.0


def test_criterion_2_ad_fd_cross_validation():
    with criterion(2, "dual-number jets match central differences <= 1e-6 at 50 points"):
        for n in (1, 2):
            S = standard_sasakian(n)
            pts = _points(S.dim, 50, seed=17)
            for fld in (S.phi, S.xi, S.eta, S.g.tensor):
                ad = jet(fld, pts).partials
                fd = fd_derivative(fld, pts, step=1e-5).partials
                assert np.max(np.abs(ad - fd)) <= 1e-6


def test_criterion_3_gauss_weingarten_reconstruction():
    with criterion(3, "decomposition residuals <= 1e-6; sphere regression H_h = I/r"):
        S3 = standard_sasakian(1)
        for emb in (
            Embedding(2, S3, lambda c: [c[0], c[1], 0.1]),
            Embedding(2, S3, lambda c: [c[0], c[1], (c[0] ** 2 + c[1] ** 2) / 2]),
        ):
            N = NormalField(emb)
            gw = gauss_weingarten(frame_stack(N, _points(2, 25, seed=23), partials=True))
            rec = reconstruction_residuals(gw)
            assert rec["gauss"] <= 1e-6 and rec["weingarten"] <= 1e-6
        euclid = SimpleAmbient(3, euclidean_metric(3))
        r = 2.0
        sphere = Embedding(2, euclid, lambda c: [
            r * cos(c[0]) * cos(c[1]), r * sin(c[0]) * cos(c[1]), r * sin(c[1])])
        N = NormalField(sphere, orientation=-1)
        half = PointStack(0.5 * _points(2, 10, seed=29).coords)
        gw = gauss_weingarten(frame_stack(N, half, partials=True))
        assert np.max(np.abs(gw.H_h - np.eye(2) / r)) <= 1e-6


def test_criterion_4_induced_structure():
    with criterion(4, "algebraic identity battery <= 1e-5 and max|u| > 1e-3 on both surfaces"):
        S3 = standard_sasakian(1)
        pts = _points(2, 50, seed=31)
        nonzero_y = PointStack(pts.coords[np.abs(pts.coords[:, 1]) > 1e-2])
        for emb in (
            Embedding(2, S3, lambda c: [c[0], c[1], 0.1]),
            Embedding(2, S3, lambda c: [c[0], c[1], (c[0] ** 2 + c[1] ** 2) / 2]),
        ):
            N = NormalField(emb)
            S = extract_structure(N, frame_stack(N, nonzero_y))
            rep = verify_algebraic_identities(S)
            for r in rep.identities:
                assert r.residual <= 1e-5, (r.name, r.residual)
            assert S.max_u > 1e-3


def test_criterion_5_derived_identities_adjudicated():
    with criterion(5, "(2.11)-(2.17) pass under an adjudicated convention, "
                      "consistent across surfaces and n; (2.18) implication sound"):
        S3 = standard_sasakian(1)
        S5 = standard_sasakian(2)
        runs = [
            ("plane_r3", Embedding(2, S3, lambda c: [c[0], c[1], 0.1]), 2),
            ("quadric_r3", Embedding(2, S3, lambda c: [c[0], c[1], (c[0] ** 2 + c[1] ** 2) / 2]), 2),
            ("plane_r5", Embedding(4, S5, lambda c: [c[0], c[1], c[2], c[3], 0.1]), 4),
        ]
        conventions = {}
        for name, emb, dim in runs:
            pts = _points(dim, 20, seed=37)
            rep = verify_differential_identities(states_at(NormalField(emb), pts,
                                                           _pair_dirs(dim, seed=41)))
            for r in rep.identities:
                if r.name == "2.18":
                    # tautology of the H_h definition: never premise-pass with
                    # conclusion-fail; vacuous wherever h(., U) != 0
                    premise_ok = r.details["premise_max_h_Y_U"] <= 1e-5
                    if premise_ok:
                        assert r.residual <= 1e-5
                    assert {"premise_max_h_Y_U", "HU_norms"} <= set(r.details)
                    continue
                assert r.residual <= 1e-5, (name, r.name, r.residual)
                conventions.setdefault(r.name, set()).add(r.convention)
        for eq, tags in conventions.items():
            assert len(tags) == 1, (eq, tags)
        # fallback machinery: the strict printed form is refuted yet the
        # report is still emitted with intact rows
        emb = runs[0][1]
        pts = _points(2, 10, seed=43)
        strict = verify_differential_identities(states_at(NormalField(emb), pts,
                                                          _pair_dirs(2, seed=41)),
                                                strict_paper=True)
        assert len(strict.identities) == 8
        assert all(r.residual > 1e-5 for r in strict.identities if r.name != "2.18")


def test_criterion_6_theorem_3_3_models():
    with criterion(6, "100 exact models per dimension 2n in {2, 4, 6}: max|h| <= 1e-12 within 2 s"):
        start = time.perf_counter()
        for n in (1, 2, 3):
            rng = np.random.default_rng(300 + n)
            for _ in range(100):
                model = make_pointwise_model(n, float(rng.uniform(0.1, 0.9)), rng)
                res = check_theorem_3_3(model)
                assert res.verdict == "pass"
                assert res.conclusion_residuals["max_h"] <= 1e-12
        assert time.perf_counter() - start <= 2.0


def test_criterion_7_scaled_normal_run():
    with criterion(7, "scaled normal: w = d log rho <= 1e-6 and (3.8) vacuous when h != 0"):
        S3 = standard_sasakian(1)
        emb = Embedding(2, S3, lambda c: [c[0], c[1], (c[0] ** 2 + c[1] ** 2) / 2])
        rho = ScalarField(2, lambda c: exp(c[0] + c[1]))
        N = NormalField(emb, scaling=rho)
        pts = _points(2, 20, seed=47)
        gw = gauss_weingarten(frame_stack(N, pts, partials=True))
        assert np.max(np.abs(gw.w - 1.0)) <= 1e-6
        res = check_theorem_3_4(states_at(N, pts, sample_vectors(2, 4, np.random.default_rng(48))))
        assert res.verdict == "vacuous"


def test_criterion_8_determinism_and_cli(tmp_path, capsys):
    with criterion(8, "fixed seed reproduces JSON bit for bit; 0/1/2 exit codes; goldens match"):
        config = load_suite_config(CONFIGS / "plane_r3.cfg")
        config.count = 12
        a = TIMESTAMP.sub("T", render_json(run_suite(config)))
        b = TIMESTAMP.sub("T", render_json(run_suite(config)))
        assert a == b

        code = main(["--config", str(CONFIGS / "plane_r3.cfg"), "--format", "json",
                     "--check", "axioms"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert all(c["verdict"] == "pass" for c in payload["checks"])

        bad = tmp_path / "broken.cfg"
        bad.write_text("[ambient]\nname = standard_sasakian\n")
        assert main(["--config", str(bad)]) == 1
        capsys.readouterr()

        strict = tmp_path / "tight.cfg"
        strict.write_text(
            (CONFIGS / "plane_r3.cfg").read_text()
            + "\n[tolerances]\naxiom = 1e-30\n"
        )
        assert main(["--config", str(strict), "--check", "axioms"]) == 2
        capsys.readouterr()

        for name in ("plane_r3", "quadric_r3", "plane_r5", "quadric_r3_scaled"):
            cfg = load_suite_config(CONFIGS / f"{name}.cfg")
            got = TIMESTAMP.sub('"generated_at": "TIMESTAMP"', render_json(run_suite(cfg)))
            assert got == (GOLDEN / f"{name}.json").read_text(), name
