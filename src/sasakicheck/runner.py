"""Execute a configured verification suite and assemble the report.

Check groups run in dependency order (ambient axioms before structure
extraction before identities before theorems); shared intermediates
are computed once.  Everything is driven off the configured seed, so a
fixed configuration reproduces the report bit for bit.
"""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from . import __version__, linalg
from .config import CHECK_GROUPS, SuiteConfig
from .exprs import compile_expression, compile_map
from .fields import DEFAULT_FD_STEP, Point, ScalarField, evaluate, jet_stack
from .hypersurface import (
    Embedding,
    NormalField,
    gauss_weingarten,
    reconstruction_residuals,
)
from .induced import (
    NONINVARIANT_THRESHOLD,
    extract_structure,
    sample_states,
    verify_algebraic_identities,
    verify_differential_identities,
)
from .report import CheckResult, VerificationReport
from .sampling import (
    sample_direction_fields,
    sample_points,
    sample_vectors,
    spawn_rngs,
)
from .sasakian import check_sasakian_axioms, standard_sasakian
from .theorems import (
    check_theorem_3_1,
    check_theorem_3_2,
    check_theorem_3_3,
    check_theorem_3_4,
    make_pointwise_model,
    model_structure_residuals,
    theorem_3_1_chart,
    theorem_3_2_chart,
    theorem_3_3_chart,
    theorem_3_4_model_consistency,
)

MODEL_DRAWS = 100
MODEL_TOLERANCE = 1e-12
MODEL_CONCLUSION_TOLERANCE = 1e-10


def _tol_check(name, ref, residual, tol, convention="", used=0, excluded=0, details=None):
    return CheckResult(
        name=name,
        equation_ref=ref,
        max_residual=float(residual),
        tolerance=float(tol),
        verdict="pass" if residual <= tol else "fail",
        convention=convention,
        samples_used=used,
        samples_excluded=excluded,
        details=details or {},
    )


def _implication_check(name, ref, result, tol):
    residual = max(result.conclusion_residuals.values()) if result.conclusion_residuals else 0.0
    verdict = {"confirmed": "pass"}.get(result.verdict, result.verdict)
    return CheckResult(
        name=name,
        equation_ref=ref,
        max_residual=float(residual if result.verdict != "vacuous" else result.hypothesis_residual),
        tolerance=float(tol),
        verdict=verdict,
        convention=result.convention,
        samples_used=result.samples_used,
        samples_excluded=result.samples_excluded,
        details={
            "hypothesis_residual": result.hypothesis_residual,
            "conclusion_residuals": result.conclusion_residuals,
            "notes": result.notes,
        },
    )


def run_suite(config: SuiteConfig) -> VerificationReport:
    tol = config.tolerances
    rngs = spawn_rngs(config.seed)
    ambient = standard_sasakian(config.n)

    ambient_points = sample_points(config.ambient_dim, config.count, config.box, rngs["ambient_points"])
    ambient_dirs = sample_direction_fields(config.ambient_dim, 5, rngs["ambient_directions"])
    chart_points = sample_points(config.surface_dim, config.count, config.box, rngs["chart_points"])
    # the differential battery pairs these consecutively: (0, 1), (2, 3), ...
    tangent_vecs = sample_vectors(config.surface_dim, 10, rngs["chart_directions"])

    embedding = Embedding(config.surface_dim, ambient, compile_map(config.outputs, config.inputs))
    scaling_field: Optional[ScalarField] = None
    if config.scaling is not None:
        expr = compile_expression(config.scaling, config.inputs)
        scaling_field = ScalarField(config.surface_dim, expr)
    orientation = config.orientation
    if orientation == "lambda_nonneg":
        # pick the sign that makes eta(N) >= 0 at the declared base point
        base = Point(config.base_point)
        probe = NormalField(embedding, None, 1)
        eta = evaluate(ambient.eta, embedding.point_image(base))
        lam0 = float(eta @ probe.components_at(base))
        orientation = 1 if lam0 >= 0 else -1
    normal = NormalField(embedding, scaling_field, orientation)

    requested = [g for g in CHECK_GROUPS if g in config.checks]
    checks: List[CheckResult] = []
    meta = {
        "config": config.name,
        "seed": config.seed,
        "version": __version__,
        "fd_step": DEFAULT_FD_STEP,
        "ambient": f"standard_sasakian(n={config.n})",
        "embedding": list(config.outputs),
        "normal_scaling": config.scaling or "unit",
        "orientation": orientation,
        "orientation_mode": config.orientation if isinstance(config.orientation, str) else "fixed",
        "sample_count": config.count,
        "box": list(config.box),
        "strict_paper": config.strict_paper,
        "checks": requested,
    }

    axiom_report = None
    if "axioms" in requested or "two_form" in requested:
        axiom_report = check_sasakian_axioms(ambient, ambient_points, ambient_dirs)

    if "axioms" in requested:
        res = axiom_report.residuals
        for eq in ("1.1", "1.2", "1.3", "1.4", "1.5", "1.6", "1.7"):
            if eq == "1.3":
                residual = max(res["1.3a"], res["1.3b"], res["1.3c"])
                details = {k: res[k] for k in ("1.3a", "1.3b", "1.3c")}
            else:
                residual = res[eq]
                details = {}
            checks.append(_tol_check(
                f"eq_{eq.replace('.', '_')}", f"Eq ({eq})", residual, tol["axiom"],
                used=axiom_report.sample_count, details=details,
            ))

    if "two_form" in requested:
        res = axiom_report.residuals
        for eq in ("1.8", "1.9", "1.10"):
            checks.append(_tol_check(
                f"eq_{eq.replace('.', '_')}", f"Eq ({eq})", res[eq], tol["axiom"],
                used=axiom_report.sample_count,
            ))

    structure = None

    def need_structure():
        nonlocal structure
        if structure is None:
            structure = extract_structure(embedding, normal, chart_points)
        return structure

    gws = None
    if "gauss_weingarten" in requested:
        gws = gauss_weingarten(embedding, normal, chart_points)
        gauss_res = wein_res = sym_res = w_unit_res = 0.0
        for gw in gws:
            rec = reconstruction_residuals(gw)
            gauss_res = max(gauss_res, rec["gauss"])
            wein_res = max(wein_res, rec["weingarten"])
            sym_res = max(sym_res, float(np.max(np.abs(gw.h - gw.h.T))))
            if config.scaling is None:
                w_unit_res = max(w_unit_res, float(np.max(np.abs(gw.w))))
        checks.append(_tol_check(
            "eq_2_9", "Eq (2.9)", gauss_res, tol["reconstruction"],
            convention="Gauss reconstruction", used=len(chart_points),
            details={"h_symmetry": sym_res},
        ))
        checks.append(_tol_check(
            "eq_2_10", "Eq (2.10)", wein_res, tol["reconstruction"],
            convention="Weingarten reconstruction", used=len(chart_points),
            details={"w_residual_unit_normal": w_unit_res} if config.scaling is None else {},
        ))
        if config.scaling is not None:
            # w must equal d log rho; independent product-rule consequence
            jt = jet_stack(scaling_field, gws.frames.points)
            w = np.array([gw.w for gw in gws])
            w_log_res = linalg.worst(np.abs(w - jt.partials / jt.value[:, None]))
            checks.append(_tol_check(
                "normal_scaling_w", "w = d log rho", w_log_res, tol["reconstruction"],
                convention="scaled normal", used=len(chart_points),
            ))

    if "structure" in requested:
        S = need_structure()
        checks.append(_tol_check(
            "phi_normal_tangency", "Eq (2.2)", S.tangency_residual, tol["axiom"],
            used=len(chart_points),
        ))
        if config.scaling is None:
            checks.append(_tol_check(
                "lambda_eta_consistency", "Eq (2.3)", S.lambda_consistency, tol["axiom"],
                convention="unit normal", used=len(chart_points),
            ))
        else:
            checks.append(CheckResult(
                name="lambda_eta_consistency", equation_ref="Eq (2.3)",
                max_residual=None, tolerance=None, verdict="vacuous",
                convention="scaled normal: eta(N) != lambda by construction",
                samples_used=len(chart_points),
            ))
        shortfall = max(0.0, NONINVARIANT_THRESHOLD - S.max_u)
        checks.append(_tol_check(
            "noninvariance", "u != 0", shortfall, 0.0,
            convention=f"max|u| = {S.max_u:.6e}", used=len(chart_points),
            details={"max_u": S.max_u, "threshold": NONINVARIANT_THRESHOLD},
        ))

    if "algebraic" in requested:
        S = need_structure()
        rep = verify_algebraic_identities(S, chart_points)
        for r in rep.identities:
            # identity claims are measured, not asserted: a miss is a finding
            # about the identity (e.g. the rho^2 factors a scaled normal
            # introduces), not an engine failure
            checks.append(CheckResult(
                name=f"eq_{r.name.replace('.', '_')}", equation_ref=r.equation_ref,
                max_residual=r.residual, tolerance=tol["algebraic"],
                verdict="pass" if r.residual <= tol["algebraic"] else "refuted",
                convention=r.convention, samples_used=r.samples_used, details=r.details,
            ))

    states = None
    if "differential" in requested or "theorems" in requested:
        states = sample_states(need_structure(), chart_points, tangent_vecs, gws)

    structure_sign = 1.0
    if "differential" in requested:
        rep = verify_differential_identities(
            states, tolerance=tol["differential"], strict_paper=config.strict_paper,
        )
        meta["structure_sign"] = rep.structure_sign
        meta["v_HY_measured"] = rep.extras["v_HY_measured"]
        structure_sign = -1.0 if rep.structure_sign == "phi-flipped" else 1.0
        for r in rep.identities:
            if r.name == "2.18":
                premise = r.details["premise_max_h_Y_U"]
                if premise > tol["differential"]:
                    verdict = "vacuous"
                else:
                    verdict = "pass" if r.residual <= tol["differential"] else "fail"
                checks.append(CheckResult(
                    name="eq_2_18", equation_ref="Eq (2.18)",
                    max_residual=r.residual, tolerance=tol["differential"],
                    verdict=verdict, convention=r.convention,
                    samples_used=r.samples_used, details=r.details,
                ))
            else:
                verdict = "pass" if r.residual <= tol["differential"] else "refuted"
                checks.append(CheckResult(
                    name=f"eq_{r.name.replace('.', '_')}", equation_ref=r.equation_ref,
                    max_residual=r.residual, tolerance=tol["differential"],
                    verdict=verdict, convention=r.convention,
                    samples_used=r.samples_used, details=r.details,
                ))

    if "theorems" in requested:
        r31 = theorem_3_1_chart(states, tol["hypothesis"], tol["conclusion"], structure_sign)
        checks.append(CheckResult(
            name="eq_3_1", equation_ref="Eq (3.1)",
            max_residual=r31.hypothesis_residual, tolerance=tol["hypothesis"],
            verdict="pass" if r31.hypothesis_residual <= tol["hypothesis"] else "vacuous",
            convention=r31.convention, samples_used=len(chart_points),
            details={"note": "hypothesis residual |nabla phi|"},
        ))
        for eq in ("3.2", "3.3", "3.4", "3.5"):
            checks.append(CheckResult(
                name=f"eq_{eq.replace('.', '_')}", equation_ref=f"Eq ({eq})",
                max_residual=r31.conclusion_residuals[eq] if r31.verdict != "vacuous" else None,
                tolerance=tol["conclusion"],
                verdict={"confirmed": "pass"}.get(r31.verdict, r31.verdict),
                convention=r31.convention,
                samples_used=r31.samples_used, samples_excluded=r31.samples_excluded,
            ))
        r32 = theorem_3_2_chart(states, tol["hypothesis"], tol["conclusion"], structure_sign)
        checks.append(_implication_check("thm_3_2_chart", "Thm 3.2 (chart)", r32, tol["conclusion"]))
        r33 = theorem_3_3_chart(states, tol["hypothesis"])
        checks.append(_implication_check("thm_3_3_chart", "Thm 3.3 (chart)", r33, tol["conclusion"]))
        r34 = check_theorem_3_4(states, tol["hypothesis"], tol["conclusion"], structure_sign)
        checks.append(_implication_check("eq_3_8", "Eq (3.8)", r34, tol["conclusion"]))

    if "models" in requested:
        rng = rngs["models"]
        worst_33 = 0.0
        worst_36 = worst_37 = 0.0
        lam_draws = rng.uniform(0.1, 0.9, size=MODEL_DRAWS)
        models = []
        for lam in lam_draws:
            model = make_pointwise_model(config.n, float(lam), rng)
            models.append(model)
            r = check_theorem_3_3(model, MODEL_TOLERANCE)
            worst_33 = max(worst_33, r.conclusion_residuals["max_h"])
            r2 = check_theorem_3_2(model, MODEL_CONCLUSION_TOLERANCE, rng)
            worst_36 = max(worst_36, r2.conclusion_residuals["3.6"])
            worst_37 = max(worst_37, r2.conclusion_residuals["3.7"])
        worst_structure = max(model_structure_residuals(models).values())
        checks.append(_tol_check(
            "model_structure", "Eqs (2.6)-(2.8)", worst_structure, MODEL_TOLERANCE,
            convention="exact pointwise model", used=MODEL_DRAWS,
        ))
        model0 = make_pointwise_model(config.n, 0.5, rngs["misc"])
        r31m = check_theorem_3_1(model0, MODEL_TOLERANCE)
        checks.append(_implication_check("thm_3_1_model", "Thm 3.1 (model)", r31m, MODEL_TOLERANCE))
        checks.append(_tol_check(
            "eq_3_6", "Eq (3.6)", worst_36, MODEL_CONCLUSION_TOLERANCE,
            convention="d(lambda) = 0 model", used=MODEL_DRAWS,
        ))
        checks.append(_tol_check(
            "eq_3_7", "Eq (3.7)", worst_37, MODEL_CONCLUSION_TOLERANCE,
            convention="w = 2 lambda u", used=MODEL_DRAWS,
        ))
        checks.append(_tol_check(
            "thm_3_3_model", "Thm 3.3 (model)", worst_33, MODEL_TOLERANCE,
            convention="H = -phi/lambda", used=MODEL_DRAWS,
        ))
        r34m = theorem_3_4_model_consistency(model0)
        checks.append(_implication_check("thm_3_4_model", "Thm 3.4 (model)", r34m, MODEL_TOLERANCE))

    meta["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    return VerificationReport(meta=meta, checks=checks)
