"""Execute a configured verification suite and assemble the report.

A report is one :class:`_Context` read by the check groups in
``GROUPS``, one function per group, each returning its report rows; the
identity batteries of :mod:`sasakicheck.induced` return theirs as built.
The context draws every sample from the configured seed up front, in a
fixed order, and builds each shared intermediate once, when a group
first reads it: the ambient axiom battery; one frame stack of the chart
points (with first partials only if a group reads derivatives), the
structure split and the Gauss-Weingarten data on it and the sample
states; and the differential battery with its adjudicated structure
sign.  So a group's rows do not depend on which other groups run, and a
fixed configuration reproduces the report bit for bit.
"""

from __future__ import annotations

import time
from functools import cached_property

import numpy as np

from . import __version__, linalg
from .config import CHECK_GROUPS, SuiteConfig
from .exprs import compile_expression, compile_map
from .fields import DEFAULT_FD_STEP, PointStack, TensorField, evaluate, jet
from .hypersurface import (
    Embedding,
    NormalField,
    frame_stack,
    gauss_weingarten,
    reconstruction_residuals,
    second_fundamental_symmetry,
)
from .induced import (
    NONINVARIANT_THRESHOLD,
    extract_structure,
    sample_states,
    verify_algebraic_identities,
    verify_differential_identities,
)
from .report import CheckResult, VerificationReport, equation, verdict
from .sampling import sample_points, sample_vectors, spawn_rngs
from .sasakian import check_sasakian_axioms, standard_sasakian
from .theorems import (
    MODEL_CONCLUSION_TOL,
    MODEL_TOL,
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


class _Context:
    """The samples, surface and normal of one report, plus the shared
    intermediates, each built on first use."""

    def __init__(self, config: SuiteConfig):
        self.config, self.tol = config, config.tolerances
        self.rngs = rngs = spawn_rngs(config.seed)
        self.ambient = ambient = standard_sasakian(config.n)
        self.ambient_points = sample_points(config.ambient_dim, config.count, config.box,
                                            rngs["ambient_points"])
        self.ambient_dirs = sample_vectors(config.ambient_dim, 5, rngs["ambient_directions"])
        self.chart_points = sample_points(config.surface_dim, config.count, config.box,
                                          rngs["chart_points"])
        # the differential battery pairs these consecutively: (0, 1), (2, 3), ...
        self.tangent_vecs = sample_vectors(config.surface_dim, 10, rngs["chart_directions"])

        self.embedding = Embedding(config.surface_dim, ambient,
                                   compile_map(config.outputs, config.inputs))
        self.scaling_field = None if config.scaling is None else TensorField(
            (0, 0), config.surface_dim, compile_expression(config.scaling, config.inputs))
        orientation = config.orientation
        if orientation == "lambda_nonneg":
            # pick the sign that makes eta(N) >= 0 at the declared base point
            probe = frame_stack(NormalField(self.embedding, None, 1),
                                PointStack([config.base_point]))
            eta = evaluate(ambient.eta, probe.images)[0]
            lam0 = float(eta @ probe.normal[0])
            orientation = 1 if lam0 >= 0 else -1
        self.orientation = orientation
        self.normal = NormalField(self.embedding, self.scaling_field, orientation)

    @cached_property
    def axioms(self):
        return check_sasakian_axioms(self.ambient, self.ambient_points, self.ambient_dirs)

    @cached_property
    def frames(self):
        # the groups that read derivatives need the frames' first partials
        partials = not {"gauss_weingarten", "differential", "theorems"}.isdisjoint(
            self.config.checks)
        return frame_stack(self.normal, self.chart_points, partials)

    @cached_property
    def structure(self):
        # the ambient is standard_sasakian(n), measured by the axiom groups
        return extract_structure(self.frames, require_sasakian=False)

    @cached_property
    def gws(self):
        return gauss_weingarten(self.frames)

    @cached_property
    def states(self):
        return sample_states(self.structure, self.tangent_vecs, self.gws)

    @cached_property
    def differential(self):
        return verify_differential_identities(
            self.states, tolerance=self.tol["differential"], strict_paper=self.config.strict_paper)

    @cached_property
    def structure_sign(self) -> float:
        return -1.0 if self.differential.structure_sign == "phi-flipped" else 1.0


def _row(name, ref, residual, tol, outcome=None, convention="", used=0, excluded=0, details=None):
    """One report row; its verdict is ``outcome``, by default ``verdict(residual, tol)``."""
    return CheckResult(name, ref, None if residual is None else float(residual),
                       None if tol is None else float(tol), outcome or verdict(residual, tol),
                       convention, used, excluded, details or {})


def _implication_row(name, ref, result, tol):
    residual = max(result.conclusion_residuals.values()) if result.conclusion_residuals else 0.0
    return _row(
        name, ref, residual if result.verdict != "vacuous" else result.hypothesis_residual, tol,
        result.verdict, result.convention, result.samples_used,
        result.samples_excluded, {"hypothesis_residual": result.hypothesis_residual,
                                  "conclusion_residuals": result.conclusion_residuals,
                                  "notes": result.notes})


def _axiom_rows(ctx, eqs):
    res = ctx.axioms.residuals
    rows = []
    for eq in eqs:
        details = {k: res[k] for k in ("1.3a", "1.3b", "1.3c")} if eq == "1.3" else {}
        rows.append(_row(*equation(eq), max(details.values()) if details else res[eq],
                         ctx.tol["axiom"], used=ctx.axioms.sample_count, details=details))
    return rows


def _gauss_weingarten(ctx):
    tol, used, gws = ctx.tol["reconstruction"], len(ctx.chart_points), ctx.gws
    rec, w = reconstruction_residuals(gws), gws.w
    unit = ctx.scaling_field is None
    rows = [
        _row(*equation("2.9"), rec["gauss"], tol, convention="Gauss reconstruction",
             used=used, details={"h_symmetry": second_fundamental_symmetry(gws)}),
        _row(*equation("2.10"), rec["weingarten"], tol, convention="Weingarten reconstruction",
             used=used, details={"w_residual_unit_normal": linalg.worst(np.abs(w))} if unit else {}),
    ]
    if not unit:
        # w must equal d log rho; independent product-rule consequence
        jt = jet(ctx.scaling_field, ctx.frames.points)
        rows.append(_row("normal_scaling_w", "w = d log rho",
                         linalg.worst(np.abs(w - jt.partials / jt.value[:, None])), tol,
                         convention="scaled normal", used=used))
    return rows


def _structure(ctx):
    S, tol, used = ctx.structure, ctx.tol["axiom"], len(ctx.chart_points)
    if ctx.scaling_field is None:
        lam = _row("lambda_eta_consistency", "Eq (2.3)", S.lambda_consistency, tol,
                   convention="unit normal", used=used)
    else:
        lam = _row("lambda_eta_consistency", "Eq (2.3)", None, None, "vacuous",
                   "scaled normal: eta(N) != lambda by construction", used)
    return [
        _row("phi_normal_tangency", "Eq (2.2)", S.tangency_residual, tol, used=used),
        lam,
        _row("noninvariance", "u != 0", max(0.0, NONINVARIANT_THRESHOLD - S.max_u), 0.0,
             convention=f"max|u| = {S.max_u:.6e}", used=used,
             details={"max_u": S.max_u, "threshold": NONINVARIANT_THRESHOLD}),
    ]


def _theorems(ctx):
    states, sign = ctx.states, ctx.structure_sign
    hyp, concl = ctx.tol["hypothesis"], ctx.tol["conclusion"]
    r31 = theorem_3_1_chart(states, hyp, concl, sign)
    rows = [_row("eq_3_1", "Eq (3.1)", r31.hypothesis_residual, hyp,
                 verdict(r31.hypothesis_residual, hyp, "vacuous"), r31.convention,
                 len(ctx.chart_points), details={"note": "hypothesis residual |nabla phi|"})]
    rows += [_row(*equation(eq), r31.conclusion_residuals[eq] if r31.verdict != "vacuous" else None,
                  concl, r31.verdict, r31.convention, r31.samples_used,
                  r31.samples_excluded)
             for eq in ("3.2", "3.3", "3.4", "3.5")]
    r32 = theorem_3_2_chart(states, hyp, concl, sign)
    rows.append(_implication_row("thm_3_2_chart", "Thm 3.2 (chart)", r32, concl))
    r33 = theorem_3_3_chart(states, hyp)
    rows.append(_implication_row("thm_3_3_chart", "Thm 3.3 (chart)", r33, concl))
    r34 = check_theorem_3_4(states, hyp, concl, sign)
    rows.append(_implication_row("eq_3_8", "Eq (3.8)", r34, concl))
    return rows


def _models(ctx):
    n, rng = ctx.config.n, ctx.rngs["models"]
    models = make_pointwise_model(n, rng.uniform(0.1, 0.9, size=MODEL_DRAWS), rng)
    worst_36 = worst_37 = 0.0
    for model in models.draws():  # Theorem 3.2 imposes its hypothesis one draw at a time
        r = check_theorem_3_2(model, MODEL_CONCLUSION_TOL, rng).conclusion_residuals
        worst_36, worst_37 = max(worst_36, r["3.6"]), max(worst_37, r["3.7"])
    model0 = make_pointwise_model(n, 0.5, ctx.rngs["misc"])
    return [
        _row("model_structure", "Eqs (2.6)-(2.8)", max(model_structure_residuals(models).values()),
             MODEL_TOL, convention="exact pointwise model", used=MODEL_DRAWS),
        _implication_row("thm_3_1_model", "Thm 3.1 (model)",
                         check_theorem_3_1(model0, MODEL_TOL), MODEL_TOL),
        _row("eq_3_6", "Eq (3.6)", worst_36, MODEL_CONCLUSION_TOL,
             convention="d(lambda) = 0 model", used=MODEL_DRAWS),
        _row("eq_3_7", "Eq (3.7)", worst_37, MODEL_CONCLUSION_TOL,
             convention="w = 2 lambda u", used=MODEL_DRAWS),
        _row("thm_3_3_model", "Thm 3.3 (model)",
             check_theorem_3_3(models, MODEL_TOL).conclusion_residuals["max_h"], MODEL_TOL,
             convention="H = -phi/lambda", used=MODEL_DRAWS),
        _implication_row("thm_3_4_model", "Thm 3.4 (model)",
                         theorem_3_4_model_consistency(model0), MODEL_TOL),
    ]


GROUPS = {
    "axioms": lambda ctx: _axiom_rows(ctx, [f"1.{k}" for k in range(1, 8)]),
    "two_form": lambda ctx: _axiom_rows(ctx, ["1.8", "1.9", "1.10"]),
    "gauss_weingarten": _gauss_weingarten,
    "structure": _structure,
    "algebraic": lambda ctx: verify_algebraic_identities(
        ctx.structure, ctx.tol["algebraic"]).identities,
    "differential": lambda ctx: ctx.differential.identities,
    "theorems": _theorems,
    "models": _models,
}


def run_suite(config: SuiteConfig) -> VerificationReport:
    ctx = _Context(config)
    requested = [g for g in CHECK_GROUPS if g in config.checks]
    checks = [row for group in requested for row in GROUPS[group](ctx)]
    meta = {
        "config": config.name,
        "seed": config.seed,
        "version": __version__,
        "fd_step": DEFAULT_FD_STEP,
        "ambient": f"standard_sasakian(n={config.n})",
        "embedding": list(config.outputs),
        "normal_scaling": config.scaling or "unit",
        "orientation": ctx.orientation,
        "orientation_mode": config.orientation if isinstance(config.orientation, str) else "fixed",
        "sample_count": config.count,
        "box": list(config.box),
        "strict_paper": config.strict_paper,
        "checks": requested,
    }
    if "differential" in vars(ctx):  # the battery ran, for its group or the theorems
        meta["structure_sign"] = ctx.differential.structure_sign
        meta["v_HY_measured"] = ctx.differential.extras["v_HY_measured"]
    meta["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    return VerificationReport(meta=meta, checks=checks)
