"""Parallel-field theorems: chart-level implication checks and exact models.

Each theorem is verified on two levels.  Chart mode evaluates the
hypothesis residual (a covariant derivative norm) at sampled surface
points and tests the conclusions only where the hypothesis nearly
holds; on generic hypersurfaces that never happens and the verdict is
``vacuous``, which is an honest outcome, never a failure.  Model mode
builds exact pointwise linear-algebra data satisfying the algebraic
structure identities, imposes the hypothesis algebraically, and
measures the conclusions to machine precision.  Each check returns its
report row (:class:`~sasakicheck.report.CheckResult`; Theorem 3.1's
chart check returns five, ``eq_3_1`` to ``eq_3_5``), whose details keep
the hypothesis residual, the conclusion residuals and the notes.
Verdicts come from :func:`~sasakicheck.report.verdict` with
``miss="refuted"``: ``vacuous`` unless the hypothesis holds on samples
that ``LAMBDA_FLOOR`` keeps (the notes say when it keeps none), ``refuted``
when a conclusion misses (or is NaN), ``pass`` otherwise.

A model is a stack of D draws (:class:`PointwiseModel`, from
:func:`make_pointwise_model` with a 1-D array of lambdas), as a point
stack is a stack of points; one model is a stack of one.  A report's
draws are one block of normal draws, one stacked QR and orientation
determinant, stacked products for the model data.  The structure
identities and Theorem 3.3 read the whole stack; Theorems 3.1, 3.2 and
3.4 take one draw.  Every model check requires finite data
(:func:`require_finite`).  The report's Theorem 3.2 rows
(:func:`theorem_3_2_rows`) call :func:`impose_theorem_3_2` once per
draw, with w in closed form, for only the (3.6) and (3.7) residuals;
:func:`check_theorem_3_2` wraps it for one draw.  Stacking those draws
waits on ROADMAP items 1 and 2.  Each stacked step is the one-draw step
elementwise or per matrix, so the stack holds the bits of one-draw calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, List

import numpy as np

from . import linalg
from .induced import SampleState, structure_residuals
from .report import CheckResult, equation, row, verdict

LAMBDA_FLOOR = 1e-6
HYPOTHESIS_TOL = 1e-6
CONCLUSION_TOL = 1e-5
MODEL_TOL = 1e-12
MODEL_CONCLUSION_TOL = 1e-10
_FLOOR_NOTE = "hypothesis held, but all {} points fell below LAMBDA_FLOOR: no conclusion measured"


def _largest(concl: Dict[str, float]) -> float:
    """The largest conclusion residual, 0 with none; NaN when any is, so a NaN never passes."""
    values = concl.values()
    return math.nan if any(v != v for v in values) else max(values, default=0.0)


def _implication(name, ref, hyp, concl, tol, held, convention, used=0, excluded=0,
                 notes=()) -> CheckResult:
    """The report row of an implication: ``vacuous`` unless ``held`` on some
    samples ``used`` (noting the floor's exclusions when none was), else
    ``refuted`` when a conclusion residual misses ``tol``, else ``pass``.
    Its residual is the largest conclusion residual, or the hypothesis
    residual when vacuous; its details keep both, and the notes."""
    if held and not used:
        held, notes = False, [*notes, _FLOOR_NOTE.format(excluded)]
    return row(name, ref, _largest(concl) if held else hyp, tol,
               verdict(_largest(concl), tol, "refuted", held=held), convention, used, excluded,
               {"hypothesis_residual": hyp, "conclusion_residuals": concl, "notes": list(notes)})


# ---------------------------------------------------------------------------
# chart-level machinery
# ---------------------------------------------------------------------------


def _along(dirs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x[p] @ X for every direction X of every point, as (P, K)."""
    return linalg.pair(x[:, None], dirs)


def _form(X: np.ndarray, M: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """(X @ M[p]) @ Y for every row X of X[p] and Y of Y[p], as (P, K, K)."""
    XM = (X[:, :, None] @ M[:, None])[:, :, 0]
    return linalg.pair(XM[:, :, None], Y[:, None])


def _covariant_along(states: SampleState, field: str) -> np.ndarray:
    """|nabla_X field| for every point and direction X, as (P, K, ...)."""
    return np.abs(np.einsum("pki,pi...->pk...", states.dirs, getattr(states, "cov" + field)))


def _scalar_relation(states: SampleState, structure_sign: float) -> np.ndarray:
    """lambda w(X) - s u(X) + d lambda(X) for every point and direction X, as
    (P, K): the residual of (3.5) and of (3.8), with s the structure sign."""
    bd, dirs = states.bundle, states.dirs
    return (bd.lam[:, None] * _along(dirs, states.gw.w) - structure_sign * _along(dirs, bd.u)
            + _along(dirs, bd.dlam))


def _max_per_point(a: np.ndarray) -> np.ndarray:
    return np.max(a, axis=tuple(range(1, a.ndim)))


def _gated(hypothesis: np.ndarray, lam: np.ndarray, eps_h: float):
    """Mask of the samples whose own hypothesis residual is within ``eps_h``
    and whose lambda clears the floor, their count, and the count of
    samples within ``eps_h`` excluded by the floor."""
    held = ~(hypothesis > eps_h)
    small = np.abs(lam) < LAMBDA_FLOOR
    return held & ~small, int(np.count_nonzero(held & ~small)), int(np.count_nonzero(held & small))


def parallel_residual(states: SampleState, field: str) -> float:
    """max over samples and directions of |nabla_X field| for field in {phi, U, V}."""
    if field not in ("phi", "U", "V"):
        raise ValueError(f"parallel_residual supports phi, U, V; got {field!r}")
    return linalg.worst(_covariant_along(states, field))


def theorem_3_1_chart(
    states: SampleState,
    eps_h: float = HYPOTHESIS_TOL,
    eps_c: float = CONCLUSION_TOL,
    structure_sign: float = 1.0,
) -> List[CheckResult]:
    """phi parallel implies (3.2)-(3.5); evaluated only where nabla phi is small.

    The rows are ``eq_3_1``, the hypothesis residual |nabla phi| against
    ``eps_h`` (``vacuous`` when it misses), and ``eq_3_2`` to ``eq_3_5``,
    the conclusions against ``eps_c``, each with its own verdict and counts;
    (3.5) divides by lambda: it counts point x direction samples above the floor."""
    hyp = parallel_residual(states, "phi")
    held, convention = hyp <= eps_h, "nabla phi = 0 hypothesis"
    rows = [row("eq_3_1", "Eq (3.1)", hyp, eps_h, verdict(hyp, eps_h, "vacuous"), convention,
                len(states.dirs), details={"note": "hypothesis residual |nabla phi|"})]
    if not held:
        return rows + [row(*equation(eq), None, eps_c, "vacuous", convention)
                       for eq in ("3.2", "3.3", "3.4", "3.5")]
    bd, dirs, h = states.bundle, states.dirs, states.gw.h
    one = (1.0 - bd.lam * bd.lam)[:, None, None]
    uY, vX = structure_sign * _along(dirs, bd.u), _along(dirs, bd.v)
    small = np.abs(bd.lam) < LAMBDA_FLOOR
    relation = np.abs(_scalar_relation(states, structure_sign)[~small])
    pairs = dirs.shape[0] * dirs.shape[1] ** 2
    # each conclusion's residuals, samples used and points excluded
    for eq, (residual, used, excluded) in {
        "3.2": (np.abs(one * _form(dirs, h, dirs) + uY[:, None] * vX[..., None]), pairs, 0),
        "3.3": (np.abs(h @ bd.V[..., None]), pairs, 0),
        "3.4": (np.abs(one * _form(dirs, bd.g, dirs) - vX[..., None] * vX[:, None]), pairs, 0),
        "3.5": (relation, relation.size, int(np.count_nonzero(small))),
    }.items():
        worst = linalg.worst(residual) if used else None
        rows.append(row(*equation(eq), worst, eps_c,
                        verdict(worst, eps_c, "refuted", held=used > 0), convention, used,
                        excluded, None if used else {"notes": [_FLOOR_NOTE.format(excluded)]}))
    return rows


def theorem_3_2_chart(
    states: SampleState,
    eps_h: float = HYPOTHESIS_TOL,
    eps_c: float = CONCLUSION_TOL,
    structure_sign: float = 1.0,
) -> CheckResult:
    """U parallel implies (3.6)-(3.7); generically vacuous."""
    hyp = parallel_residual(states, "U")
    concl = {"3.6": 0.0, "3.7": 0.0}
    used = excluded = 0
    if hyp <= eps_h:
        bd, gw = states.bundle, states.gw
        kept = ~(np.abs(bd.lam) < LAMBDA_FLOOR)
        lam, dirs, u, phi, g, dlam, h, w = (
            a[kept] for a in (bd.lam, states.dirs, bd.u, bd.phi, bd.g, bd.dlam, gw.h, gw.w))
        u, phi = structure_sign * u, structure_sign * phi
        phiY = (phi[:, None] @ dirs[..., None])[..., 0]
        uX, wY = _along(dirs, u), _along(dirs, w)
        concl["3.6"] = linalg.worst(np.abs(
            _form(dirs, h, phiY) - lam[:, None, None] * _form(dirs, g, dirs)
            + wY[:, None] * uX[..., None]))
        dloglam = _along(dirs, dlam) / lam[:, None]
        concl["3.7"] = linalg.worst(np.abs(
            wY - (2.0 * lam)[:, None] * uX + (lam * lam)[:, None] * dloglam))
        used = dirs.shape[0] * dirs.shape[1] ** 2
        excluded = len(states.dirs) - dirs.shape[0]
    return _implication("thm_3_2_chart", "Thm 3.2 (chart)", hyp, concl, eps_c, hyp <= eps_h,
                        "nabla U = 0 hypothesis", used, excluded)


def theorem_3_3_chart(
    states: SampleState,
    eps_h: float = HYPOTHESIS_TOL,
) -> CheckResult:
    """V parallel implies totally geodesic, as the bound |h| <= C eps / |lambda|,
    decided at tolerance 0."""
    eps = _max_per_point(_covariant_along(states, "V"))
    bd = states.bundle
    ok, used, excluded = _gated(eps, bd.lam, eps_h)
    hyp = linalg.worst(np.where(eps > eps_h, eps, 0.0)) if used == 0 else 0.0
    eps, lam, g, phi, h = (a[ok] for a in (eps, bd.lam, bd.g, bd.phi, states.gw.h))
    C = (1.0 + _max_per_point(np.abs(g))) * (1.0 + _max_per_point(np.abs(phi)))
    bound = C * np.maximum(eps, 1e-15) / np.abs(lam)
    concl = {"h_bound": linalg.worst(np.maximum(0.0, _max_per_point(np.abs(h)) - bound))}
    return _implication("thm_3_3_chart", "Thm 3.3 (chart)", hyp, concl, 0.0, used + excluded > 0,
                        "nabla V = 0 hypothesis", used, excluded)


def check_theorem_3_4(
    states: SampleState,
    eps_h: float = HYPOTHESIS_TOL,
    eps_c: float = CONCLUSION_TOL,
    structure_sign: float = 1.0,
) -> CheckResult:
    """h = 0 implies lambda w = u - d lambda (3.8); vacuous wherever h != 0."""
    lam, h = states.bundle.lam, states.gw.h
    hnorm = _max_per_point(np.abs(h))
    ok, used, excluded = _gated(hnorm, lam, eps_h)
    concl = {"3.8": linalg.worst(np.abs(_scalar_relation(states, structure_sign)[ok]))}
    hyp = float(np.fmin.reduce(hnorm, initial=np.inf)) if used == 0 else 0.0
    return _implication("eq_3_8", "Eq (3.8)", hyp, concl, eps_c, used + excluded > 0,
                        "h = 0 hypothesis", used, excluded)


# ---------------------------------------------------------------------------
# exact pointwise models
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PointwiseModel:
    """Exact induced data at a stack of D abstract points, the draws.

    Built inside a flat linear ambient: identity metric on R^(2n+1),
    block rotation as phi~, the last basis vector as xi, a unit normal
    with eta(N) = lambda, and the orthogonal complement as the tangent
    space.  The decomposition is solved exactly, so the algebraic
    structure identities hold to machine precision.

    ``lam`` is a (D,) array and every other array carries the draw axis
    first; one model is a stack of one draw.
    """

    lam: np.ndarray
    g: np.ndarray
    phi: np.ndarray
    u: np.ndarray
    v: np.ndarray
    U: np.ndarray
    V: np.ndarray

    @property
    def n(self) -> int:
        return self.g.shape[-1] // 2


def make_pointwise_model(n: int, lams, rng) -> PointwiseModel:
    """The D models of a 1-D array of D lambdas, as one stack.

    Each draw takes its normal direction and then its frame columns from
    ``rng``, so a stack holds what D one-draw calls in turn would build,
    bit for bit, and leaves ``rng`` in the same state.  Every lambda must
    lie in (-1, 1); a scalar lambda raises ``ValueError``: one model is
    ``make_pointwise_model(n, [lam], rng)``.
    """
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 1:
        raise ValueError(f"lambdas must form a 1-D array, got shape {lams.shape}")
    if not np.all((-1.0 < lams) & (lams < 1.0)):
        raise ValueError("lambda must lie in (-1, 1) for a noninvariant model")
    d = 2 * n + 1
    m = 2 * n
    phi_amb = np.zeros((d, d))
    phi_amb[:n, n:m] = -np.eye(n)
    phi_amb[n:m, :n] = np.eye(n)
    xi = np.zeros(d)
    xi[-1] = 1.0

    draws = rng.normal(size=(len(lams), m + d * m))
    # one BLAS dot per draw, as np.linalg.norm takes it; a stacked sum rounds differently
    nu = draws[:, :m] / np.sqrt([x.dot(x) for x in draws[:, :m]])[:, None]
    N = np.concatenate([np.sqrt(1.0 - lams * lams)[:, None] * nu, lams[:, None]], axis=1)

    # orthonormal tangent frames spanning the complements of N, oriented by [B | N]
    A = np.concatenate([N[:, :, None], draws[:, m:].reshape(-1, d, m)], axis=2)
    Q, _ = np.linalg.qr(A)
    flip = np.linalg.det(np.concatenate([Q[:, :, 1:], N[:, :, None]], axis=2)) < 0
    Q[flip, :, 1] = -Q[flip, :, 1]
    B = Q[:, :, 1:]
    Bt, Nc = B.mT, N[:, :, None]

    phi = Bt @ phi_amb @ B
    u = ((phi_amb @ B).mT @ Nc)[..., 0]
    U = (-Bt @ (phi_amb @ Nc))[..., 0]
    V = v = Bt @ xi
    g = Bt @ B
    return PointwiseModel(lam=lams, g=g, phi=phi, u=u, v=v, U=U, V=V)


def require_finite(models: PointwiseModel, check: str) -> None:
    """Raise ``ValueError`` naming ``check`` unless every field of every
    draw is finite."""
    data = [np.ravel(getattr(models, f.name)) for f in fields(models)]
    if not np.isfinite(np.concatenate(data)).all():
        raise ValueError(f"{check} takes finite model data")


def _one_model(model: PointwiseModel, check: str) -> tuple:
    """The arrays of a one-draw stack's draw in field order, ``lam`` a
    Python float; ``ValueError`` naming ``check`` for any other draw
    count or for non-finite data."""
    if np.shape(model.lam) != (1,):
        raise ValueError(f"{check} takes one draw, got lambdas of shape {np.shape(model.lam)}")
    require_finite(model, check)
    return (float(model.lam[0]), *(getattr(model, f.name)[0] for f in fields(model)[1:]))


def model_structure_residuals(models: PointwiseModel) -> Dict[str, float]:
    """Largest residual of each algebraic structure identity (2.6)-(2.8)
    over a stack of models."""
    require_finite(models, "model_structure_residuals")
    res = structure_residuals(models.phi, models.u, models.U, models.V, models.v, models.lam,
                              models.g, eta_n=models.lam)
    return {k: r for k, r in res.items() if not k.startswith("2.5")}


def check_theorem_3_1(model: PointwiseModel, tol: float = MODEL_TOL) -> CheckResult:
    """Impose v(X)Y - g(X,Y)V + h(X,Y)U + u(X)HY = 0 with symmetric h on a
    one-draw model.

    The constraint is solved in least squares over symmetric h and
    general H; the solve residual measures whether the hypothesis can
    hold at all.  The recorded obstruction is that the conclusion
    (1 - lambda^2) g = v (x) v forces a rank-degenerate metric.
    """
    lam, g, _, u, v, U, V = _one_model(model, "check_theorem_3_1")
    m = 2 * model.n
    # h is unknown once per pair a <= b, in row-major order; sym[a, b] = sym[b, a]
    # is that unknown's index.  Row (a, b, c) of the system, row-major, is
    # U^c h(a, b) + u(a) H^c_b = g(a, b) V^c - v(a) delta^c_b
    upper = np.triu_indices(m)
    n_h = len(upper[0])
    sym = np.empty((m, m), dtype=int)
    sym[upper] = sym.T[upper] = np.arange(n_h)
    a, b, c = np.indices((m, m, m)).reshape(3, -1)
    row = np.arange(m ** 3)
    A = np.zeros((m ** 3, n_h + m * m))
    A[row, sym[a, b]] = U[c]
    A[row, n_h + c * m + b] = u[a]
    bvec = g[a, b] * V[c] - v[a] * (b == c)
    sol, *_ = np.linalg.lstsq(A, bvec, rcond=None)
    solve_residual = float(np.max(np.abs(A @ sol - bvec)))

    h = sol[sym]
    H = sol[n_h:].reshape(m, m)

    one = 1.0 - lam * lam
    concl = {
        "3.2": float(np.max(np.abs(one * h + np.outer(v, u)))),
        "3.3": float(np.max(np.abs(h @ V))),
        "3.4": float(np.max(np.abs(one * g - np.outer(v, v)))),
    }
    side_condition = float(np.max(np.abs(H.T @ g - h)))
    notes = [
        "3.5 needs d(lambda); chart mode only",
        f"side condition g(HX, Y) = h(X, Y) off by {side_condition:.3e} on the constrained model",
    ]
    if abs(lam) < LAMBDA_FLOOR:
        notes.append("lambda = 0 exclusion for 3.5")
    if np.max(np.abs(u)) < 1e-12 and np.max(np.abs(v)) < 1e-12:
        if np.max(np.abs(V)) > 1e-12:
            notes.append("u = v = 0 with V != 0: g(X,Y)V = v(X)Y unsolvable")
        else:
            notes.append("u = v = 0 invariant point: h, H unconstrained")
    held = solve_residual <= tol
    if not held:
        notes.append(
            f"hypothesis not imposable: (3.4) forces rank-degenerate g "
            f"(residual {concl['3.4']:.3e} with 1 - lambda^2 = {one:.3e})"
        )
    return _implication("thm_3_1_model", "Thm 3.1 (model)", solve_residual, concl, tol, held,
                        "least-squares h (symmetric), H", 1, notes=notes)


def _imposed_w(phi_inv, u, U, V, g, lam):
    """The w with h(., V) = (U . a) w - lambda a = u - lambda w, where a = phi^-T g V."""
    a = phi_inv.T @ (g @ V)
    slope = U @ a + lam
    if slope == 0.0:
        raise ValueError(f"h(., V) = u - lambda w has slope 0 in w at lambda {lam}")
    return (u + lam * a) / slope


def impose_theorem_3_2(lam, g, phi, u, U, V, eye):
    """Impose w(X)U - phi H X - lambda X = 0 on one d(lambda) = 0 draw with
    lambda != 0, given as its arrays, ``lam`` a float and ``eye`` the
    identity of the draw's dimension.

    Returns the (3.6) and (3.7) residuals, then the imposed map
    U (x) w - lambda I, H = phi^-1 of it and h = H^T g, which
    :func:`check_theorem_3_2` reads for its hypothesis residual and note.
    Raises ``ValueError`` for a singular phi or a zero slope in w."""
    det = np.linalg.det(phi)
    if abs(det) < 1e-12:
        raise ValueError(f"phi unexpectedly singular (det {det:.3e}) for lambda {lam}")
    phi_inv = np.linalg.inv(phi)
    w = _imposed_w(phi_inv, u, U, V, g, lam)
    imposed = np.outer(U, w) - lam * eye
    H = phi_inv @ imposed
    hmat = H.T @ g
    residuals = (float(np.max(np.abs(hmat @ phi - lam * g + np.outer(u, w)))),
                 float(np.max(np.abs(w - 2.0 * lam * u))))
    return residuals, (imposed, H, hmat)


def theorem_3_2_rows(models: PointwiseModel) -> List[CheckResult]:
    """The (3.6) and (3.7) rows over a stack of d(lambda) = 0 models: the
    largest residuals of :func:`impose_theorem_3_2` over the draws, taken
    one draw at a time.  Raises ``ValueError`` unless the data are finite,
    as :func:`check_theorem_3_2` requires, and every lambda clears
    ``LAMBDA_FLOOR``, so each draw takes that check's lambda != 0 branch."""
    require_finite(models, "check_theorem_3_2")
    if np.any(np.abs(models.lam) < LAMBDA_FLOOR):
        raise ValueError(f"theorem_3_2_rows takes lambdas with |lambda| >= {LAMBDA_FLOOR}")
    eye, used = np.eye(2 * models.n), len(models.lam)
    worst_36 = worst_37 = 0.0
    for lam, g, phi, u, U, V in zip(models.lam.tolist(), models.g, models.phi, models.u,
                                    models.U, models.V):
        (r36, r37), _ = impose_theorem_3_2(lam, g, phi, u, U, V, eye)
        worst_36, worst_37 = max(worst_36, r36), max(worst_37, r37)
    return [row(*equation("3.6"), worst_36, MODEL_CONCLUSION_TOL,
                convention="d(lambda) = 0 model", used=used),
            row(*equation("3.7"), worst_37, MODEL_CONCLUSION_TOL,
                convention="w = 2 lambda u", used=used)]


def check_theorem_3_2(
    model: PointwiseModel, tol: float = MODEL_CONCLUSION_TOL, rng=None
) -> CheckResult:
    """Impose w(X)U - phi H X - lambda X = 0 on a one-draw d(lambda) = 0 model.

    H follows from the hypothesis once w is known; w itself is pinned by
    the scalar compatibility relation h(Y, V) = u(Y) - lambda w(Y), affine
    in w with a scalar slope (:func:`_imposed_w`).  The conclusions measured
    are h(X, phi Y) = lambda g(X, Y) - w(Y) u(X) and w = 2 lambda u.
    """
    lam, g, phi, u, _, U, V = _one_model(model, "check_theorem_3_2")
    m = 2 * model.n
    if abs(lam) < LAMBDA_FLOOR:
        # phi has kernel span(U, V); any H into the kernel satisfies the hypothesis
        rng = rng or np.random.default_rng(0)
        a = rng.normal(size=m)
        b = rng.normal(size=m)
        H = np.outer(U, a) + np.outer(V, b)
        hyp = float(np.max(np.abs(phi @ H)))
        hmat = H.T @ g
        concl = {
            "3.6": float(np.max(np.abs(hmat @ phi))),
            "3.7": 0.0,
        }
        note = "lambda = 0: phi-inversion obstruction, H fixed only up to ker(phi)"
        convention = "w = 0, lambda = 0 branch"
    else:
        (r36, r37), (imposed, H, hmat) = impose_theorem_3_2(lam, g, phi, u, U, V, np.eye(m))
        hyp = float(np.max(np.abs(phi @ H - imposed)))
        concl = {"3.6": r36, "3.7": r37}
        note = f"h asymmetry under the hypothesis: {np.max(np.abs(hmat - hmat.T)):.3e}"
        convention = "d(lambda) = 0 model, w from scalar compatibility"
    return _implication("thm_3_2_model", "Thm 3.2 (model)", hyp, concl, tol, hyp <= 1e-10,
                        convention, 1, notes=[note])


def check_theorem_3_3(model: PointwiseModel, tol: float = MODEL_TOL) -> CheckResult:
    """V parallel forces h = 0: H = -phi/lambda makes g(HX, Y) antisymmetric,
    and a symmetric second fundamental form equal to it must vanish.

    Draws with |lambda| < LAMBDA_FLOOR are excluded, and ``max_h`` is the
    largest over the others."""
    require_finite(model, "check_theorem_3_3")
    lam = model.lam
    kept = np.abs(lam) >= LAMBDA_FLOOR
    used = int(np.count_nonzero(kept))
    excluded = len(lam) - used
    if used == 0:
        return _implication("thm_3_3_model", "Thm 3.3 (model)", np.inf, {}, tol, False, "",
                            excluded=excluded,
                            notes=["lambda = 0 excluded (hypothesis divides by lambda)"])
    H = -model.phi[kept] / lam[kept][:, None, None]
    hmat = H.mT @ model.g[kept]
    forced = 0.5 * np.max(np.abs(hmat + hmat.mT), axis=(1, 2))
    return _implication("thm_3_3_model", "Thm 3.3 (model)", 0.0, {"max_h": linalg.worst(forced)},
                        tol, True, "H = -phi/lambda", used, excluded)


def theorem_3_4_model_consistency(model: PointwiseModel) -> CheckResult:
    """With h = 0, w = 0 and constant lambda the scalar relation forces
    u = 0, which no noninvariant model satisfies; record the forced-u
    residual rather than pretending the family exists.  Takes a one-draw
    model."""
    lam, _, _, u, *_ = _one_model(model, "theorem_3_4_model_consistency")
    forced_u = float(np.max(np.abs(u)))
    return _implication("thm_3_4_model", "Thm 3.4 (model)", 0.0, {"forced_u": forced_u},
                        MODEL_TOL, False, "", 1, notes=[
                            "h = 0, w = 0, d(lambda) = 0 forces u = 0; "
                            f"u(U) = 1 - lambda^2 = {1 - lam ** 2:.3e} keeps u nonzero"])
