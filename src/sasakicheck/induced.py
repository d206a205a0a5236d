"""Extraction and verification of the induced (phi, g, u, v, lambda) data.

Splitting phi~(BX), phi~N and xi against the tangent-plus-normal frame
of a hypersurface yields a (1,1) tensor phi, vector fields U and V,
one-forms u and v, and a scalar lambda on the surface chart.  This
module extracts that data at a stack of chart points, and measures the
algebraic and covariant-derivative identity battery against it.

The split is one batched float solve X = A^-1 R against the frames
A = [B | N] of one :class:`~sasakicheck.hypersurface.FrameStack` of all
sample points, which the Gauss-Weingarten data reads too.  Its first
partials come from implicit differentiation,
d_c X = A^-1 (d_c R - d_c A X), with the ambient tensors' partials
taken from one stacked dual jet each at the images b(p) and chained
through B; central differences of the induced fields stay the
independent check.  The split is one :class:`StructureBundle`, which
one :class:`SampleState` holds for the derivative checks; both are
records of (P, ...) arrays, the point axis first, even at one point.
Their metric is the frame stack's ``surface_metric``, and every
covariant derivative uses the Gauss connection ``gw.induced_gamma``.

Sign conventions are adjudicated, not assumed.  Each derivative
identity is evaluated over a grid of variants:

* H read as H_h, H_w or -H_w  (the two shape operators differ by a
  sign for a metric unit normal),
* the h/H terms of the right-hand side as printed or negated,
* the triple (phi, u, U) as extracted or globally negated (the two
  phi~ sign conventions found in the literature; the ambient axioms
  pin one, the derived identities turn out to live in the other).

The variants of an identity form a table (its s and nu signs and H).
The ten vector contractions of every direction pair (phi Y, H Y, the
covariant derivatives along Y, ...) are one block of stacked products on
the point stack; only the scalar pairings are taken per pair, as
printed.  All variants' residuals, the bilinear forms and the maxima are
one stacked pass over the pairs.  Each stacked product sums as the
one-pair product does, that pass is elementwise and s and nu are +-1,
so each term keeps the bits of its pair and variant written out alone.
Each battery returns its identities as report rows
(:class:`~sasakicheck.report.CheckResult`, ``eq_2_5`` and so on) with
their verdicts; a row records every variant's residual and the
minimizing tags.  Strict paper mode lists every variant at the extracted
sign and judges each identity on its printed form with H = H_h alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from itertools import chain, repeat
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .connection import covariant_derivative_components
from .errors import TangencyError
from .fields import PointStack, evaluate, jet
from .hypersurface import FrameStack, GaussWeingartenData, NormalField, frame_stack
from .report import CheckResult, equation, row, verdict
from .sampling import g_normalized
from .sasakian import check_sasakian_axioms

TANGENCY_TOL = 1e-8
NONINVARIANT_THRESHOLD = 1e-3
AMBIENT_AXIOM_TOL = 1e-6
IDENTITY_TOL = 1e-5

H_TAGS = ("H_h", "H_w", "-H_w")
STRUCTURE_TAGS = {1.0: "as-extracted", -1.0: "phi-flipped"}

# which variant axes each derivative identity actually has
_HAS_H = {"2.11": True, "2.12": False, "2.13": False, "2.14": True, "2.15": True,
          "2.16": False, "2.17": True}
_HAS_NU = {"2.11": True, "2.12": True, "2.13": True, "2.14": True, "2.15": True,
           "2.16": False, "2.17": True}


@dataclass(frozen=True, slots=True)
class StructureBundle:
    """Float induced data at P points, every field with the point axis
    first; with partials also ``dphi[p, c] = d_c phi`` (and so on)."""

    phi: np.ndarray
    u: np.ndarray
    U: np.ndarray
    V: np.ndarray
    v: np.ndarray
    lam: np.ndarray
    g: np.ndarray
    eta_n: np.ndarray
    tangency: np.ndarray
    dphi: Optional[np.ndarray] = None
    du: Optional[np.ndarray] = None
    dU: Optional[np.ndarray] = None
    dV: Optional[np.ndarray] = None
    dv: Optional[np.ndarray] = None
    dlam: Optional[np.ndarray] = None


def _structure_stack(ambient, fs: FrameStack) -> StructureBundle:
    """Split phi~B, phi~N and xi against every frame: X = A^-1 [phi~B | phi~N | xi].

    On a frame stack with partials the bundle includes every first partial,
    d_c X = A^-1 (d_c R - d_c A X).
    """
    B, nvec, A = fs.jacobian, fs.normal, fs.frame
    count, d, m = B.shape
    fields = (ambient.phi, ambient.xi, ambient.eta)
    jets = None if fs.hessian is None else [jet(f, fs.images) for f in fields]
    if jets is None:
        phit, xit, etat = (evaluate(f, fs.images) for f in fields)
    else:
        phit, xit, etat = (j.value for j in jets)
    R = np.concatenate([phit @ B, phit @ nvec[:, :, None], xit[:, :, None]], axis=2)
    X = np.linalg.solve(A, R)
    st = StructureBundle(phi=X[:, :m, :m], u=X[:, m, :m], U=-X[:, :m, m], V=X[:, :m, m + 1],
                         v=(etat[:, None, :] @ B)[:, 0], lam=X[:, m, m + 1],
                         g=fs.surface_metric, eta_n=linalg.pair(etat, nvec),
                         tangency=np.abs(X[:, m, m]))
    if jets is None:
        return st

    # chart partials of the ambient tensors at b(p), index c after the point axis
    dphit, dxit, detat = (np.einsum("pkc,pk...->pc...", B, j.partials) for j in jets)
    H = np.moveaxis(fs.hessian, 3, 1)  # H[p, c] = d_c B
    dN = fs.dnormal
    dA = np.concatenate([H, dN[..., None]], axis=3)
    dR = np.concatenate([dphit @ B[:, None] + phit[:, None] @ H,
                         dphit @ nvec[:, None, :, None] + (dN @ phit.mT)[..., None],
                         dxit[..., None]], axis=3)
    rhs = np.moveaxis(dR - dA @ X[:, None], 1, 2).reshape(count, d, m * (m + 2))
    dX = np.moveaxis(np.linalg.solve(A, rhs).reshape(count, d, m, m + 2), 2, 1)
    return replace(st, dphi=dX[:, :, :m, :m], du=dX[:, :, m, :m], dU=-dX[:, :, :m, m],
                   dV=dX[:, :, :m, m + 1], dlam=dX[:, :, m, m + 1],
                   dv=detat @ B + np.einsum("pi,pcia->pca", etat, H))


@dataclass(frozen=True)
class InducedStructure:
    """Induced data: the metric g and the split (phi, U, V, u, v, lambda) as
    the float record ``stack`` at the extraction points.  The surface is
    ``normal.embedding``; it is noninvariant where ``max_u`` exceeds
    ``NONINVARIANT_THRESHOLD``."""

    normal: NormalField
    max_u: float
    tangency_residual: float
    lambda_consistency: float
    # the float induced data at the extraction points
    stack: StructureBundle = dc_field(compare=False, repr=False)

    def values_at(self, stack: PointStack) -> StructureBundle:
        """Float induced data at every point of a stack, from a value-only frame."""
        return _structure_stack(self.normal.embedding.ambient, frame_stack(self.normal, stack))

    def bundle_at(self, stack: PointStack) -> StructureBundle:
        """Values plus first partials of every induced field at every point of a stack."""
        return _structure_stack(self.normal.embedding.ambient,
                                frame_stack(self.normal, stack, partials=True))


def extract_structure(fs: FrameStack, require_sasakian: bool = True) -> InducedStructure:
    """Build the induced structure of the normal field ``fs.normal_field``
    on its frame stack ``fs`` and validate the decomposition.

    Checks, at every point of the stack, that phi~N has no normal component
    (raising :class:`TangencyError` otherwise, naming the first such
    point) and records the noninvariance witness max|u| and the
    lambda = eta(N) consistency residual for a unit normal.  The split is
    built once on the whole stack; on a stack with partials it carries the
    first partials that :func:`sample_states` reads.

    With ``require_sasakian`` the ambient structure first passes the
    axiom battery at up to eight of the images, so that a caller's own
    ambient is not split as if it were Sasakian.  The suite runner
    passes False: its ambient is always ``standard_sasakian(n)``, whose
    axioms the ``axioms`` and ``two_form`` groups measure on the
    report's own samples.
    """
    N = fs.normal_field
    ambient = N.embedding.ambient
    if require_sasakian:
        largest = max(r.max_residual for r in check_sasakian_axioms(
            ambient, PointStack(fs.images.coords[:8]), tolerance=AMBIENT_AXIOM_TOL))
        if largest > AMBIENT_AXIOM_TOL:
            raise TangencyError(
                f"ambient structure fails the axiom battery "
                f"(max residual {largest:.3e} > {AMBIENT_AXIOM_TOL})"
            )

    st = _structure_stack(ambient, fs)
    tangency = st.tangency
    fs.points.reject(tangency > TANGENCY_TOL, TangencyError, lambda i, at: (
        f"phi~N has normal coefficient {tangency[i]:.3e} > {TANGENCY_TOL} at {at}"))
    max_u = linalg.worst(np.abs(st.u))
    lambda_consistency = linalg.worst(np.abs(st.lam - st.eta_n)) if N.scaling is None else 0.0

    return InducedStructure(
        normal=N,
        max_u=max_u,
        tangency_residual=linalg.worst(tangency),
        lambda_consistency=lambda_consistency,
        stack=st,
    )


@dataclass(frozen=True, slots=True)
class SampleState:
    """Everything the derivative checks read at P chart points, built once.

    ``bundle`` and ``gw`` are the points' structure and Gauss-Weingarten
    records.  ``dirs[p]`` holds the sampled directions scaled to unit
    g-length at point p, one per row; the ``cov*`` arrays are full
    covariant derivatives of the induced fields, axis 1 the derivative
    index, taken with the Gauss connection ``gw.induced_gamma``.
    """

    bundle: StructureBundle
    gw: GaussWeingartenData
    dirs: np.ndarray
    covphi: np.ndarray
    covu: np.ndarray
    covv: np.ndarray
    covU: np.ndarray
    covV: np.ndarray


def sample_states(
    S: InducedStructure, directions: Sequence, gw: GaussWeingartenData
) -> SampleState:
    """The sample states at the extraction points of ``S``, which must have
    been extracted from the frame stack with partials that ``gw`` was built on."""
    st = S.stack
    if st.dphi is None:
        raise ValueError("sample_states needs a structure split with partials")
    if len(st.lam) != len(gw.h):
        raise ValueError(f"structure at {len(st.lam)} points, "
                         f"Gauss-Weingarten data at {len(gw.h)}")

    def cov(key, valence):
        return covariant_derivative_components(getattr(st, key), getattr(st, "d" + key),
                                               gw.induced_gamma, valence)

    return SampleState(bundle=st, gw=gw, dirs=g_normalized(np.asarray(directions, float), st.g),
                       covphi=cov("phi", (1, 1)), covu=cov("u", (0, 1)), covv=cov("v", (0, 1)),
                       covU=cov("U", (1, 0)), covV=cov("V", (1, 0)))


def structure_residuals(phi, u, U, V, v, lam, g, eta_n) -> Dict[str, float]:
    """Largest residual of each algebraic identity (2.5) to (2.8) over (P, ...) stacks.

    The (2.5) family keeps eta(N) literal; the (2.8) family substitutes
    lambda for it, which is automatic for a unit normal.  The checks run
    on full component arrays, which covers every direction at once.
    Products keep singleton axes, so each point's bits do not depend on P.
    """
    def worst(*residuals):
        return max(linalg.worst(np.abs(r)) for r in residuals)

    def outer(a, b):
        return a[:, :, None] * b[:, None, :]

    def left(x, M):  # x[p] @ M[p]
        return (x[:, None, :] @ M)[:, 0]

    def right(M, x):  # M[p] @ x[p]
        return (M @ x[:, :, None])[..., 0]

    square = worst(phi @ phi + np.eye(phi.shape[-1]) - outer(U, u) - outer(V, v))
    out = {"2.5a": square, "2.8a": square}
    uphi, vphi, phiU, phiV = left(u, phi), left(v, phi), right(phi, U), right(phi, V)
    uU, uV, vU, vV = (linalg.pair(x, y) for x in (u, v) for y in (U, V))
    lam_ = lam[:, None]
    # the two families name their one-form and vector rows in opposite order
    for family, en, (forms, vectors) in (("2.5", eta_n, "bc"), ("2.8", lam, "cb")):
        one = 1.0 - lam * en
        out[family + forms] = worst(uphi - lam_ * v, vphi + en[:, None] * u)
        out[family + vectors] = worst(phiU + en[:, None] * V, phiV - lam_ * U)
        out[family + "d"] = worst(uU - one, uV)
        out[family + "e"] = worst(vU, vV - one)
    out["2.6"] = worst(phi.mT @ g @ phi - g + outer(u, u) + outer(v, v))
    out["2.7"] = worst(right(g, U) - u, right(g, V) - v)
    return out


def verify_algebraic_identities(S: InducedStructure,
                                tolerance: float = IDENTITY_TOL) -> List[CheckResult]:
    """The report rows of the derivative-free identity family (2.5) to (2.8)
    at the extraction points, from the data extraction built there, judged
    against ``tolerance``.

    A miss reads ``refuted``, here and in the differential battery:
    identity claims are measured, not asserted, so a miss is a finding
    about the identity (e.g. the rho^2 factors a scaled normal
    introduces), not an engine failure.
    """
    st = S.stack
    sub = structure_residuals(st.phi, st.u, st.U, st.V, st.v, st.lam, st.g, st.eta_n)
    identities = []
    for name in ("2.5", "2.6", "2.7", "2.8"):
        details = {k: r for k, r in sub.items() if k.startswith(name)}
        largest = max(details.values())
        identities.append(row(*equation(name), largest, tolerance,
                              verdict(largest, tolerance, "refuted"), "independent", len(st.lam),
                              details=details))
    return identities


def _variant_grid(name):
    nus = (1.0, -1.0) if _HAS_NU[name] else (1.0,)
    hs = H_TAGS if _HAS_H[name] else (None,)
    return [(nu, h) for nu in nus for h in hs]


class _Variants(NamedTuple):
    """An identity's variants in report order: keys; s, nu, nu*s (columns); H index."""

    keys: list
    s: np.ndarray
    nu: np.ndarray
    nus: np.ndarray
    hi: np.ndarray


def _variant_table(name, signs) -> _Variants:
    keys = [(name, s, nu, h) for s in signs for nu, h in _variant_grid(name)]
    s, nu = (np.array([[k[i]] for k in keys]) for i in (1, 2))
    return _Variants(keys, s, nu, nu * s, np.array([H_TAGS.index(k[3] or "H_h") for k in keys]))


def _tag(nu, h):
    parts = []
    parts.append(h if h is not None else "H-free")
    parts.append("printed" if nu > 0 else "hH-negated")
    return "|".join(parts)


def _pairs(dirs):
    """The (P, K, m) operands X and Y of each point's K direction pairs
    (0, 1), (2, 3), ...; an unpaired last direction is dropped."""
    pairs = dirs.shape[1] // 2
    return dirs[:, 0:2 * pairs:2], dirs[:, 1:2 * pairs:2]


def _pair_vectors(states: SampleState) -> np.ndarray:
    """The 10 vector contractions of every direction pair, as one (P, K, 10, m)
    block: phi Y, (nabla_Y phi) X, nabla_Y U, nabla_Y V, then H Y and phi H Y
    for H = H_h, H_w, -H_w.  Each entry has the bits of its product formed
    for one pair on the point's own views (``phi @ Y``, a one-pair einsum)."""
    bd, gw = states.bundle, states.gw
    X, Y = _pairs(states.dirs)

    def times(M, x):  # M[p] @ x[p, k] for every pair k
        return (M[:, None] @ x[..., None])[..., 0]

    HY = [times(H, Y) for H in (gw.H_h, gw.H_w, -gw.H_w)]
    return np.stack([times(bd.phi, Y), np.einsum("pki,piab,pkb->pka", Y, states.covphi, X),
                     np.einsum("pki,pia->pka", Y, states.covU),
                     np.einsum("pki,pia->pka", Y, states.covV),
                     *HY, *(times(bd.phi, hy) for hy in HY)], axis=2)


def verify_differential_identities(
    states: SampleState,
    tolerance: float = IDENTITY_TOL,
    strict_paper: bool = False,
) -> Tuple[List[CheckResult], float, Dict[str, float]]:
    """Covariant-derivative identity battery with convention adjudication:
    its report rows, the structure sign it adjudicated (1.0 as extracted,
    -1.0 with (phi, u, U) negated) and the measured max |v(H .)| for each H.

    Each point's directions are taken in consecutive pairs (X, Y); an
    unpaired last direction is dropped.  The vector contractions of all
    pairs are one (P, K, 10, m) block (:func:`_pair_vectors`), and (2.18)'s
    premise max |h(., U)|, the norms max |H U| and the reported max |v(H .)|
    are one stacked product and reduction over the points each.  The one
    Python loop runs over the direction pairs and only takes the 14 scalar
    pairings (``X @ g @ Y``, ``u @ X``, ...), on the pair's point's own
    views, reading phi Y and H Y from the block.  One stacked pass over the
    R = P K pairs then gives each identity's residuals as an
    (R, variants, m) array over its :class:`_Variants` table, elementwise
    in the printed order, so each residual keeps the bits of its pair and
    variant written out alone.  A variant's residual is its largest over
    the pairs, a NaN passed over.  There is one row per identity, judged
    against ``tolerance`` with its minimizing variant, and one global
    structure sign.  ``tolerance`` also decides (2.18)'s premise.  Strict
    paper mode lists every variant at the extracted structure sign only,
    and judges each identity on its printed form with H = H_h alone.
    """
    names = ["2.11", "2.12", "2.13", "2.14", "2.15", "2.16", "2.17"]
    signs = (1.0,) if strict_paper else (1.0, -1.0)
    t11, t12, t13, t14, t15, t16, t17 = tables = [_variant_table(name, signs) for name in names]
    keys = [key for t in tables for key in t.keys]
    m, pairs = states.dirs.shape[2], states.dirs.shape[1] // 2
    rows = len(states.dirs) * pairs
    if not rows:
        raise ValueError("the differential battery needs at least one direction pair")
    bd, gw = states.bundle, states.gw
    Xs, Ys = _pairs(states.dirs)
    block = _pair_vectors(states)
    # one row per direction pair, point-major: 14 scalar and 10 vector contractions
    scalars, vectors = np.empty((rows, 14)), block.reshape(rows, 10, m)
    # (2.18): its premise h(., U) and the norms of H U and v(H .), each one
    # stacked product and reduction over the points, a NaN point passed over
    U_col = bd.U[..., None]
    h_U_premise = linalg.worst(np.abs(gw.h @ U_col))
    Hs = {"H_h": gw.H_h, "H_w": gw.H_w}
    HU_norm = {hk: linalg.worst(np.abs(H @ U_col)) for hk, H in Hs.items()}
    v_HY = {hk: linalg.worst(np.abs(bd.v[:, None, :] @ H)) for hk, H in Hs.items()}

    # the one Python loop: the 14 scalar pairings of each direction pair, on
    # its point's own views
    X, Y = (a.reshape(rows, m) for a in (Xs, Ys))
    point_views = zip(bd.phi, bd.g, bd.u, bd.v, bd.U, bd.V, bd.dlam, gw.h, gw.w)
    for r, ((phi, g, u, v, U, V, dlam, h, w), X_r, Y_r, vec) in enumerate(zip(
            chain.from_iterable(repeat(views, pairs) for views in point_views), X, Y, vectors)):
        Yh = Y_r @ h
        scalars[r] = (X_r @ g @ Y_r, X_r @ h @ Y_r, u @ X_r, v @ X_r, w @ Y_r,
                      (phi @ X_r) @ h @ Y_r, vec[0] @ g @ X_r, Yh @ V, u @ Y_r,
                      dlam @ Y_r, Yh @ U, *(u @ hy for hy in vec[4:7]))

    # scalars as (R, 1, 1), vectors as (R, 1, m), H-tag rows as (R, 3, ...): a
    # variant table's (V, 1) columns broadcast them to (R, V, ...)
    (gXY, hXY, uX, vX, wY, hphiXY, gphiYX, YhV, uY, dlamY, YhU) = scalars.T[:11, :, None, None]
    uHY = scalars[:, 11:, None]
    phiY, Lphi, LU, LV = np.moveaxis(vectors[:, :4, None], 1, 0)
    HY, phiHY = vectors[:, 4:7], vectors[:, 7:]

    def per_pair(a):  # a point's value once for each of its pairs
        return np.repeat(a, pairs, axis=0)

    lam, U, V = (per_pair(getattr(states.bundle, key)) for key in ("lam", "U", "V"))
    lam, U, V = lam[:, None, None], U[:, None], V[:, None]
    Bu, Bv = (linalg.bilinear(Y, per_pair(c), X)[:, None, None] for c in (states.covu, states.covv))
    Y = Y[:, None]
    residuals = (
        t11.s * Lphi - (vX * Y - gXY * V + t11.nus * (-(hXY) * U - uX * HY)[:, t11.hi]),
        t12.s * Bu - (-t12.nus * hphiXY - t12.s * uX * wY - lam * gXY),
        Bv - (t13.s * gphiYX + t13.nu * lam * hXY),
        t14.s * LU - (t14.s * wY * U - t14.nus * phiHY[:, t14.hi] - lam * Y),
        LV - (t15.s * phiY + t15.nu * lam * HY[:, t15.hi]),
        YhV - (t16.s * uY - dlamY - lam * wY),
        t17.s * YhU - (-t17.nu * (t17.s * uHY[:, t17.hi])),
    )
    # one column per variant, identity after identity
    worst = np.concatenate([np.max(np.abs(res), axis=-1) for res in residuals], axis=1)

    # fmax passes over a NaN residual: a variant keeps its largest number
    acc = dict(zip(keys, np.fmax.reduce(worst, axis=0, initial=0.0).tolist()))

    def best_for(s):
        # ties within a band are broken by enumeration order, so equivalent
        # variants (H_h versus -H_w at a unit normal) adjudicate identically
        # on every hypersurface instead of by floating-point noise
        per = {}
        for name, t in zip(names, tables):
            entries = [(key[2:], acc[key]) for key in t.keys if key[1] == s]
            if strict_paper:
                entries = [e for e in entries if e[0] == (1.0, "H_h" if _HAS_H[name] else None)]
            smallest = min(r for _, r in entries)
            band = smallest * 10.0 + 1e-12
            tag, resid = next(e for e in entries if e[1] <= band)
            per[name] = (tag, resid)
        return per

    # the sign whose worst identity is smaller; a tie keeps the extracted sign
    per_sign = {s: best_for(s) for s in signs}
    chosen_s = min(signs, key=lambda s: max(r for _, r in per_sign[s].values()))
    per, other = per_sign[chosen_s], per_sign.get(-chosen_s, {})

    identities = []
    for name, t in zip(names, tables):
        (nu, htag), resid = per[name]
        details = {
            "variants": {f"{STRUCTURE_TAGS[key[1]]}|{_tag(*key[2:])}": acc[key] for key in t.keys},
        }
        if other:
            details["best_other_structure_sign"] = other[name][1]
        identities.append(row(*equation(name), resid, tolerance,
                              verdict(resid, tolerance, "refuted"),
                              f"{_tag(nu, htag)}|{STRUCTURE_TAGS[chosen_s]}", len(worst),
                              details=details))

    # (2.18) is an implication: vacuous where its premise h(Y, U) = 0 fails
    # at the same tolerance, and a failure where the premise holds and it misses
    vacuous = h_U_premise > tolerance
    identities.append(row(
        *equation("2.18"), HU_norm["H_h"], tolerance,
        verdict(HU_norm["H_h"], tolerance, held=not vacuous), f"H_h|{STRUCTURE_TAGS[chosen_s]}",
        len(states.dirs),
        details={"premise_max_h_Y_U": h_U_premise, "HU_norms": dict(HU_norm), "vacuous": vacuous}))
    return identities, chosen_s, v_HY
