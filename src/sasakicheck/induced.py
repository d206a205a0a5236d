"""Extraction and verification of the induced (phi, g, u, v, lambda) data.

Splitting phi~(BX), phi~N and xi against the tangent-plus-normal frame
of a hypersurface yields a (1,1) tensor phi, vector fields U and V,
one-forms u and v, and a scalar lambda on the surface chart.  This
module extracts that data, exposes it as fields, and measures the
algebraic and covariant-derivative identity battery against it.

The split is one float solve X = A^-1 R against the frame A = [B | N]
of a :class:`~sasakicheck.hypersurface.FrameJet`.  Its first partials
come from implicit differentiation, d_c X = A^-1 (d_c R - d_c A X), with
the ambient tensors' partials taken from one dual jet each at b(p) and
chained through B; central differences of the induced fields stay the
independent check.

Sign conventions are adjudicated, not assumed.  Each derivative
identity is evaluated over a grid of variants:

* H read as H_h, H_w or -H_w  (the two shape operators differ by a
  sign for a metric unit normal),
* the h/H terms of the right-hand side as printed or negated,
* the triple (phi, u, U) as extracted or globally negated (the two
  phi~ sign conventions found in the literature; the ambient axioms
  pin one, the derived identities turn out to live in the other).

The report records the residual of every variant and the minimizing
tags; strict paper mode restricts to the printed form with H = H_h.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import linalg
from .connection import MetricField, covariant_derivative_components, levi_civita_gamma
from .errors import TangencyError
from .fields import Point, ScalarField, TensorField, evaluate, jet
from .hypersurface import (
    Embedding,
    FrameJet,
    GaussWeingartenData,
    NormalField,
    frame_jet,
    frame_values,
    gauss_weingarten,
    induced_metric,
)
from .sampling import g_normalized
from .sasakian import check_sasakian_axioms

TANGENCY_TOL = 1e-8
NONINVARIANT_THRESHOLD = 1e-3
AMBIENT_AXIOM_TOL = 1e-6

H_TAGS = ("H_h", "H_w", "-H_w")
SIGN_TAGS = ("printed", "hH-negated")
STRUCTURE_TAGS = {1.0: "as-extracted", -1.0: "phi-flipped"}

# which variant axes each derivative identity actually has
_HAS_H = {"2.11": True, "2.12": False, "2.13": False, "2.14": True, "2.15": True,
          "2.16": False, "2.17": True}
_HAS_NU = {"2.11": True, "2.12": True, "2.13": True, "2.14": True, "2.15": True,
           "2.16": False, "2.17": True}


@dataclass(slots=True)
class StructureBundle:
    """Float snapshot of the induced data at one point, with coordinate
    partials and induced Christoffel symbols when requested."""

    phi: np.ndarray
    u: np.ndarray
    U: np.ndarray
    V: np.ndarray
    v: np.ndarray
    lam: float
    g: np.ndarray
    eta_n: float
    tangency: float
    dphi: Optional[np.ndarray] = None
    du: Optional[np.ndarray] = None
    dU: Optional[np.ndarray] = None
    dV: Optional[np.ndarray] = None
    dv: Optional[np.ndarray] = None
    dlam: Optional[np.ndarray] = None
    gamma: Optional[np.ndarray] = None


def _structure_at(ambient, fj: FrameJet) -> StructureBundle:
    """Split phi~B, phi~N and xi against the frame: X = A^-1 [phi~B | phi~N | xi].

    On a frame jet the bundle also carries every first partial,
    d_c X = A^-1 (d_c R - d_c A X), and the induced Christoffel symbols;
    on a value-only frame those stay None.
    """
    B, nvec, A, G = fj.jacobian, fj.normal, fj.frame, fj.metric
    d, m = B.shape
    fields = (ambient.phi, ambient.xi, ambient.eta)
    jets = None if fj.hessian is None else [jet(f, fj.image) for f in fields]
    if jets is None:
        phit, xit, etat = (evaluate(f, fj.image) for f in fields)
    else:
        phit, xit, etat = (j.value for j in jets)
    R = np.column_stack([phit @ B, phit @ nvec, xit])
    X = np.linalg.solve(A, R)
    bundle = StructureBundle(
        phi=X[:m, :m], u=X[m, :m], U=-X[:m, m], V=X[:m, m + 1], v=etat @ B,
        lam=float(X[m, m + 1]), g=B.T @ G @ B, eta_n=float(etat @ nvec),
        tangency=abs(float(X[m, m])),
    )
    if jets is None:
        return bundle

    # chart partials of the ambient tensors at b(p), index c first
    dphit, dxit, detat = (np.einsum("kc,k...->c...", B, j.partials) for j in jets)
    H = np.moveaxis(fj.hessian, 2, 0)  # H[c] = d_c B
    dN = fj.dnormal
    dA = np.concatenate([H, dN[:, :, None]], axis=2)
    dR = np.concatenate([dphit @ B + phit @ H, (dphit @ nvec + dN @ phit.T)[:, :, None],
                         dxit[:, :, None]], axis=2)
    rhs = np.moveaxis(dR - dA @ X, 0, 1).reshape(d, -1)
    dX = np.moveaxis(np.linalg.solve(A, rhs).reshape(d, m, m + 2), 1, 0)
    HGB = np.einsum("cia,ij,jb->cab", H, G, B)
    dg = HGB + HGB.transpose(0, 2, 1) + np.einsum("ia,cij,jb->cab", B, fj.dmetric, B)
    bundle.dphi = dX[:, :m, :m]
    bundle.du = dX[:, m, :m]
    bundle.dU = -dX[:, :m, m]
    bundle.dV = dX[:, :m, m + 1]
    bundle.dlam = dX[:, m, m + 1]
    bundle.dv = detat @ B + np.einsum("i,cia->ca", etat, H)
    bundle.gamma = levi_civita_gamma(bundle.g, dg)
    return bundle


@dataclass(frozen=True)
class InducedStructure:
    """Induced data on a hypersurface; fields live on the surface chart."""

    embedding: Embedding
    normal: NormalField
    phi: TensorField
    U: TensorField
    V: TensorField
    u: TensorField
    v: TensorField
    lam: ScalarField
    g: MetricField
    noninvariant: bool
    max_u: float
    tangency_residual: float
    lambda_consistency: float
    # float induced data at the extraction points, as built there
    extracted: Dict[Point, StructureBundle] = dc_field(default_factory=dict, compare=False,
                                                      repr=False)

    @property
    def dim(self) -> int:
        return self.embedding.dim

    def values_at(self, p: Point) -> StructureBundle:
        """Float induced data at p, from a value-only frame."""
        return _structure_at(self.embedding.ambient, frame_values(self.normal, p))

    def bundle_at(self, p: Point, fj: Optional[FrameJet] = None) -> StructureBundle:
        """Values plus first partials of every induced field at p.

        ``fj`` passes the frame jet already built at p (for example the
        one a :class:`GaussWeingartenData` carries); without it one is
        built here.
        """
        if fj is None:
            fj = frame_jet(self.normal, p)
        return _structure_at(self.embedding.ambient, fj)


def extract_structure(
    E: Embedding,
    N: NormalField,
    points: Sequence[Point],
    require_sasakian: bool = True,
    tangency_tol: float = TANGENCY_TOL,
) -> InducedStructure:
    """Build the induced structure and validate the decomposition.

    Checks, at every supplied point, that phi~N has no normal component
    (raising :class:`TangencyError` otherwise) and records the
    noninvariance witness max|u| and the lambda = eta(N) consistency
    residual for a unit normal.
    """
    if require_sasakian:
        ambient_pts = [E.point_image(p) for p in points[: min(len(points), 8)]]
        rep = check_sasakian_axioms(E.ambient, ambient_pts)
        if rep.max_residual > AMBIENT_AXIOM_TOL:
            raise TangencyError(
                f"ambient structure fails the axiom battery "
                f"(max residual {rep.max_residual:.3e} > {AMBIENT_AXIOM_TOL})"
            )

    m = E.dim
    max_u = 0.0
    max_tang = 0.0
    max_lam = 0.0
    extracted: Dict[Point, StructureBundle] = {}
    for p in points:
        fj = frame_values(N, p)
        linalg.check_condition(fj.frame, what="extraction frame")
        bd = _structure_at(E.ambient, fj)
        if bd.tangency > tangency_tol:
            raise TangencyError(
                f"phi~N has normal coefficient {bd.tangency:.3e} > {tangency_tol} at {p.coords}"
            )
        max_tang = max(max_tang, bd.tangency)
        max_u = max(max_u, float(np.max(np.abs(bd.u))))
        if N.scaling is None:
            max_lam = max(max_lam, abs(bd.lam - bd.eta_n))
        extracted[p] = bd

    def field_func(key):
        return lambda coords: getattr(_structure_at(E.ambient, frame_values(N, Point(coords))), key)

    return InducedStructure(
        embedding=E,
        normal=N,
        phi=TensorField((1, 1), m, field_func("phi")),
        U=TensorField((1, 0), m, field_func("U")),
        V=TensorField((1, 0), m, field_func("V")),
        u=TensorField((0, 1), m, field_func("u")),
        v=TensorField((0, 1), m, field_func("v")),
        lam=ScalarField(m, field_func("lam")),
        g=induced_metric(E),
        noninvariant=max_u > NONINVARIANT_THRESHOLD,
        max_u=max_u,
        tangency_residual=max_tang,
        lambda_consistency=max_lam,
        extracted=extracted,
    )


@dataclass(frozen=True, slots=True)
class SampleState:
    """Everything the derivative checks read at one chart point, built once.

    ``dirs`` holds the sampled directions scaled to unit g-length, one
    per row; the ``cov*`` arrays are full covariant derivatives of the
    induced fields, axis 0 the derivative index.
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
    S: InducedStructure,
    points: Sequence[Point],
    directions: Sequence,
    gws: Optional[Sequence[GaussWeingartenData]] = None,
) -> List[SampleState]:
    """One :class:`SampleState` per point.

    ``gws`` passes Gauss-Weingarten data already built at ``points``;
    without it the data is built here.
    """
    if gws is None:
        gws = [gauss_weingarten(S.embedding, S.normal, p) for p in points]
    states = []
    for p, gw in zip(points, gws):
        bd = S.bundle_at(p, gw.jet)

        def cov(value, partials, valence):
            return covariant_derivative_components(value, partials, bd.gamma, valence)

        states.append(SampleState(
            bundle=bd,
            gw=gw,
            dirs=np.array([g_normalized(np.asarray(t, float), bd.g) for t in directions]),
            covphi=cov(bd.phi, bd.dphi, (1, 1)),
            covu=cov(bd.u, bd.du, (0, 1)),
            covv=cov(bd.v, bd.dv, (0, 1)),
            covU=cov(bd.U, bd.dU, (1, 0)),
            covV=cov(bd.V, bd.dV, (1, 0)),
        ))
    return states


@dataclass
class IdentityResult:
    name: str
    equation_ref: str
    residual: float
    convention: str
    samples_used: int
    samples_excluded: int = 0
    details: dict = dc_field(default_factory=dict)


@dataclass
class IdentityReport:
    identities: List[IdentityResult]
    structure_sign: str
    sample_count: int
    extras: dict = dc_field(default_factory=dict)

    def by_name(self, name: str) -> IdentityResult:
        for r in self.identities:
            if r.name == name:
                return r
        raise KeyError(name)


def verify_algebraic_identities(
    S: InducedStructure, points: Sequence[Point], tangents: Optional[Sequence] = None
) -> IdentityReport:
    """Residuals of the derivative-free identity family (2.5) to (2.8).

    The (2.5) family keeps eta(N) literal; the (2.8) family substitutes
    lambda for it, which is automatic for a unit normal.  All checks are
    run on full component arrays, which covers every direction at once.
    """
    names = ["2.5", "2.6", "2.7", "2.8"]
    res = {k: 0.0 for k in names}
    sub: Dict[str, float] = {}

    def bump(key, value):
        sub[key] = max(sub.get(key, 0.0), float(value))

    for p in points:
        bd = S.extracted.get(p)
        if bd is None:
            bd = S.values_at(p)
        m = S.dim
        eye = np.eye(m)
        phi, u, U, V, v, lam, g, etaN = bd.phi, bd.u, bd.U, bd.V, bd.v, bd.lam, bd.g, bd.eta_n

        bump("2.5a", np.max(np.abs(phi @ phi + eye - np.outer(U, u) - np.outer(V, v))))
        for gauge, en in (("2.5", etaN), ("2.8", lam)):
            bump(f"{gauge}b" if gauge == "2.5" else "2.8c",
                 max(np.max(np.abs(u @ phi - lam * v)), np.max(np.abs(v @ phi + en * u))))
            bump(f"{gauge}c" if gauge == "2.5" else "2.8b",
                 max(np.max(np.abs(phi @ U + en * V)), np.max(np.abs(phi @ V - lam * U))))
            bump(f"{gauge}d" if gauge == "2.5" else "2.8d",
                 max(abs(float(u @ U) - (1.0 - lam * en)), abs(float(u @ V))))
            bump(f"{gauge}e" if gauge == "2.5" else "2.8e",
                 max(abs(float(v @ U)), abs(float(v @ V) - (1.0 - lam * en))))
        bump("2.8a", np.max(np.abs(phi @ phi + eye - np.outer(U, u) - np.outer(V, v))))
        bump("2.6", np.max(np.abs(phi.T @ g @ phi - g + np.outer(u, u) + np.outer(v, v))))
        bump("2.7", max(np.max(np.abs(g @ U - u)), np.max(np.abs(g @ V - v))))

    res["2.5"] = max(val for key, val in sub.items() if key.startswith("2.5"))
    res["2.8"] = max(val for key, val in sub.items() if key.startswith("2.8"))
    res["2.6"] = sub["2.6"]
    res["2.7"] = sub["2.7"]

    identities = [
        IdentityResult(
            name=k,
            equation_ref=f"Eq ({k})",
            residual=res[k],
            convention="independent",
            samples_used=len(points),
            details={kk: vv for kk, vv in sub.items() if kk.startswith(k)},
        )
        for k in names
    ]
    return IdentityReport(identities=identities, structure_sign="independent",
                          sample_count=len(points))


def _variant_grid(name):
    nus = (1.0, -1.0) if _HAS_NU[name] else (1.0,)
    hs = H_TAGS if _HAS_H[name] else (None,)
    return [(nu, h) for nu in nus for h in hs]


def _bilinear(y, M, x) -> float:
    """Return ``y^i M_ia x^a`` summed flat, ``i`` outer and ``a`` inner."""
    # Not einsum or @: numpy leaves their summation order open; the goldens pin this one.
    xs = x.tolist()
    total = 0.0
    for yi, row in zip(y.tolist(), M.tolist()):
        for m, xa in zip(row, xs):
            total += yi * m * xa
    return total


def _tag(nu, h):
    parts = []
    parts.append(h if h is not None else "H-free")
    parts.append("printed" if nu > 0 else "hH-negated")
    return "|".join(parts)


def verify_differential_identities(
    states: Sequence[SampleState],
    tolerance: float = 1e-5,
    strict_paper: bool = False,
) -> IdentityReport:
    """Covariant-derivative identity battery with convention adjudication.

    Each state's directions are taken in consecutive pairs (X, Y).  For
    each identity the maximum residual over all samples is computed
    for every variant; the report carries the minimizing variant per
    identity together with one global structure-sign verdict.  In strict
    paper mode only the printed form with H = H_h and the extracted
    structure sign is evaluated.
    """
    names = ["2.11", "2.12", "2.13", "2.14", "2.15", "2.16", "2.17"]
    signs = (1.0,) if strict_paper else (1.0, -1.0)
    grid = {name: _variant_grid(name) for name in names}
    acc: Dict[tuple, float] = {}
    v_HY = {"H_h": 0.0, "H_w": 0.0}
    h_U_premise = 0.0
    HU_norm = {"H_h": 0.0, "H_w": 0.0}
    pair_count = 0

    for st in states:
        bd, gw = st.bundle, st.gw
        H_of = {"H_h": gw.H_h, "H_w": gw.H_w, "-H_w": -gw.H_w}

        for hk in ("H_h", "H_w"):
            v_HY[hk] = max(v_HY[hk], float(np.max(np.abs(bd.v @ H_of[hk]))))
        hU = gw.h @ bd.U
        h_U_premise = max(h_U_premise, float(np.max(np.abs(hU))))
        for hk in ("H_h", "H_w"):
            HU_norm[hk] = max(HU_norm[hk], float(np.max(np.abs(H_of[hk] @ bd.U))))

        for X, Y in zip(st.dirs[0::2], st.dirs[1::2]):
            pair_count += 1
            gXY = float(X @ bd.g @ Y)
            hXY = float(X @ gw.h @ Y)
            uX = float(bd.u @ X)
            vX = float(bd.v @ X)
            uY = float(bd.u @ Y)
            wY = float(gw.w @ Y)
            dlamY = float(bd.dlam @ Y)
            Yh = Y @ gw.h
            hYV = float(Yh @ bd.V)
            hYU = float(Yh @ bd.U)
            phiY = bd.phi @ Y
            hphiXY_base = float((bd.phi @ X) @ gw.h @ Y)
            gphiYX_base = float(phiY @ bd.g @ X)
            Lphi = np.einsum("i,iab,b->a", Y, st.covphi, X)
            Lu = _bilinear(Y, st.covu, X)
            Lv = _bilinear(Y, st.covv, X)
            LU = np.einsum("i,ia->a", Y, st.covU)
            LV = np.einsum("i,ia->a", Y, st.covV)
            # everything below that depends on neither s nor nu, once per pair;
            # s = +-1 multiplies outside a product with the same bits as inside
            HY = {k: H @ Y for k, H in H_of.items()}
            phiHY = {k: bd.phi @ hy for k, hy in HY.items()}
            uHY = {k: float(bd.u @ hy) for k, hy in HY.items()}
            hU_uHY = {k: -(hXY) * bd.U - uX * hy for k, hy in HY.items()}
            vY_gV = vX * Y - gXY * bd.V
            lamY = bd.lam * Y

            for s in signs:
                sLphi = s * Lphi
                sLU = s * LU
                for nu, htag in grid["2.11"]:
                    rhs = vY_gV + nu * s * hU_uHY[htag]
                    r = float(np.max(np.abs(sLphi - rhs)))
                    key = ("2.11", s, nu, htag)
                    acc[key] = max(acc.get(key, 0.0), r)
                for nu, htag in grid["2.12"]:
                    rhs = -nu * s * hphiXY_base - s * uX * wY - bd.lam * gXY
                    r = abs(s * Lu - rhs)
                    key = ("2.12", s, nu, htag)
                    acc[key] = max(acc.get(key, 0.0), r)
                for nu, htag in grid["2.13"]:
                    rhs = s * gphiYX_base + nu * bd.lam * hXY
                    r = abs(Lv - rhs)
                    key = ("2.13", s, nu, htag)
                    acc[key] = max(acc.get(key, 0.0), r)
                for nu, htag in grid["2.14"]:
                    rhs = s * wY * bd.U - nu * s * phiHY[htag] - lamY
                    r = float(np.max(np.abs(sLU - rhs)))
                    key = ("2.14", s, nu, htag)
                    acc[key] = max(acc.get(key, 0.0), r)
                for nu, htag in grid["2.15"]:
                    rhs = s * phiY + nu * bd.lam * HY[htag]
                    r = float(np.max(np.abs(LV - rhs)))
                    key = ("2.15", s, nu, htag)
                    acc[key] = max(acc.get(key, 0.0), r)
                for nu, htag in grid["2.16"]:
                    rhs = s * uY - dlamY - bd.lam * wY
                    r = abs(hYV - rhs)
                    key = ("2.16", s, nu, htag)
                    acc[key] = max(acc.get(key, 0.0), r)
                for nu, htag in grid["2.17"]:
                    rhs = -nu * (s * uHY[htag])
                    r = abs(s * hYU - rhs)
                    key = ("2.17", s, nu, htag)
                    acc[key] = max(acc.get(key, 0.0), r)

    def best_for(s):
        # ties within a band are broken by enumeration order, so equivalent
        # variants (H_h versus -H_w at a unit normal) adjudicate identically
        # on every hypersurface instead of by floating-point noise
        per = {}
        for name in names:
            entries = [((nu, htag), acc[(name, s, nu, htag)]) for nu, htag in grid[name]]
            if strict_paper:
                entries = [e for e in entries if e[0] == (1.0, "H_h" if _HAS_H[name] else None)]
            smallest = min(r for _, r in entries)
            band = smallest * 10.0 + 1e-12
            tag, resid = next(e for e in entries if e[1] <= band)
            per[name] = (tag, resid)
        return per

    if strict_paper:
        chosen_s = 1.0
        per = best_for(1.0)
        other = {}
    else:
        per_plus = best_for(1.0)
        per_minus = best_for(-1.0)
        max_plus = max(r for _, r in per_plus.values())
        max_minus = max(r for _, r in per_minus.values())
        chosen_s = 1.0 if max_plus <= max_minus else -1.0
        per = per_plus if chosen_s > 0 else per_minus
        other = per_minus if chosen_s > 0 else per_plus

    identities = []
    for name in names:
        (nu, htag), resid = per[name]
        details = {
            "variants": {
                f"{STRUCTURE_TAGS[s]}|{_tag(n, h)}": acc[(name, s, n, h)]
                for s in signs for n, h in grid[name]
            },
        }
        if other:
            details["best_other_structure_sign"] = other[name][1]
        identities.append(IdentityResult(
            name=name,
            equation_ref=f"Eq ({name})",
            residual=resid,
            convention=f"{_tag(nu, htag)}|{STRUCTURE_TAGS[chosen_s]}",
            samples_used=pair_count,
            details=details,
        ))

    identities.append(IdentityResult(
        name="2.18",
        equation_ref="Eq (2.18)",
        residual=HU_norm["H_h"],
        convention=f"H_h|{STRUCTURE_TAGS[chosen_s]}",
        samples_used=len(states),
        details={
            "premise_max_h_Y_U": h_U_premise,
            "HU_norms": dict(HU_norm),
            "vacuous": h_U_premise > tolerance,
        },
    ))

    return IdentityReport(
        identities=identities,
        structure_sign=STRUCTURE_TAGS[chosen_s],
        sample_count=pair_count,
        extras={"v_HY_measured": dict(v_HY)},
    )
