from dataclasses import dataclass, fields, is_dataclass
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from sasakicheck import (
    Embedding,
    NormalField,
    TensorField,
    extract_structure,
    frame_stack,
    gauss_weingarten,
    sample_states,
    standard_sasakian,
)
from sasakicheck.config import load_suite_config
from sasakicheck.exprs import compile_expression, compile_map
from sasakicheck.linalg import pair
from sasakicheck.sampling import sample_points, sample_vectors, spawn_rngs

REPO = Path(__file__).resolve().parent.parent
# the shipped surfaces plus the curved n = 2 benchmark surface
SURFACES = {
    "plane_r3": REPO / "configs" / "plane_r3.cfg",
    "quadric_r3": REPO / "configs" / "quadric_r3.cfg",
    "quadric_r3_scaled": REPO / "configs" / "quadric_r3_scaled.cfg",
    "plane_r5": REPO / "configs" / "plane_r5.cfg",
    "quadric_r5": REPO / "perfbench" / "configs" / "quadric_r5.cfg",
}


@pytest.fixture(scope="session")
def sasaki3():
    return standard_sasakian(1)


@pytest.fixture(scope="session")
def sasaki5():
    return standard_sasakian(2)


@pytest.fixture(scope="session")
def rngs():
    return spawn_rngs(7)


@pytest.fixture()
def plane_r3(sasaki3):
    return Embedding(2, sasaki3, lambda c: [c[0], c[1], 0.1])


@pytest.fixture()
def quadric_r3(sasaki3):
    return Embedding(2, sasaki3, lambda c: [c[0], c[1], (c[0] ** 2 + c[1] ** 2) / 2])


@pytest.fixture()
def plane_r5(sasaki5):
    return Embedding(4, sasaki5, lambda c: [c[0], c[1], c[2], c[3], 0.1])


def chart_points(dim, count, seed=7):
    """``count`` seeded points of the cube [-1, 1]^dim, as one stack."""
    rng = np.random.default_rng(seed)
    return sample_points(dim, count, (-1.0, 1.0), rng)


def chart_vectors(dim, count, seed=11):
    rng = np.random.default_rng(seed)
    return sample_vectors(dim, count, rng)


@dataclass(frozen=True)
class SimpleAmbient:
    """Bare metric-carrying ambient chart (no contact structure)."""

    dim: int
    g: TensorField


def constant_field(valence, dim, components):
    """A tensor field whose components are the same at every point."""
    nested = np.asarray(components, dtype=float).tolist()
    return TensorField(valence, dim, lambda c: nested)


def constant_vector_field(dim, vec):
    return constant_field((1, 0), dim, vec)


def euclidean_metric(dim):
    eye = np.eye(dim).tolist()
    return TensorField((0, 2), dim, lambda c: eye)


def row(record, index):
    """The points ``index`` of a stacked record (``StructureBundle``,
    ``GaussWeingartenData``, ``SampleState``, ``PointwiseModel``): every
    field taken at ``index`` along its point axis, nested records alike and
    None as None.  An int gives one point's record, with array views and
    each (P,) field as a Python float; a slice gives a sub-stack, the one
    form a model takes: draw i of a model stack is ``slice(i, i + 1)``."""

    def take(value):
        if value is None:
            return None
        if is_dataclass(value):
            return row(value, index)
        part = value[index]
        return part.item() if part.ndim == 0 else part

    return type(record)(*(take(getattr(record, f.name)) for f in fields(record)))


def by_name(rows, eq):
    """The row of equation ``eq`` (``"2.5"``, named ``eq_2_5``) among report rows."""
    return {r.name: r for r in rows}["eq_" + eq.replace(".", "_")]


def axiom_residuals(rows):
    """The residual of each axiom by equation (``"1.1"``, ...) from the rows of
    ``check_sasakian_axioms``, with (1.3) as its parts ``1.3a`` to ``1.3c``."""
    out = {}
    for r in rows:
        out.update(r.details or {r.equation_ref[4:-1]: r.max_residual})
    return out


def states_at(N, points, directions):
    """The sample states of the normal field ``N`` at ``points``, one stacked
    record: the structure split and the Gauss-Weingarten data built on one
    frame stack with partials there."""
    fs = frame_stack(N, points, partials=True)
    # the tests' ambients are standard_sasakian(n), whose axioms test_sasakian measures
    return sample_states(extract_structure(fs, require_sasakian=False), directions,
                         gauss_weingarten(fs))


def surface_normal(path):
    """The normal field a suite run builds from the config at ``path``."""
    config = load_suite_config(path)
    E = Embedding(config.surface_dim, standard_sasakian(config.n),
                  compile_map(config.outputs, config.inputs))
    scaling = None
    if config.scaling is not None:
        scaling = TensorField((0, 0), config.surface_dim,
                              compile_expression(config.scaling, config.inputs))
    return NormalField(E, scaling, config.orientation)


def running_max(values):
    """max(worst, r) over the values from 0.0, as a per-draw or per-pair loop
    took it: a NaN value is passed over."""
    return reduce(max, values, 0.0)


def covariant_axiom_loops(dphi, dxi, phi, xi, eta, g, dirs):
    """The (1.6) and (1.7) residuals of ``check_sasakian_axioms`` from (K, P, d)
    directions, one direction pair and one direction at a time: (K, K, P, d) and
    (K, P, d).  (1.6) sums as the battery does, nabla_X phi = sum_i X^i nabla_i phi
    first and then its product with Y, each sum elementwise in index order."""
    d = dirs.shape[-1]
    r16 = np.empty(dirs.shape[:1] + dirs.shape)
    for k, X in enumerate(dirs):
        Xg = X[:, None, :] @ g
        for l, Y in enumerate(dirs):
            nabla_X = sum(X[:, i, None, None] * dphi[:, i] for i in range(d))
            lhs = sum(nabla_X[:, :, b] * Y[:, b, None] for b in range(d))
            rhs = (Xg @ Y[:, :, None])[:, 0] * xi - pair(eta, Y)[:, None] * X
            r16[k, l] = np.abs(lhs - rhs)
    r17 = np.stack([np.abs(np.einsum("...i,...ia->...a", X, dxi) + (phi @ X[:, :, None])[:, :, 0])
                    for X in dirs])
    return r16, r17


def w_map_columns(phi_inv, U, V, g, lam):
    """Theorem 3.2's affine map w -> h(., V) as (M, base), assembled one
    column at a time from one h matrix per basis vector.  Solving
    (M + lambda I) w = u - base is the oracle of the closed-form w of
    ``check_theorem_3_2``."""
    m = len(U)

    def h_matrix(w):
        H = phi_inv @ (np.outer(U, w) - lam * np.eye(m))
        return H.T @ g

    base = h_matrix(np.zeros(m)) @ V
    M = np.zeros((m, m))
    for c in range(m):
        M[:, c] = h_matrix(np.eye(m)[c]) @ V - base
    return M, base
