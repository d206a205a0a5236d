"""Pointwise verification of induced structures on Sasakian hypersurfaces.

Construct the standard contact metric structure on an odd-dimensional
chart, embed a hypersurface, extract the induced (phi, g, u, v, lambda)
data, and measure every structure identity numerically, with sign
conventions adjudicated by residual comparison rather than assumed.
"""

__version__ = "0.1.0"

from .connection import christoffel
from .fields import (
    Jet,
    PointStack,
    TensorField,
    evaluate,
    fd_derivative,
    jet,
)
from .hypersurface import (
    Embedding,
    FrameStack,
    GaussWeingartenData,
    NormalField,
    frame_stack,
    gauss_weingarten,
    induced_metric,
    second_fundamental_symmetry,
)
from .induced import (
    InducedStructure,
    SampleState,
    extract_structure,
    sample_states,
    verify_algebraic_identities,
    verify_differential_identities,
)
from .sasakian import (
    AlmostContactMetricStructure,
    check_sasakian_axioms,
    fundamental_two_form,
    standard_sasakian,
)
from .theorems import (
    PointwiseModel,
    check_theorem_3_1,
    check_theorem_3_2,
    check_theorem_3_3,
    check_theorem_3_4,
    make_pointwise_model,
    parallel_residual,
)

__all__ = [
    "__version__",
    "AlmostContactMetricStructure",
    "Embedding",
    "FrameStack",
    "GaussWeingartenData",
    "InducedStructure",
    "Jet",
    "NormalField",
    "PointStack",
    "PointwiseModel",
    "SampleState",
    "TensorField",
    "check_sasakian_axioms",
    "check_theorem_3_1",
    "check_theorem_3_2",
    "check_theorem_3_3",
    "check_theorem_3_4",
    "christoffel",
    "evaluate",
    "extract_structure",
    "fd_derivative",
    "frame_stack",
    "fundamental_two_form",
    "gauss_weingarten",
    "induced_metric",
    "jet",
    "make_pointwise_model",
    "parallel_residual",
    "sample_states",
    "second_fundamental_symmetry",
    "standard_sasakian",
    "verify_algebraic_identities",
    "verify_differential_identities",
]
