"""Recursive families of higher-order iterative maps for root finding.

Scalar Newton-Taylor and Newton-barycentric families, their R^n barycentric
extension, and a two-iteration grid scan that localizes many zeros (or
extrema of a gradient system) at once.
"""

from .capture import (
    CaptureConfig,
    CaptureCounts,
    CaptureResult,
    CapturedPoint,
    Cluster,
    GridSpec,
    cluster_points,
    make_grid,
    run_capture,
)
from .coefficients import (
    BarycentricCoefficients,
    BarycentricSystem,
    SingularSystemError,
    barycentric_coefficients,
    build_system,
    solve_coefficients,
)
from .maps1d import (
    EvaluationError,
    IterationResult,
    IterationStatus,
    IterativeMap,
    MapFamily,
    ScalarProblem,
    SingularModelError,
    StepFailureError,
    barycentric_model,
    compose,
    estimate_order,
    iterate,
    newton_barycentric,
    newton_map,
    newton_taylor,
    recursive_map_step,
    taylor_model,
)
from .mapsnd import (
    Box,
    VectorProblem,
    VectorStepResult,
    vector_map_step,
)
from .problems import (
    ackley_gradient,
    load_polynomial_problem,
    rutishauser,
    scalar_problem,
    scalar_test_set,
    vector_problem,
)

__version__ = "0.1.0"

__all__ = [
    "BarycentricCoefficients",
    "BarycentricSystem",
    "Box",
    "CaptureConfig",
    "CaptureCounts",
    "CapturedPoint",
    "CaptureResult",
    "Cluster",
    "EvaluationError",
    "GridSpec",
    "IterationResult",
    "IterationStatus",
    "IterativeMap",
    "MapFamily",
    "ScalarProblem",
    "SingularModelError",
    "SingularSystemError",
    "StepFailureError",
    "VectorProblem",
    "VectorStepResult",
    "ackley_gradient",
    "barycentric_coefficients",
    "barycentric_model",
    "build_system",
    "cluster_points",
    "compose",
    "estimate_order",
    "iterate",
    "load_polynomial_problem",
    "make_grid",
    "newton_barycentric",
    "newton_map",
    "newton_taylor",
    "recursive_map_step",
    "rutishauser",
    "run_capture",
    "scalar_problem",
    "scalar_test_set",
    "solve_coefficients",
    "taylor_model",
    "vector_map_step",
    "vector_problem",
]
