"""Recursive families of higher-order iterative maps for root finding.

Scalar Newton-Taylor and Newton-barycentric families, their R^n barycentric
extension, and a two-iteration grid scan that localizes many zeros (or
extrema of a gradient system) at once.
"""

from .capture import CaptureConfig, CaptureCounts, GridSpec, run_capture, two_steps
from .coefficients import barycentric_coefficients
from .maps1d import (
    EvaluationError,
    SingularModelError,
    StepFailureError,
    compose,
    estimate_order,
    iterate,
    newton_barycentric,
    newton_map,
    newton_taylor,
    recursive_map_step,
)
from .mapsnd import Box, VectorProblem, vector_map_step
from .problems import rutishauser, scalar_problem, scalar_test_set, vector_problem

__version__ = "0.1.0"

__all__ = [
    "Box",
    "CaptureConfig",
    "CaptureCounts",
    "EvaluationError",
    "GridSpec",
    "SingularModelError",
    "StepFailureError",
    "VectorProblem",
    "barycentric_coefficients",
    "compose",
    "estimate_order",
    "iterate",
    "newton_barycentric",
    "newton_map",
    "newton_taylor",
    "recursive_map_step",
    "run_capture",
    "rutishauser",
    "scalar_problem",
    "scalar_test_set",
    "two_steps",
    "vector_map_step",
    "vector_problem",
]
