"""Scalar iterative maps of higher order.

Two recursive families share the same skeleton t(x) = x - f(x)/phi(x): the
Taylor family builds phi from higher derivatives of f, the barycentric family
from first-derivative samples at x + i*h weighted by exact rational
coefficients.  Both start from the Newton map and reuse the previous member's
displacement t_{j-1}(x) - x as the step h_j.
"""

import math
from dataclasses import dataclass
from enum import Enum
from statistics import median
from typing import Callable

from .coefficients import BarycentricCoefficients, barycentric_coefficients

# |phi| below this is treated as a vanishing denominator rather than silently
# producing inf.
DENOMINATOR_FLOOR = 1e-300
# Iterate errors at or below this sit on the round-off floor and are dropped
# from order estimation.
ERROR_FLOOR = 1e-13
# Order estimation only uses iterates that are already locally converging.
PRE_ASYMPTOTIC_CEILING = 0.5


class StepFailureError(ArithmeticError):
    """A map step could not be completed."""


class SingularModelError(StepFailureError):
    """The model function phi is singular.

    A scalar denominator fell below the floor, or an R^n model matrix failed
    the pivot test.
    """


class EvaluationError(StepFailureError):
    """f or one of its derivatives produced a non-finite value."""


class InsufficientDerivativesError(ValueError):
    """The problem does not supply a derivative the map requires."""


class InsufficientDataError(ValueError):
    """Too few usable error ratios to estimate an order of convergence."""


def _call(fn: Callable[[float], float], x: float) -> float:
    # math.exp and float powers raise instead of returning inf; fold both
    # failure modes into the evaluation-failure signal
    try:
        value = fn(x)
    except (OverflowError, ValueError) as exc:
        raise EvaluationError(f"evaluation failed at x={x!r}: {exc}") from exc
    if not math.isfinite(value):
        raise EvaluationError(f"non-finite evaluation at x={x!r}")
    return value


@dataclass(frozen=True)
class ScalarProblem:
    """A scalar function with analytic derivatives up to a declared order."""

    f: Callable[[float], float]
    derivatives: tuple[Callable[[float], float], ...]
    known_root: float | None = None
    domain: tuple[float, float] | None = None
    name: str = ""

    @property
    def max_derivative_order(self) -> int:
        return len(self.derivatives)

    def derivative(self, order: int) -> Callable[[float], float]:
        if order < 1 or order > len(self.derivatives):
            raise InsufficientDerivativesError(
                f"problem {self.name!r} supplies derivatives up to order "
                f"{len(self.derivatives)}, requested {order}"
            )
        return self.derivatives[order - 1]


class MapFamily(Enum):
    NEWTON = "newton"
    NEWTON_TAYLOR = "taylor"
    NEWTON_BARYCENTRIC = "bary"
    COMPOSITION = "compose"


@dataclass(frozen=True)
class IterativeMap:
    """A composable iterative map with its family tag and order index."""

    family: MapFamily
    k: int = 0
    components: tuple["IterativeMap", "IterativeMap"] | None = None

    @property
    def order(self) -> int:
        """Theoretical local order of convergence."""
        if self.family is MapFamily.COMPOSITION:
            outer, inner = self.components
            return outer.order * inner.order
        if self.family is MapFamily.NEWTON:
            return 2
        return self.k + 2

    def describe(self) -> str:
        if self.family is MapFamily.COMPOSITION:
            outer, inner = self.components
            return f"compose:{outer.describe()},{inner.describe()}"
        if self.family is MapFamily.NEWTON:
            return "newton"
        return f"{self.family.value}:{self.k}"


def newton_map() -> IterativeMap:
    return IterativeMap(family=MapFamily.NEWTON)


def newton_taylor(k: int) -> IterativeMap:
    if k < 0:
        raise ValueError(f"order index must be >= 0, got {k}")
    return IterativeMap(family=MapFamily.NEWTON_TAYLOR, k=k)


def newton_barycentric(k: int) -> IterativeMap:
    if k < 0:
        raise ValueError(f"order index must be >= 0, got {k}")
    return IterativeMap(family=MapFamily.NEWTON_BARYCENTRIC, k=k)


def compose(outer: IterativeMap, inner: IterativeMap) -> IterativeMap:
    """Map applying inner first, then outer (t_i(t_j) for outer i, inner j)."""
    return IterativeMap(family=MapFamily.COMPOSITION, components=(outer, inner))


def newton_step(problem: ScalarProblem, x: float, floor: float = DENOMINATOR_FLOOR) -> float:
    """One Newton step x - f(x)/f'(x)."""
    fx = _call(problem.f, x)
    dfx = _call(problem.derivative(1), x)
    if abs(dfx) < floor:
        raise SingularModelError(f"|f'(x)|={abs(dfx):.3e} below floor at x={x!r}")
    return x - fx / dfx


def taylor_model(problem: ScalarProblem, k: int, h: float, x: float) -> float:
    """Taylor-type model sum_{i=0}^{k} f^(i+1)(x) * h^i / (i+1)!."""
    if problem.max_derivative_order < k + 1:
        raise InsufficientDerivativesError(
            f"Taylor model of index {k} needs derivatives up to order {k + 1}, "
            f"problem {problem.name!r} supplies {problem.max_derivative_order}"
        )
    total = 0.0
    h_pow = 1.0
    for i in range(k + 1):
        total += _call(problem.derivatives[i], x) * h_pow / math.factorial(i + 1)
        h_pow *= h
    return total


def barycentric_model(
    problem: ScalarProblem, coeffs: BarycentricCoefficients, h: float, x: float
) -> float:
    """Barycentric model sum_i a_i * f'(x + i*h); weights go float at call time."""
    df = problem.derivative(1)
    total = 0.0
    for i, a_i in enumerate(coeffs.a):
        total += float(a_i) * _call(df, x + i * h)
    return total


def recursive_map_step(
    problem: ScalarProblem,
    iter_map: IterativeMap,
    x: float,
    floor: float = DENOMINATOR_FLOOR,
) -> float:
    """Evaluate the map at one point.

    For the recursive families this computes t_0(x)..t_k(x) in sequence, each
    t_j reusing the previous value through h_j = t_{j-1}(x) - x, so one call
    costs k model evaluations instead of the exponential blowup of literal
    recursion.
    """
    if iter_map.family is MapFamily.COMPOSITION:
        outer, inner = iter_map.components
        return recursive_map_step(problem, outer, recursive_map_step(problem, inner, x, floor), floor)
    if iter_map.family is MapFamily.NEWTON:
        return newton_step(problem, x, floor)

    fx = _call(problem.f, x)
    t = newton_step(problem, x, floor)
    for j in range(1, iter_map.k + 1):
        h = t - x
        if iter_map.family is MapFamily.NEWTON_TAYLOR:
            phi = taylor_model(problem, j, h, x)
        else:
            phi = barycentric_model(problem, barycentric_coefficients(j), h, x)
        if not math.isfinite(phi):
            raise EvaluationError(f"non-finite model value at x={x!r} (index {j})")
        if abs(phi) < floor:
            raise SingularModelError(f"|phi_{j}(x)|={abs(phi):.3e} below floor at x={x!r}")
        t = x - fx / phi
    return t


class IterationStatus(Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    STEP_FAILURE = "step_failure"
    NON_FINITE = "non_finite"


@dataclass(frozen=True)
class IterationResult:
    points: tuple[float, ...]
    status: IterationStatus


def iterate(
    problem: ScalarProblem,
    iter_map: IterativeMap,
    x0: float,
    max_iter: int = 30,
    tol: float = 1e-12,
) -> IterationResult:
    """Apply the map until |f(x)| <= tol, a failure, or max_iter steps.

    Failures are reported as statuses, never raised.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    points = [x0]
    try:
        if abs(_call(problem.f, x0)) <= tol:
            return IterationResult(points=tuple(points), status=IterationStatus.CONVERGED)
    except EvaluationError:
        return IterationResult(points=tuple(points), status=IterationStatus.NON_FINITE)
    status = IterationStatus.MAX_ITER
    for _ in range(max_iter):
        try:
            nxt = recursive_map_step(problem, iter_map, points[-1])
        except EvaluationError:
            status = IterationStatus.NON_FINITE
            break
        except StepFailureError:
            status = IterationStatus.STEP_FAILURE
            break
        points.append(nxt)
        if not math.isfinite(nxt):
            status = IterationStatus.NON_FINITE
            break
        try:
            fv = _call(problem.f, nxt)
        except EvaluationError:
            status = IterationStatus.NON_FINITE
            break
        if abs(fv) <= tol:
            status = IterationStatus.CONVERGED
            break
    return IterationResult(points=tuple(points), status=status)


def estimate_order(
    trajectory: tuple[float, ...] | list[float],
    root: float,
    floor: float = ERROR_FLOOR,
    start_below: float = PRE_ASYMPTOTIC_CEILING,
) -> float:
    """Median of log-error ratios ln|e_{k+1}| / ln|e_k| along a trajectory.

    Pairs qualify when the earlier error is below start_below (the estimate is
    local), both errors sit above the round-off floor, and the error strictly
    decreases.  Sign conventions do not matter: only |x_k - root| is used.
    """
    errors = [abs(x - root) for x in trajectory]
    ratios = []
    for e0, e1 in zip(errors, errors[1:]):
        if e0 >= start_below or e0 <= floor or e1 <= floor or e1 >= e0:
            continue
        ratios.append(math.log(e1) / math.log(e0))
    if len(ratios) < 2:
        raise InsufficientDataError(
            f"need at least 2 qualifying error ratios, found {len(ratios)}"
        )
    return median(ratios)
