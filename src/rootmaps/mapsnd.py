"""Newton-barycentric maps on R^n.

The first derivative becomes the Jacobian, the model function an n x n matrix
phi_k(x) = sum_i a_i * J(x + i*h), and each step solves phi_k * delta = -f(x).
The step recursion mirrors the scalar one componentwise: h_1 is the Newton
delta and h_{j+1} = t_j(x) - x.  Only barycentric maps extend this way; Taylor
maps would need higher derivative tensors and are not supported here.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .coefficients import BarycentricCoefficients, barycentric_coefficients
from .maps1d import EvaluationError, IterativeMap, MapFamily, SingularModelError, StepFailureError

# Pivots below 1e-12 times the matrix row norm are treated as singular.
PIVOT_RTOL = 1e-12


@dataclass(frozen=True)
class Box:
    """Axis-aligned box; membership is inclusive of the faces."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have the same dimension")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise ValueError("box has lo > hi on some axis")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, point) -> bool:
        return all(lo <= v <= hi for lo, v, hi in zip(self.lo, point, self.hi))


@dataclass(frozen=True)
class VectorProblem:
    """An R^n -> R^n function with its Jacobian.

    objective, when present, is the scalar function whose gradient is f; it is
    only used for reporting.  The Jacobian callable returns NaN entries where
    it is undefined (e.g. a non-differentiable point); a step there raises
    EvaluationError, and the grid scan skips such a seed as singular.
    """

    n: int
    f: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    objective: Callable[[np.ndarray], float] | None = None
    domain: Box | None = None
    name: str = ""


@dataclass(frozen=True)
class VectorStepResult:
    next: np.ndarray
    delta: np.ndarray


# ---------------------------------------------------------------------------
# The 2-D kernel.  Grid scans are 2-D, and on 2-vectors numpy's per-call
# overhead costs more than the arithmetic, so for n == 2 the model matrix and
# the linear solve run on Python floats.  Each value goes through the same
# IEEE double operations in the same order as on the numpy path below, which
# stays the only path for n != 2: the results are the same bit for bit.
# ---------------------------------------------------------------------------


def _model_matrix_2x2(
    jacobian: Callable, weights: tuple[float, ...], h: np.ndarray, x: np.ndarray
) -> np.ndarray:
    x0, x1 = x.tolist()
    h0, h1 = h.tolist()
    m00 = m01 = m10 = m11 = 0.0
    for i, a_i in enumerate(weights):
        sample = np.array([x0 + i * h0, x1 + i * h1])
        (j00, j01), (j10, j11) = np.asarray(jacobian(sample), dtype=float).tolist()
        m00 += a_i * j00
        m01 += a_i * j01
        m10 += a_i * j10
        m11 += a_i * j11
    return np.array([[m00, m01], [m10, m11]])


def _solve_2x2(a: list[list[float]], b: list[float]) -> np.ndarray:
    # Determinant form instead of row-swapping elimination: it is bitwise
    # equivariant under signed coordinate permutations, so mirror-symmetric
    # problems scanned from mirror-symmetric seeds stay exactly symmetric.
    # The pivot magnitudes tested are the ones partial pivoting would use.
    (m00, m01), (m10, m11) = a
    row0, row1 = abs(m00) + abs(m01), abs(m10) + abs(m11)
    scale = max(row0, row1)
    if scale == 0.0 or not (math.isfinite(row0) and math.isfinite(row1)):
        raise SingularModelError("matrix has zero or non-finite row norms")
    pivot_floor = PIVOT_RTOL * scale
    det = m00 * m11 - m01 * m10
    pivot1 = max(abs(m00), abs(m10))
    if pivot1 < pivot_floor or abs(det) < pivot_floor * pivot1:
        raise SingularModelError(f"2x2 pivots below floor {pivot_floor:.3e}")
    b0, b1 = b
    return np.array([(b0 * m11 - m01 * b1) / det, (m00 * b1 - m10 * b0) / det])


def lu_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve matrix @ x = rhs densely with partial-pivot singularity checks.

    Raises ValueError unless matrix is (n, n) and rhs is (n,), and
    SingularModelError when the best available pivot is below PIVOT_RTOL
    times the max row norm of the input, so near-singular systems fail loudly
    instead of amplifying noise.
    """
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    n = b.size
    if a.shape != (n, n) or b.shape != (n,):
        raise ValueError(
            f"need an (n, n) matrix and an (n,) right-hand side, got shapes {a.shape} and {b.shape}"
        )
    if n == 2:
        return _solve_2x2(a.tolist(), b.tolist())
    # Overflow is caught by the finiteness test on the scale or shows in the
    # solution, as on the 2-D path; numpy must not warn about it.
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = a.copy(), b.copy()
        scale = float(np.abs(a).sum(axis=1).max())
        pivot_floor = PIVOT_RTOL * scale
        if scale == 0.0 or not np.isfinite(scale):
            raise SingularModelError("matrix has zero or non-finite row norms")
        for col in range(n):
            piv = col + int(np.argmax(np.abs(a[col:, col])))
            if abs(a[piv, col]) < pivot_floor:
                raise SingularModelError(f"pivot {abs(a[piv, col]):.3e} below floor {pivot_floor:.3e}")
            if piv != col:
                a[[col, piv]] = a[[piv, col]]
                b[[col, piv]] = b[[piv, col]]
            for r in range(col + 1, n):
                factor = a[r, col] / a[col, col]
                if factor != 0.0:
                    a[r, col + 1 :] -= factor * a[col, col + 1 :]
                    b[r] -= factor * b[col]
        x = np.zeros(n)
        for r in range(n - 1, -1, -1):
            x[r] = (b[r] - a[r, r + 1 :] @ x[r + 1 :]) / a[r, r]
        return x


def evaluate(fn: Callable, x: np.ndarray) -> np.ndarray:
    """fn(x) as a float array; raises EvaluationError unless every entry is finite."""
    # plain-float closures raise OverflowError / math domain ValueError where
    # numpy would return inf or nan; fold both into the evaluation failure
    try:
        value = np.asarray(fn(x), dtype=float)
    except (OverflowError, ValueError) as exc:
        raise EvaluationError(f"evaluation failed at x={x!r}: {exc}") from exc
    if not np.isfinite(value).all():
        raise EvaluationError(f"non-finite evaluation at x={x!r}")
    return value


def jacobian_is_singular(problem: VectorProblem, x: np.ndarray) -> bool:
    """True when J_f(x) is not evaluable, non-finite, or fails the pivot test."""
    try:
        lu_solve(evaluate(problem.jacobian, x), np.zeros(problem.n))
    except StepFailureError:
        return True
    return False


def vector_newton_step(problem: VectorProblem, x: np.ndarray) -> VectorStepResult:
    """Solve J_f(x) * delta = -f(x); next = x + delta."""
    x = np.asarray(x, dtype=float)
    fx = evaluate(problem.f, x)
    delta = lu_solve(evaluate(problem.jacobian, x), -fx)
    return VectorStepResult(next=x + delta, delta=delta)


def barycentric_model_matrix(
    problem: VectorProblem, coeffs: BarycentricCoefficients, h: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """The n x n model matrix sum_i a_i * J_f(x + i*h)."""
    if problem.n == 2:
        return _model_matrix_2x2(problem.jacobian, coeffs.floats, h, x)
    phi = np.zeros((problem.n, problem.n))
    for i, a_i in enumerate(coeffs.floats):
        phi += a_i * np.asarray(problem.jacobian(x + i * h), dtype=float)
    return phi


def vector_barycentric_step(
    problem: VectorProblem, coeffs: BarycentricCoefficients, x: np.ndarray
) -> VectorStepResult:
    """One step of the order-k barycentric map at x.

    Runs the step recursion: the Newton delta seeds h, then for j = 1..k the
    order-j model matrix is assembled and solved against -f(x), each solution
    becoming the next step vector.  Raises SingularModelError or
    EvaluationError, like the scalar steps.
    """
    x = np.asarray(x, dtype=float)
    fx = evaluate(problem.f, x)
    delta = lu_solve(evaluate(problem.jacobian, x), -fx)
    for j in range(1, coeffs.k + 1):
        weights = coeffs if j == coeffs.k else barycentric_coefficients(j)
        # one finiteness check on the assembled matrix, not one per sample
        phi = evaluate(partial(barycentric_model_matrix, problem, weights, delta), x)
        delta = lu_solve(phi, -fx)
    return VectorStepResult(next=x + delta, delta=delta)


def vector_map_step(problem: VectorProblem, iter_map: IterativeMap, x: np.ndarray) -> VectorStepResult:
    """Apply one step of a Newton, barycentric, or composed map."""
    if iter_map.family is MapFamily.COMPOSITION:
        outer, inner = iter_map.components
        second = vector_map_step(problem, outer, vector_map_step(problem, inner, x).next)
        return VectorStepResult(next=second.next, delta=second.next - np.asarray(x, dtype=float))
    if iter_map.family is MapFamily.NEWTON:
        return vector_newton_step(problem, x)
    if iter_map.family is MapFamily.NEWTON_BARYCENTRIC:
        return vector_barycentric_step(problem, barycentric_coefficients(iter_map.k), x)
    raise ValueError(f"{iter_map.family.value} maps are not defined on R^n")
