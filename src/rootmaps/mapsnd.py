"""Newton-barycentric maps on R^n.

The first derivative becomes the Jacobian, the model function an n x n matrix
phi_k(x) = sum_i a_i * J(x + i*h), and each step solves phi_k * delta = -f(x).
The step recursion follows the scalar one, except in how it rounds h: h_1 is
the Newton delta and h_{j+1} is the delta solved for t_j, where the scalar
recursion takes the rounded difference t_j(x) - x.  One generator runs it,
orders_rows, and a bary:k step is its order k.  Only barycentric maps extend
this way; Taylor maps would need higher derivative tensors.

The recursion runs on a batch: an (N, n) array of points and a Failures
record of two array columns, errors[r], None while row r is live, else the
StepFailureError that stopped it, and live, the mask of the None rows.  A
step runs on a dense batch of the live rows, gathered again after each order
in which a row failed; f and the Jacobian take the batch (or its live rows,
after a failure earlier in the order) in one call, and one isfinite test
covers the values.  The arithmetic is one point's IEEE operations in the same
order, so each row's result is the one-point result bit for bit; the
one-point step, vector_map_step, runs a batch of one.  No sum goes through
BLAS, whose kernel, and so its rounding, depends on the CPU.

A step evaluates each point once: f and J at x, and J(x) is the i = 0 term
of every model matrix it assembles; an order's samples x + i*h, i = 1..j, go
to J stacked, in calls of at most _SAMPLE_ROWS points.  A map is a path of
steps, its step_orders (a composition is its inner steps, then its outer
ones), and paths_rows steps the trie of several paths from one x level by
level: a level runs one recursion on the stacked rows of every distinct node
that a step starts from, as a bary:j step is the first j + 1 orders of a
bary:k one (j < k), and each row leaves after the highest order asked of its
node.  Every node keeps its own failures.  The i = 0 sample x + 0*h differs
from x only in the sign of a zero coordinate, and the assembly adds a_0 * J(x)
to 0.0, which erases the sign of a zero, so the model matrices keep their bits.
"""

import itertools
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coefficients import barycentric_coefficients
from .maps1d import EvaluationError, IterativeMap, MapFamily, SingularModelError

# Pivots below 1e-12 times the matrix row norm are treated as singular.
PIVOT_RTOL = 1e-12
# An order's Jacobian samples go to J stacked, in calls of at most this many points (README)
_SAMPLE_ROWS = 2048


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

    def contains(self, points) -> np.ndarray:
        """Membership of a point, or of each row of an array of points."""
        return np.all((np.asarray(self.lo) <= points) & (points <= np.asarray(self.hi)), axis=-1)


@dataclass(frozen=True)
class VectorProblem:
    """An R^n -> R^n function with its Jacobian.

    Each callable maps a (..., n) array of points: f to (..., n), jacobian to
    (..., n, n) and objective, the scalar whose gradient is f (only reported),
    to (...).  Where a point cannot be evaluated (a non-differentiable point,
    an overflow) its own row is non-finite and the call does not raise; a
    step there raises EvaluationError, and a scan skips such a seed as singular.
    The engine calls them with numpy's floating-point warnings off.
    Flipping the sign of x_a, for each axis a of mirror_axes, flips f_a and J's row and column
    a but (a, a), bit for bit up to the sign of a zero (as where x_a is 0); a grid scan steps
    one side of such an axis (see capture.two_steps).  Exchanging x_a and x_b, for the pair
    swap_axes = (a, b), exchanges f_a and f_b and J's rows a, b and columns a, b, bit for bit;
    a grid scan steps one side of the diagonal.
    """

    n: int
    f: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    objective: Callable[[np.ndarray], np.ndarray] | None = None
    domain: Box | None = None
    name: str = ""
    mirror_axes: tuple[int, ...] = ()
    swap_axes: tuple[int, ...] = ()

    def __post_init__(self):
        for name, axes in (("mirror_axes", self.mirror_axes), ("swap_axes", self.swap_axes)):
            for i, axis in enumerate(axes):
                if not (isinstance(axis, numbers.Integral) and 0 <= axis < self.n) or axis in axes[:i]:
                    raise ValueError(f"{name} must be distinct axes in range({self.n}), got {axis!r}")
        if len(self.swap_axes) not in (0, 2):
            raise ValueError(f"swap_axes must be empty or a pair of axes, got {self.swap_axes!r}")


class Failures:
    """Two arrays over the same rows: errors[r] is None while row r is live, else the StepFailureError
    that stopped it, and live is the mask of the None rows.  Only put writes them, so they agree."""

    def __init__(self, size: int):
        self.errors, self.live = np.full(size, None), np.ones(size, dtype=bool)

    def put(self, rows, errors) -> None:
        """Give the rows (an index, index array, mask or slice) the StepFailureErrors errors."""
        self.errors[rows] = errors
        self.live[rows] = False

    def fail(self, mask: np.ndarray, failure: Callable[[int], Exception]) -> None:
        """Give failure(r) to every live row r that the boolean mask marks."""
        rows = np.flatnonzero(mask & self.live)
        self.put(rows, [failure(r) for r in rows.tolist()])

    @staticmethod
    def join(parts: list, cut=slice(None)) -> "Failures":
        """A new Failures of the rows cut (a slice or an index array) of each of parts in turn."""
        joined = Failures(0)
        joined.errors = np.concatenate([part.errors[cut] for part in parts])
        joined.live = np.concatenate([part.live[cut] for part in parts])
        return joined


def _finite(values: np.ndarray, at: np.ndarray, failures: Failures) -> np.ndarray:
    if not np.isfinite(values).all():
        failures.fail(~np.isfinite(values).all(axis=tuple(range(1, values.ndim))),
                      lambda r: EvaluationError(f"non-finite evaluation at x={at[r]!r}"))
    return values


def shaped(value, shape: tuple) -> np.ndarray:
    """value as a float array of the given shape; a value of another shape raises ValueError."""
    value = np.asarray(value, dtype=float)
    if value.shape != shape:
        raise ValueError(f"value shapes differ: expected {shape}, got {value.shape}")
    return value


def evaluate_rows(fn: Callable, shape: tuple, points: np.ndarray, failures: Failures, at=None) -> np.ndarray:
    """fn at the live rows of points in one call, as an array of shape (*points.shape[:-1], *shape).

    points is (N, n), or (N, g, n) for g points to a row.  fn takes the points of every row
    when all are live, else of the live rows only (the others read 0.0), as one (M, n) array,
    and is not called without one; it runs with numpy's floating-point warnings off.  A live
    row with a value that is not finite fails with an EvaluationError naming at[r] (default
    points[r]); a value of another shape than (M, *shape) raises ValueError.
    """
    rows = np.flatnonzero(failures.live)
    if not len(rows):
        return np.zeros((*points.shape[:-1], *shape))
    dense = len(rows) == len(points)
    live = points if dense else points.take(rows, axis=0)
    with np.errstate(all="ignore"):
        value = shaped(fn(live.reshape(-1, live.shape[-1])), (live.size // live.shape[-1], *shape))
    values = value = value.reshape(*live.shape[:-1], *shape)
    if not dense:
        values = np.zeros((*points.shape[:-1], *shape))
        values[rows] = value
    return _finite(values, points if at is None else at, failures)


def _eliminate(a: np.ndarray, b: np.ndarray, failures: Failures) -> np.ndarray:
    """solve_rows for n != 2: Gaussian elimination with partial pivoting on every row at once, each
    row's IEEE operations in one system's order; the back-substitution sums left to right from 0.0."""
    # Overflow is caught by the finiteness test on the scale or shows in the
    # solution, as on the 2-D path; numpy must not warn about it.
    with np.errstate(all="ignore"):
        scale = np.abs(a).sum(axis=2).max(axis=1)
        failures.fail((scale == 0.0) | ~np.isfinite(scale),
                      lambda r: SingularModelError("matrix has zero or non-finite row norms"))
        pivot_floor = PIVOT_RTOL * scale
        ab, rows, n = np.concatenate([a, b[:, :, None]], axis=2), np.arange(len(b)), b.shape[1]  # [a | b]
        for col in range(n):
            piv = col + np.argmax(np.abs(ab[:, col:, col]), axis=1)
            pivot = np.abs(ab[rows, piv, col])
            # a zero pivot passes when pivot_floor underflows to 0.0
            failures.fail((pivot < pivot_floor) | (pivot == 0.0),
                          lambda r: SingularModelError(f"pivot {pivot[r]:.3e} below floor {pivot_floor[r]:.3e}"))
            ab[rows, col], ab[rows, piv] = ab[rows, piv], ab[rows, col]
            for r in range(col + 1, n):
                factor = ab[:, r, col] / ab[:, col, col]
                step = factor != 0.0
                ab[step, r, col + 1 :] -= factor[step, None] * ab[step, col, col + 1 :]
        x = np.zeros(b.shape)
        for r in range(n - 1, -1, -1):
            total = sum((ab[:, r, c] * x[:, c] for c in range(r + 1, n)), np.zeros(len(b)))
            x[:, r] = (ab[:, r, n] - total) / ab[:, r, r]
        return x


def solve_rows(a: np.ndarray, b: np.ndarray, failures: Failures) -> np.ndarray:
    """Each live row's solution of a[r] @ x = b[r].  A row fails with SingularModelError where
    its best available pivot is below PIVOT_RTOL times the max row norm of a[r], so near-singular
    systems fail loudly instead of amplifying noise."""
    if a.shape[1:] != (2, 2):
        return _eliminate(a, b, failures)
    # Determinant form instead of row-swapping elimination: it is bitwise
    # equivariant under signed coordinate permutations, so mirror- and
    # swap-symmetric problems scanned from symmetric seeds stay exactly
    # symmetric.  The pivots tested are the ones partial pivoting would use in
    # either column order, and a row fails where either order's test fails:
    # pivot1 is a column's largest entry, and the second pivot det / pivot1.
    (m00, m01), (m10, m11) = a.transpose(1, 2, 0)
    (a00, a01), (a10, a11) = abs(a).transpose(1, 2, 0)
    b0, b1 = b.T
    with np.errstate(all="ignore"):
        row0, row1 = a00 + a01, a10 + a11
        scale = np.maximum(row0, row1)
        failures.fail((scale == 0.0) | ~(np.isfinite(row0) & np.isfinite(row1)),
              lambda r: SingularModelError("matrix has zero or non-finite row norms"))
        pivot_floor = PIVOT_RTOL * scale
        det = m00 * m11 - m01 * m10
        pivot1 = np.maximum(a00, a10), np.maximum(a01, a11)  # in either column order
        small = (np.minimum(*pivot1) < pivot_floor) | (abs(det) < pivot_floor * np.maximum(*pivot1))
        # a zero determinant passes the second test when pivot_floor * pivot1 underflows
        failures.fail(small | (det == 0.0), lambda r: SingularModelError(f"2x2 pivots below floor {pivot_floor[r]:.3e}"))
        x = np.empty(b.shape)
        x[:, 0], x[:, 1] = (b0 * m11 - m01 * b1) / det, (m00 * b1 - m10 * b0) / det
        return x


def _model_matrix(problem: VectorProblem, weights: tuple, h: np.ndarray, x: np.ndarray, jx: np.ndarray,
                  failures: Failures) -> np.ndarray:
    """Each live row's sum_i a_i * J_f(x + i*h) from 0.0 in order of i, with jx = J_f(x)
    as the i = 0 term.  J takes the samples i = 1, 2, ... of every row stacked, an (N, g, n)
    array of as many samples g as keep a call within _SAMPLE_ROWS points (one at least); a row
    fails at a sample that is not finite, though that call evaluated its other samples too.
    The caller checks the sum for finiteness."""
    with np.errstate(all="ignore"):
        phi = 0.0 + weights[0] * jx
        group = max(1, _SAMPLE_ROWS // max(len(x), 1))
        for first in range(1, len(weights), group):
            i = np.arange(first, min(first + group, len(weights)))
            values = evaluate_rows(problem.jacobian, phi.shape[1:], x[:, None] + i[:, None] * h[:, None], failures, at=x)
            for k, a in enumerate(i.tolist()):
                phi += weights[a] * values[:, k]
    return phi


def _compact(failures: Failures, rows: np.ndarray, batch: Failures, keep: np.ndarray, *arrays: np.ndarray) -> tuple:
    """Hand the failed rows of batch back to failures at rows; cut rows, batch and arrays to keep (within batch.live)."""
    if keep.all():
        return rows, batch, *arrays
    failures.put(rows[~batch.live], batch.errors[~batch.live])
    keep = np.flatnonzero(keep)
    return rows[keep], Failures(len(keep)), *(a.take(keep, axis=0) for a in arrays)


def orders_rows(problem: VectorProblem, x: np.ndarray, failures: Failures, last: np.ndarray):
    """A step from each live row r of x, order by order up to order last[r], when the row leaves:
    after order j = 0, 1, 2, ... it yields the rows still in, their points and delta, and failures
    then holds exactly the failures of a bary:j step at them.  Order 0 is the Newton step: f(x)
    and J_f(x), and a row fails where they are not finite or J_f is singular (a scan's singular
    filter).  Its delta seeds h, then each order-j model matrix is solved against -f(x) for the next h."""
    rows = np.flatnonzero(failures.live)
    batch, points, last = Failures(len(rows)), x.take(rows, axis=0), last.take(rows)
    fx = evaluate_rows(problem.f, (problem.n,), points, batch)
    jx = evaluate_rows(problem.jacobian, (problem.n,) * 2, points, batch)
    delta = solve_rows(jx, -fx, batch)
    for j in itertools.count(1):
        rows, batch, points, last, fx, jx, delta = _compact(failures, rows, batch, batch.live, points, last, fx, jx, delta)
        yield rows, points, delta
        rows, batch, points, last, fx, jx, delta = _compact(failures, rows, batch, last >= j, points, last, fx, jx, delta)
        phi = _finite(_model_matrix(problem, barycentric_coefficients(j).floats, delta, points, jx, batch), points, batch)
        delta = solve_rows(phi, -fx, batch)


def step_orders(iter_map: IterativeMap) -> tuple[int, ...]:
    """The order of each step of iter_map, innermost first: k for bary:k, 0 for Newton."""
    if iter_map.family is MapFamily.COMPOSITION:
        outer, inner = iter_map.components
        return step_orders(inner) + step_orders(outer)
    if iter_map.family not in (MapFamily.NEWTON, MapFamily.NEWTON_BARYCENTRIC):
        raise ValueError(f"{iter_map.family.value} maps are not defined on R^n")
    return (iter_map.k,)


def paths_rows(problem: VectorProblem, x: np.ndarray, failures: Failures, paths: list[tuple]) -> dict:
    """Every node of the trie of paths from x, each a tuple of step orders (see step_orders):
    node p[:m] of a path p is the (N, n) points and the Failures of the first m steps of p from
    each live row of x, with NaN at a failed row.  The root () is x and failures.

    Level m runs one orders_rows recursion on the stacked rows of every distinct node p[:m],
    each row leaving after the highest order p[m] asked of its node, and each node p[:m + 1]
    takes the next points and failures of its start node's rows after order p[m]."""
    nodes = {(): (x, failures)}
    for m in range(max(map(len, paths), default=0)):
        children = sorted(dict.fromkeys(path[: m + 1] for path in paths if len(path) > m), key=lambda c: c[-1])
        last = {child[:-1]: child[-1] for child in children}  # in order, so each start's highest
        sizes = [len(nodes[start][0]) for start in last]
        cuts = dict(zip(last, itertools.starmap(slice, itertools.pairwise(np.cumsum([0, *sizes]).tolist()))))
        stacked = Failures.join([nodes[start][1] for start in last])
        points = np.concatenate([nodes[start][0] for start in last])
        steps = orders_rows(problem, points, stacked, np.repeat(list(last.values()), sizes))
        for j, (rows, at, delta) in zip(range(children[-1][-1] + 1), steps):
            if ends := [child for child in children if child[-1] == j]:
                next_ = np.full(points.shape, np.nan)
                with np.errstate(all="ignore"):
                    next_[rows] = at + delta
                for child in ends:
                    cut = cuts[child[:-1]]
                    nodes[child] = next_[cut], Failures.join([stacked], cut)
    return nodes


def vector_map_step(problem: VectorProblem, iter_map: IterativeMap, x: np.ndarray) -> np.ndarray:
    """The (n,) next point of one step of a Newton, barycentric, or composed map from x.

    Raises ValueError unless x has shape (n,), before any evaluation, and SingularModelError
    or EvaluationError, like the scalar steps; a non-finite next point is returned.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,):
        raise ValueError(f"need a point of shape {(problem.n,)}, got shape {x.shape}")
    path = step_orders(iter_map)  # one path of paths_rows, from a batch of one
    next_, failures = paths_rows(problem, x[None], Failures(1), [path])[path]
    if not failures.live[0]:
        raise failures.errors[0]
    return next_[0]
