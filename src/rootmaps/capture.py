"""Two-iteration grid scan for simultaneous zero localization.

Every grid vertex X0 goes through three filters: the Jacobian at X0 must be
nonsingular, at least one of the two iterates X1, X2 must stay in the search
box, and finally X2 is kept iff ||f(X2)|| <= tolerance.  All seeds pass
through each filter together, as one batch (see mapsnd).  A scan of one map
or many takes one path: two_steps steps the seeds by every map at once, as one
walk of their step paths, so that the maps share the seeds' Newton step and
every common step prefix, and run_capture filters and clusters each map's entry.
Captured points cluster near the fixed points of the map; a vectorised pass
sets the isolated ones apart, and a greedy pass groups the rest.  A result
holds them as read-only columns; reading its captured property builds records.
"""

import itertools
import math
import numbers
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .maps1d import IterativeMap
from .mapsnd import Box, Failures, VectorProblem, evaluate_rows, paths_rows, shaped, step_orders

DEFAULT_CLUSTER_RADIUS = 1e-3


@dataclass(frozen=True)
class GridSpec:
    """nx by ny vertices spanning the box, endpoints inclusive."""

    domain: Box
    nx: int
    ny: int

    def __post_init__(self):
        if self.domain.dim != 2:
            raise ValueError("grid scans are 2-D")
        if not all(math.isfinite(b - a) for a, b in zip(self.domain.lo, self.domain.hi)):  # nor a span that overflows
            raise ValueError(f"grid bounds must be finite, with finite spans, got {self.domain.lo} to {self.domain.hi}")
        if not all(isinstance(n, numbers.Integral) and n >= 2 for n in (self.nx, self.ny)):
            raise ValueError(f"need an integer count of at least 2 vertices per axis, got {self.nx}x{self.ny}")

    @property
    def dx(self) -> float:
        return (self.domain.hi[0] - self.domain.lo[0]) / (self.nx - 1)

    @property
    def dy(self) -> float:
        return (self.domain.hi[1] - self.domain.lo[1]) / (self.ny - 1)

    @property
    def size(self) -> int:
        return self.nx * self.ny


@dataclass(frozen=True)
class CaptureConfig:
    """The settings that every map of a scan shares."""

    grid: GridSpec
    tolerance: float
    cluster_radius: float = DEFAULT_CLUSTER_RADIUS
    norm: str = "max"

    def __post_init__(self):
        if not 0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
        if not 0 < self.cluster_radius < math.inf:
            raise ValueError(f"cluster_radius must be positive and finite, got {self.cluster_radius}")
        if self.norm not in ("max", "euclidean"):
            raise ValueError(f"norm must be 'max' or 'euclidean', got {self.norm!r}")


class CapturedPoint(NamedTuple):
    grid_i: int
    grid_j: int
    seed: np.ndarray
    point: np.ndarray
    fnorm: float
    objective: float | None


@dataclass(frozen=True)
class CaptureCounts:
    seeded: int = 0
    skipped_singular: int = 0
    step_failures: int = 0
    skipped_outside: int = 0
    rejected_tolerance: int = 0
    captured: int = 0


class CaptureResult(NamedTuple):
    grid_i: np.ndarray  # the captured points as read-only columns in grid-index order: (m,) int64 vertex indices,
    grid_j: np.ndarray
    seeds: np.ndarray  # (m, 2) seeds and second iterates,
    points: np.ndarray
    fnorms: np.ndarray  # (m,) residual norms and objectives, or None for a problem with no objective
    objectives: np.ndarray | None
    clusters: np.ndarray  # (C, n) representatives, and labels each captured point's cluster (see cluster_points)
    counts: CaptureCounts
    labels: np.ndarray

    @property
    def captured(self) -> list[CapturedPoint]:
        """One record per captured point, built from the columns on each access: seed and point are row views."""
        g = [None] * len(self.fnorms) if self.objectives is None else self.objectives.tolist()
        return list(map(CapturedPoint, self.grid_i.tolist(), self.grid_j.tolist(), self.seeds, self.points,
                        self.fnorms.tolist(), g))


def _symmetric(lo: float, hi: float) -> bool:
    """Whether an axis from lo to hi is centred on 0, where its vertices are bitwise antisymmetric."""
    return lo == -hi


def _axis_vertices(lo: float, hi: float, count: int) -> np.ndarray:
    vertices = np.linspace(lo, hi, count)
    if _symmetric(lo, hi):
        # Make the vertices bitwise antisymmetric so problems with mirror
        # symmetry produce mirror-identical scans.
        vertices = (vertices - vertices[::-1]) / 2.0
    return vertices


def make_grid(spec: GridSpec) -> np.ndarray:
    """Vertices as rows, in row-major order: index i scans x, j scans y, j fastest."""
    xs = _axis_vertices(spec.domain.lo[0], spec.domain.hi[0], spec.nx)
    ys = _axis_vertices(spec.domain.lo[1], spec.domain.hi[1], spec.ny)
    return np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)


# Quotients are clamped to +-2**52 before the floor, as one that overflows is
# inf and has no floor.  Below 2**52 rounding moves a quotient by at most a
# quarter, so coordinates within radius still floor to adjacent cells; clamped
# ones share the end cell of their axis.
_MAX_CELL_INDEX = 2.0**52
# A cell's key is sum_a index_a * _KEY_BASE**a.  A neighbour's index is at most
# 2**52 + 1 < _KEY_BASE / 2 in magnitude, so the key is one-to-one, and as it
# is linear, a neighbour's key is the home key plus the offset's key.
_KEY_BASE = 2**54


def _cell(point, width: float) -> int:
    key = 0  # the key of the clamped cell indices by Horner's rule; min and max run only out of range
    for v in reversed(point):
        q = v / width
        key = key * _KEY_BASE + math.floor(q if -_MAX_CELL_INDEX <= q <= _MAX_CELL_INDEX else
                                           min(max(q, -_MAX_CELL_INDEX), _MAX_CELL_INDEX))
    return key


def _isolated(cells: np.ndarray, reach: int) -> np.ndarray:
    """Mask of the rows of cells, (m, n) int64 cell indices, with no other row within reach cells on every axis:
    two such rows share or neighbour a coarse cell of 2*reach + 1 cells, so a row is marked where its coarse
    cell and the 3**n - 1 around it hold no other.  None is marked for n > 3 or where the int64 keys overflow."""
    coarse = cells // (2 * reach + 1)
    coarse -= coarse.min(axis=0) - 1  # from 1, so that a neighbour's index is at least 0
    spans = (coarse.max(axis=0) + 2).tolist()
    if not 0 < len(spans) <= 3 or math.prod(spans) >= 2**63:
        return np.zeros(len(cells), dtype=bool)
    strides = np.cumprod([1, *spans])[:-1].tolist()
    offsets = np.array([o for o in itertools.product((-1, 0, 1), repeat=len(spans)) if any(o)], dtype=np.int64)
    # a key is sum_a index_a * strides[a], exact in int64, taken one column at a time
    keys, steps = (sum(rows[:, a] * stride for a, stride in enumerate(strides)) for rows in (coarse, offsets))
    occupied, home, counts = np.unique(keys, return_inverse=True, return_counts=True)
    neighbours = steps[:, None] + occupied  # ascending rows keep searchsorted's bisections short
    found = occupied[np.searchsorted(occupied, neighbours).clip(max=len(occupied) - 1)] == neighbours
    return ((counts == 1) & ~found.any(axis=0))[home]


def cluster_points(points: np.ndarray | list[np.ndarray], radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Greedy clustering in input order of points, read as one (m, n) array: an array or a list of (n,) points.

    A point joins the lowest-index cluster whose representative, the member
    mean recomputed on join, lies within radius by math.dist, or starts one; a
    distance that is NaN or inf keeps them apart.
    Returns each point's cluster number, an (m,) int64 array numbering the
    clusters in order of their first member, and their (C, n) representatives;
    one whose running sum overflows is not finite and warns.

    First _isolated makes a singleton of each point with no other within
    K = 2 + ceil(m * 2**-52 * max|coord| / w) cells of width w = 2*radius on
    every axis (of none for n > 3 or a K past the index range).  The t-th
    member q moves the mean so that q - mean_t = (q - mean_{t-1}) * (1 - 1/t),
    so a point that joins lies within 2*radius = w of the latest member: one
    cell covers w, one the floors and the last term the running sum's rounding.
    Then a greedy loop tests each other point only against the clusters in the
    3**n cells around its own, in index order, re-bucketing a mean that moves.
    Sums and means are float lists, numpy's IEEE adds and divides.
    """
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    width = 2.0 * radius
    rows = np.array(points, dtype=float)  # a private copy; a ragged list raises numpy's ValueError
    if rows.ndim != 2 or not len(rows):
        if not rows.size:
            return np.zeros(0, dtype=np.int64), np.empty((0, rows.shape[1] if rows.ndim == 2 else 0))
        raise ValueError(f"points must be an (m, n) array, got shape {rows.shape}")
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        position = int(np.argmin(finite))
        raise ValueError(f"point {position} has a non-finite coordinate: {rows[position]}")
    with np.errstate(over="ignore"):  # the cells of _cell, for every point at once
        indices = np.floor(np.clip(rows / width, -_MAX_CELL_INDEX, _MAX_CELL_INDEX)).astype(np.int64)
    drift = len(rows) * 2.0**-52 * float(np.abs(rows).max(initial=0.0)) / width  # inf past the double range
    isolated = _isolated(indices, 2 + math.ceil(drift)) if drift <= _MAX_CELL_INDEX else np.zeros(len(rows), bool)
    crowd = np.flatnonzero(~isolated)
    offsets = [_cell(offset, 1.0) for offset in itertools.product((-1, 0, 1), repeat=rows.shape[1])]
    # float lists: a singleton's mean is its point, as point / 1.0 is point, and sums start at two
    means, sums, sizes, cells, grid, starts, labels = [], {}, [], [], {}, [], []
    for position, point in zip(crowd.tolist(), rows[crowd].tolist()):
        home = _cell(point, width)
        for idx in sorted([idx for offset in offsets for idx in grid.get(home + offset, ())]):
            mean = means[idx]
            if not math.dist(point, mean) <= radius:  # an offset past the double range is inf
                continue
            total = sums[idx] = [a + b for a, b in zip(sums.get(idx, mean), point)]
            sizes[idx] += 1
            means[idx] = mean = [v / sizes[idx] for v in total]
            cell = _cell(mean, width)
            if cell != cells[idx]:
                grid[cells[idx]].remove(idx)
                grid.setdefault(cell, []).append(idx)
                cells[idx] = cell
            break
        else:
            grid.setdefault(home, []).append(idx := len(means))
            means.append(point)
            sizes.append(1)
            starts.append(position)  # the crowded clusters' first members
            cells.append(home)
        labels.append(idx)  # the point's crowded cluster, numbered in order of starts
    if not all(map(math.isfinite, itertools.chain.from_iterable(sums.values()))):  # the points are finite
        warnings.warn("overflow in a cluster's running sum: its representative is not finite", RuntimeWarning)
    rows[starts] = np.array(means).reshape(len(means), rows.shape[1])  # each crowded cluster's mean in its first row
    isolated[starts] = True  # now the rows that start a cluster, in order
    numbers = np.cumsum(isolated, dtype=np.int64) - 1
    numbers[crowd] = numbers[starts][labels]
    return numbers, rows[isolated]


def _residual_norms(residuals: np.ndarray, norm: str) -> np.ndarray:
    if norm == "euclidean":
        return np.hypot.reduce(residuals, axis=1)  # the C library's hypot, as the kernels take its pow
    return np.abs(residuals).max(axis=1)


def objectives(problem: VectorProblem, points: np.ndarray) -> np.ndarray | None:
    """The objective at each row of points as an (m,) float array, with numpy's warnings off and its
    shape checked like f's, or None if the problem has none; it is not called without a row."""
    if problem.objective is None or not len(points):
        return None if problem.objective is None else np.empty(0)
    with np.errstate(all="ignore"):
        return np.array(shaped(problem.objective(points), (len(points),)))  # a copy the result may freeze


def two_steps(problem: VectorProblem, grid: GridSpec, maps: list[IterativeMap]) -> list[tuple]:
    """Two steps of each map from the grid's seeds, in one paths_rows walk: per map the seeds
    (one array for all), the singular filter's mask, the first and the second iterates, and the
    Failures after both.  A map's path is its step_orders twice; the singular filter is the
    path (0,), the seeds' Newton step, which is order 0 of every first step.

    On each axis of problem.mirror_axes that the grid spans symmetrically, only the vertices of
    index at least (count - 1) / 2 step, and each other vertex copies its mirror twin's row,
    with 0.0 - v for each coordinate v it mirrors: a full scan gives -v, or +0.0 where v
    cancels to +0.0, as x + (-x) does.  If the problem declares swap_axes and the grid's two
    axes have the same vertices, bit for bit, a vertex (i, j) with i < j after that copies (j, i),
    its columns swapped before the mirror.  With no such symmetry the slices copy nothing."""
    counts, seeds = (grid.nx, grid.ny), make_grid(grid)
    axes = [a for a in problem.mirror_axes if _symmetric(grid.domain.lo[a], grid.domain.hi[a])]
    twins = np.indices(counts).reshape(2, -1)
    flips = {a: twins[a] < (counts[a] - 1) / 2 for a in axes}
    for a, flip in flips.items():
        twins[a, flip] = counts[a] - 1 - twins[a, flip]
    square = grid.nx == grid.ny and seeds[:: grid.ny, 0].tobytes() == seeds[: grid.ny, 1].tobytes()
    swapped = np.flatnonzero((twins[0] < twins[1]) & bool(problem.swap_axes and square))
    twins[:, swapped] = twins[::-1, swapped]
    stepped, twin = (np.unique(np.ravel_multi_index(twins, counts), return_inverse=True) if axes or len(swapped)
                     else [slice(None)] * 2)
    paths = [step_orders(iter_map) * 2 for iter_map in maps]
    starts = seeds[stepped]
    nodes = paths_rows(problem, starts, Failures(len(starts)), [(0,), *paths])

    def mirrored(points):
        points = points[twin]
        points[swapped] = points[swapped, ::-1]
        for a, flip in flips.items():
            points[flip, a] = 0.0 - points[flip, a]
        return points

    singular = ~nodes[(0,)][1].live[twin]
    return [(seeds, singular, mirrored(nodes[path[: len(path) // 2]][0]), mirrored(nodes[path][0]),
             Failures.join([nodes[path][1]], twin)) for path in paths]


def run_capture(problem: VectorProblem, config: CaptureConfig, steps: tuple) -> CaptureResult:
    """The scan of one map from steps, its entry of two_steps on config.grid.

    All seeds go through each stage as one batch (see mapsnd); the singular
    filter's Newton solve is the first step's.  A seed's fate is the
    CaptureCounts field of the first stage that stopped it.  Captured points
    are clustered in grid-index order.
    """
    seeds, singular, first, second, failures = steps
    stepped = failures.live
    inside = stepped & (config.grid.domain.contains(first) | config.grid.domain.contains(second))
    rows = np.flatnonzero(inside & np.isfinite(second).all(axis=1))
    fnorms = _residual_norms(evaluate_rows(problem.f, (problem.n,), second[rows], Failures(len(rows))), config.norm)
    passed = fnorms <= config.tolerance  # a residual that is not finite has a NaN or infinite norm
    rows, fnorms = rows[passed], fnorms[passed]
    # a seed's fate is the index of its CaptureCounts field after `seeded`
    fates = np.select([singular, ~stepped, ~inside], [0, 1, 2], 3)
    fates[rows] = 4
    counts = CaptureCounts(len(seeds), *np.bincount(fates, minlength=5).tolist())
    points = second[rows]
    columns = *np.divmod(rows, config.grid.ny), seeds[rows], points, fnorms, objectives(problem, points)
    for column in [column for column in columns if column is not None]:
        column.setflags(write=False)
    labels, clusters = cluster_points(points, config.cluster_radius)
    return CaptureResult(*columns, clusters, counts, labels)
