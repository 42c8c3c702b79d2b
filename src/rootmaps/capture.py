"""Two-iteration grid scan for simultaneous zero localization.

Every grid vertex X0 goes through three filters: the Jacobian at X0 must be
nonsingular, at least one of the two iterates X1, X2 must stay in the search
box, and finally X2 is kept iff ||f(X2)|| <= tolerance.  All seeds pass
through each filter together, as one batch (see mapsnd).  Captured points
cluster near the fixed points of the map; a greedy pass groups them.
"""

import itertools
import math
import numbers
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .maps1d import IterativeMap
from .mapsnd import Box, Failures, VectorProblem, evaluate_rows, map_rows, newton_rows

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
        if not all(map(math.isfinite, self.domain.lo + self.domain.hi)):
            raise ValueError(f"grid bounds must be finite, got {self.domain.lo} to {self.domain.hi}")
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
    grid: GridSpec
    tolerance: float
    map: IterativeMap
    cluster_radius: float = DEFAULT_CLUSTER_RADIUS
    norm: str = "max"

    def __post_init__(self):
        if not 0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
        if not 0 < self.cluster_radius < math.inf:
            raise ValueError(
                f"cluster_radius must be positive and finite, got {self.cluster_radius}"
            )
        if self.norm not in ("max", "euclidean"):
            raise ValueError(f"norm must be 'max' or 'euclidean', got {self.norm!r}")


@dataclass(frozen=True)
class CapturedPoint:
    grid_i: int
    grid_j: int
    seed: np.ndarray
    point: np.ndarray
    fnorm: float
    objective: float | None


@dataclass(frozen=True)
class Cluster:
    representative: np.ndarray
    count: int
    members: tuple[int, ...] = ()


@dataclass(frozen=True)
class CaptureCounts:
    seeded: int = 0
    skipped_singular: int = 0
    step_failures: int = 0
    skipped_outside: int = 0
    rejected_tolerance: int = 0
    captured: int = 0


@dataclass(frozen=True)
class CaptureResult:
    captured: list[CapturedPoint]
    clusters: list[Cluster]
    counts: CaptureCounts


def _axis_vertices(lo: float, hi: float, count: int) -> np.ndarray:
    vertices = np.linspace(lo, hi, count)
    if lo == -hi:
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
# np.linalg.norm squares the offsets, and a square below the normal range
# loses its relative accuracy: offsets under about 2**-511 can pass any radius.
# Cells at least this wide keep such offsets within the neighbouring cells.
_MIN_CELL_WIDTH = 2.0**-500
# A cell's key is sum_a index_a * _KEY_BASE**a.  A neighbour's index is at most
# 2**52 + 1 < _KEY_BASE / 2 in magnitude, so the key is one-to-one, and as it
# is linear, a neighbour's key is the home key plus the offset's key.
_KEY_BASE = 2**54


def _key(indices, start=0):
    """start + sum_a indices[a] * _KEY_BASE**a, elementwise for columns of Python-int object arrays."""
    return sum((index * _KEY_BASE**axis for axis, index in enumerate(indices)), start)


def _cell(point: np.ndarray, width: float) -> int:
    return _key(math.floor(min(max(v / width, -_MAX_CELL_INDEX), _MAX_CELL_INDEX)) for v in point.tolist())


def cluster_points(points: list[np.ndarray], radius: float) -> list[Cluster]:
    """Greedy clustering in input order.

    A point joins the lowest-index cluster whose representative lies within
    radius (Euclidean); the representative is the member mean, recomputed on
    join.  Otherwise the point starts a new cluster.

    Representatives are bucketed in a uniform grid of cell width 2*radius, so
    a point is tested only against the clusters in the 3**n cells around its
    own: an offset of at most radius per axis moves the cell index by at most
    one.  A representative that moves to another cell is re-bucketed.  The
    expected cost is O(N * 3**n) instead of O(N * C) for C clusters.
    """
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    width = max(2.0 * radius, _MIN_CELL_WIDTH)
    points = [np.asarray(point, dtype=float) for point in points]
    shape = (points[0].size,) if points else (0,)
    # the first bad point is the first of another shape, or a non-finite one before it
    end = next((position for position, point in enumerate(points) if point.shape != shape), len(points))
    rows = np.array(points[:end]).reshape(end, *shape)
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        position = int(np.argmin(finite))
        raise ValueError(f"point {position} has a non-finite coordinate: {points[position]}")
    if end < len(points):
        raise ValueError(f"point {end} has shape {points[end].shape}, expected {shape}")
    # the cells of _cell, for every point at once
    with np.errstate(over="ignore"):
        indices = np.floor(np.clip(rows / width, -_MAX_CELL_INDEX, _MAX_CELL_INDEX)).astype(np.int64)
    homes = _key(indices.T.astype(object), np.zeros(len(rows), dtype=object)).tolist()
    offsets = [_key(offset) for offset in itertools.product((-1, 0, 1), repeat=rows.shape[1])]
    sums: list[np.ndarray] = []
    means: list[np.ndarray] = []
    members: list[list[int]] = []
    cells: list[int] = []
    grid: dict[int, list[int]] = {}
    for position, (point, home) in enumerate(zip(rows, homes)):
        candidates = sorted([idx for offset in offsets for idx in grid.get(home + offset, ())])
        for idx in candidates:
            if float(np.linalg.norm(point - means[idx])) <= radius:
                sums[idx] = sums[idx] + point
                members[idx].append(position)
                means[idx] = sums[idx] / len(members[idx])
                cell = _cell(means[idx], width)
                if cell != cells[idx]:
                    grid[cells[idx]].remove(idx)
                    grid.setdefault(cell, []).append(idx)
                    cells[idx] = cell
                break
        else:
            grid.setdefault(home, []).append(len(sums))
            # sums are replaced, never updated in place, so one copy serves both
            point = point.copy()
            sums.append(point)
            means.append(point)
            members.append([position])
            cells.append(home)
    return [
        Cluster(representative=mean, count=len(m), members=tuple(m))
        for mean, m in zip(means, members)
    ]


def _residual_norms(residuals: np.ndarray, norm: str) -> np.ndarray:
    if norm == "euclidean":
        # per row: np.linalg.norm of a vector is a BLAS dot, whose rounding may differ from a batched form
        return np.array([np.linalg.norm(vec) for vec in residuals])
    return np.abs(residuals).max(axis=1)


def run_capture(problem: VectorProblem, config: CaptureConfig) -> CaptureResult:
    """Scan the grid with two iterations of the configured map.

    All seeds go through each stage as one batch (see mapsnd); the singular
    filter's Newton solve is the first step's.  A seed's fate is the
    CaptureCounts field of the first stage that stopped it.  Captured points
    are clustered in grid-index order.
    """
    seeds = make_grid(config.grid)
    failures = Failures(len(seeds))
    start = newton_rows(problem, seeds, failures)
    singular = ~failures.live
    first = map_rows(problem, config.map, seeds, failures, start)
    second = map_rows(problem, config.map, first, failures)
    stepped = failures.live
    inside = stepped & (config.grid.domain.contains(first) | config.grid.domain.contains(second))
    rows = np.flatnonzero(inside & np.isfinite(second).all(axis=1))
    evaluated = Failures(len(rows))
    fnorms = _residual_norms(evaluate_rows(problem.f, (problem.n,), second[rows], evaluated), config.norm)
    passed = evaluated.live & (fnorms <= config.tolerance)
    rows, fnorms = rows[passed], fnorms[passed]
    fates = np.select(
        [singular, ~stepped, ~inside], ["skipped_singular", "step_failures", "skipped_outside"], "rejected_tolerance"
    )
    fates[rows] = "captured"
    objectives = [None] * len(rows)
    if problem.objective and len(rows):
        with np.errstate(all="ignore"):
            objectives = problem.objective(second[rows]).tolist()
    captured = [
        CapturedPoint(*divmod(r, config.grid.ny), seeds[r], second[r], fnorm, objective)
        for r, fnorm, objective in zip(rows.tolist(), fnorms.tolist(), objectives)
    ]
    counts = CaptureCounts(seeded=len(seeds), **Counter(fates.tolist()))
    clusters = cluster_points([c.point for c in captured], config.cluster_radius)
    return CaptureResult(captured=captured, clusters=clusters, counts=counts)
