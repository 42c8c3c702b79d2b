"""Two-iteration grid scan for simultaneous zero localization.

Every grid vertex X0 goes through three filters: the Jacobian at X0 must be
nonsingular, at least one of the two iterates X1, X2 must stay in the search
box, and finally X2 is kept iff ||f(X2)|| <= tolerance.  Captured points
cluster near the fixed points of the map; a greedy pass groups them.
"""

import math
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .maps1d import EvaluationError, IterativeMap, StepFailureError
from .mapsnd import Box, VectorProblem, evaluate, jacobian_is_singular, vector_map_step

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
        if self.nx < 2 or self.ny < 2:
            raise ValueError(f"need at least 2 vertices per axis, got {self.nx}x{self.ny}")

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


def make_grid(spec: GridSpec) -> list[np.ndarray]:
    """Vertices in row-major order: index i scans x, j scans y, j fastest."""
    xs = _axis_vertices(spec.domain.lo[0], spec.domain.hi[0], spec.nx)
    ys = _axis_vertices(spec.domain.lo[1], spec.domain.hi[1], spec.ny)
    return [np.array([xs[i], ys[j]]) for i in range(spec.nx) for j in range(spec.ny)]


def cluster_points(points: list[np.ndarray], radius: float) -> list[Cluster]:
    """Greedy clustering in input order.

    A point joins the first cluster whose representative lies within radius
    (Euclidean); the representative is the member mean, recomputed on join.
    """
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    sums: list[np.ndarray] = []
    members: list[list[int]] = []
    for position, point in enumerate(points):
        point = np.asarray(point, dtype=float)
        for idx in range(len(sums)):
            rep = sums[idx] / len(members[idx])
            if float(np.linalg.norm(point - rep)) <= radius:
                sums[idx] = sums[idx] + point
                members[idx].append(position)
                break
        else:
            sums.append(point.copy())
            members.append([position])
    return [
        Cluster(representative=s / len(m), count=len(m), members=tuple(m))
        for s, m in zip(sums, members)
    ]


def _residual_norm(vec: np.ndarray, norm: str) -> float:
    if norm == "euclidean":
        return float(np.linalg.norm(vec))
    return float(np.max(np.abs(vec)))


def _classify_seed(problem, config, index_and_seed):
    """The CaptureCounts field the seed is tallied under, and its CapturedPoint if captured."""
    (grid_i, grid_j), seed = index_and_seed
    try:
        evaluate(problem.f, seed)
    except EvaluationError:
        return ("skipped_singular", None)
    if jacobian_is_singular(problem, seed):
        return ("skipped_singular", None)
    try:
        first = vector_map_step(problem, config.map, seed).next
        second = vector_map_step(problem, config.map, first).next
    except StepFailureError:
        return ("step_failures", None)
    domain = config.grid.domain
    if not domain.contains(first) and not domain.contains(second):
        return ("skipped_outside", None)
    try:
        fnorm = _residual_norm(evaluate(problem.f, second), config.norm)
    except EvaluationError:
        return ("rejected_tolerance", None)
    if not fnorm <= config.tolerance:
        return ("rejected_tolerance", None)
    objective = float(problem.objective(second)) if problem.objective else None
    return (
        "captured",
        CapturedPoint(
            grid_i=grid_i,
            grid_j=grid_j,
            seed=seed,
            point=second,
            fnorm=fnorm,
            objective=objective,
        ),
    )


def run_capture(problem: VectorProblem, config: CaptureConfig, threads: int = 1) -> CaptureResult:
    """Scan the grid with two iterations of the configured map.

    Per-seed outcomes are independent, so the work may fan out across
    threads; results are merged in grid-index order and the clustering pass
    runs after the merge, so the output is identical for any thread count.
    """
    seeds = make_grid(config.grid)
    indices = [(i, j) for i in range(config.grid.nx) for j in range(config.grid.ny)]
    work = list(zip(indices, seeds))
    if threads == 0:
        threads = os.cpu_count() or 1
    if threads == 1:
        outcomes = [_classify_seed(problem, config, item) for item in work]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(lambda item: _classify_seed(problem, config, item), work))
    counts = CaptureCounts(seeded=len(seeds), **Counter(kind for kind, _ in outcomes))
    captured = [point for _, point in outcomes if point is not None]
    clusters = cluster_points([c.point for c in captured], config.cluster_radius)
    return CaptureResult(captured=captured, clusters=clusters, counts=counts)
