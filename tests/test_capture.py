import dataclasses
import itertools
import math
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rootmaps import (
    Box,
    CaptureConfig,
    CaptureCounts,
    EvaluationError,
    GridSpec,
    SingularModelError,
    StepFailureError,
    VectorProblem,
    barycentric_coefficients,
    newton_barycentric,
    newton_map,
    run_capture,
    vector_map_step,
    vector_problem,
)
from rootmaps.capture import (
    DEFAULT_CLUSTER_RADIUS,
    _KEY_BASE,
    CapturedPoint,
    CaptureResult,
    _axis_vertices,
    _cell,
    _isolated,
    cluster_points,
    make_grid,
    two_steps,
)
from rootmaps.maps1d import MapFamily
from rootmaps.cli import REPRODUCE_SETUPS, parse_map_spec
from rootmaps import cli, mapsnd
from rootmaps.mapsnd import PIVOT_RTOL, Failures
from rootmaps.problems import ackley_gradient, load_polynomial_problem, rutishauser
from test_mapsnd import _reference_eliminate, constant
from test_problems import (
    reference_ackley,
    reference_problem,
    reference_rutishauser,
    write_random_gradient_file,
)


def scan_one(problem, config, iter_map):
    """run_capture of one map, from its entry of two_steps on config.grid."""
    [steps] = two_steps(problem, config.grid, [iter_map])
    return run_capture(problem, config, steps)


def affine_problem():
    a = np.array([[3.0, 1.0], [1.0, 2.0]])
    c = np.array([1.0, -1.0])
    return VectorProblem(
        n=2,
        f=lambda x: x @ a.T - c,
        jacobian=constant(a),
        domain=Box(lo=(-2.0, -2.0), hi=(2.0, 2.0)),
        name="affine",
    )


class TestMakeGrid:
    def test_two_by_two_gives_corners(self):
        spec = GridSpec(domain=Box(lo=(0.0, 0.0), hi=(1.0, 1.0)), nx=2, ny=2)
        points = make_grid(spec)
        assert [tuple(p) for p in points] == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]

    def test_coarse_ackley_mesh_width(self):
        spec = GridSpec(domain=Box(lo=(-32.768, -32.768), hi=(32.768, 32.768)), nx=19, ny=19)
        assert spec.size == 361
        assert spec.dx == pytest.approx(65.536 / 18.0, rel=1e-15)
        assert spec.dx == pytest.approx(3.64089, abs=1e-5)

    def test_fine_ackley_mesh_width(self):
        spec = GridSpec(domain=Box(lo=(-32.768, -32.768), hi=(32.768, 32.768)), nx=41, ny=41)
        assert spec.size == 1681
        assert spec.dx == pytest.approx(1.6384, rel=1e-12)

    def test_symmetric_axes_are_bitwise_antisymmetric(self):
        spec = GridSpec(domain=Box(lo=(-32.768, -32.768), hi=(32.768, 32.768)), nx=41, ny=41)
        xs = sorted({float(p[0]) for p in make_grid(spec)})
        assert all(xs[i] == -xs[40 - i] for i in range(41))
        assert xs[20] == 0.0

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError):
            GridSpec(domain=Box(lo=(0.0, 0.0), hi=(1.0, 1.0)), nx=1, ny=5)
        with pytest.raises(ValueError):
            GridSpec(domain=Box(lo=(0.0, 0.0), hi=(1.0, 1.0)), nx=2.5, ny=3)
        assert GridSpec(domain=Box(lo=(0.0, 0.0), hi=(1.0, 1.0)), nx=np.int64(3), ny=3).size == 9
        with pytest.raises(ValueError, match="grid scans are 2-D"):
            GridSpec(domain=Box(lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 1.0)), nx=3, ny=3)

    @pytest.mark.parametrize("lo, hi", [((-math.inf, -1.0), (math.inf, 1.0)), ((math.nan, -1.0), (1.0, 1.0)),
                                        ((0.0, 0.0), (1.0, math.inf))])
    def test_rejects_non_finite_bounds(self, lo, hi):
        with pytest.raises(ValueError, match="grid bounds must be finite"):
            GridSpec(domain=Box(lo=lo, hi=hi), nx=5, ny=5)

    def test_rejects_a_span_that_overflows(self):
        # finite bounds whose difference is past the double range: linspace would give NaN vertices
        with pytest.raises(ValueError, match=r"grid bounds must be finite, with finite spans, got \(-1e\+308, -1\.0\)"):
            GridSpec(domain=Box(lo=(-1e308, -1.0), hi=(1e308, 1.0)), nx=3, ny=3)
        assert GridSpec(domain=Box(lo=(-8e307, -1.0), hi=(8e307, 1.0)), nx=3, ny=3).dx == 8e307


def _reference_cluster_points(points, radius):
    """The O(N*C) greedy loop that cluster_points must match bit for bit:
    each point's cluster number and each cluster's member mean.  A point
    joins where math.dist to the mean is within radius."""
    sums = []
    sizes = []
    labels = []
    with np.errstate(over="ignore"):
        for point in points:
            point = np.asarray(point, dtype=float)
            for idx in range(len(sums)):
                rep = sums[idx] / sizes[idx]
                if math.dist(point, rep) <= radius:
                    sums[idx] = sums[idx] + point
                    sizes[idx] += 1
                    break
            else:
                idx = len(sums)
                sums.append(point.copy())
                sizes.append(1)
            labels.append(idx)
    return labels, [s / n for s, n in zip(sums, sizes)]


def assert_matches_reference(points, radius):
    labels, representatives = cluster_points(points, radius)
    want_labels, want_means = _reference_cluster_points(points, radius)
    assert labels.dtype == np.int64 and labels.tolist() == want_labels
    assert representatives.shape == (len(want_means), len(points[0]))
    assert representatives.tobytes() == np.array(want_means).tobytes()
    return labels, representatives


class TestClusterPoints:
    def test_identical_points_form_one_cluster(self):
        points = [np.array([0.5, 0.5])] * 7
        labels, representatives = cluster_points(points, 1e-3)
        assert len(representatives) == 1
        assert labels.tolist() == [0] * 7

    def test_distant_points_stay_separate(self):
        labels, representatives = cluster_points([np.zeros(2), np.array([3e-3, 0.0])], 1e-3)
        assert len(representatives) == 2 and labels.tolist() == [0, 1]

    def test_offset_whose_square_overflows_stays_apart(self):
        # both points clamp to the end cell of the x axis; the squares of their offset overflow,
        # but math.dist scales them, and the distance 1e300 is far past the radius
        points = np.array([[1e200, 0.0], [1e300, 0.0]])
        assert assert_matches_reference(points, 1e-3)[0].tolist() == [0, 1]

    def test_running_sum_that_overflows_warns(self):
        # the two points are one cluster, but their sum, 3.4e308, is past the double range
        points = np.array([[1.7e308, 0.0], [1.7e308, 0.0]])
        with pytest.warns(RuntimeWarning, match="overflow in a cluster's running sum"):
            labels, representatives = assert_matches_reference(points, 1e-3)
        assert labels.tolist() == [0, 0] and np.isinf(representatives[0, 0])

    def test_three_tight_knots_of_eighteen_points(self):
        centers = [
            np.array([0.459591, 0.693716]),
            np.array([0.693716, 0.459591]),
            np.array([0.593976, 0.593976]),
        ]
        rng = np.random.default_rng(41)
        points = []
        for center in centers:
            for _ in range(6):
                points.append(center + rng.uniform(-1e-7, 1e-7, size=2))
        labels, representatives = cluster_points(points, 1e-4)
        assert len(representatives) == 3
        assert sorted(np.bincount(labels).tolist()) == [6, 6, 6]
        for representative in representatives:
            nearest = min(np.linalg.norm(representative - c) for c in centers)
            assert nearest <= 1e-7

    def test_representative_is_member_mean(self):
        points = [np.array([0.0, 0.0]), np.array([1e-4, 0.0])]
        labels, representatives = cluster_points(points, 1e-3)
        assert labels.tolist() == [0, 0]
        assert representatives[0] == pytest.approx([5e-5, 0.0], abs=1e-18)

    def test_rejects_nonpositive_radius(self):
        for radius in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                cluster_points([np.zeros(2)], radius)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.array([0.0, np.nan]), "point 2 has a non-finite coordinate"),
            (np.array([np.inf, 0.0]), "point 2 has a non-finite coordinate"),
            (np.array([0.0, 0.0, 0.0]), r"detected shape was \(3,\) \+ inhomogeneous part"),
            (np.zeros((2, 1)), r"detected shape was \(3, 2\) \+ inhomogeneous part"),
        ],
    )
    def test_rejects_bad_points_by_index(self, bad, message):
        with pytest.raises(ValueError, match=message):
            cluster_points([np.zeros(2), np.ones(2), bad], 1e-3)

    def test_points_are_read_as_one_array(self):
        # a list of points is one (m, n) array: an empty one has no clusters, and
        # an array of another rank is a ValueError naming its shape
        labels, representatives = cluster_points([], 1e-3)
        assert labels.dtype == np.int64 and labels.shape == (0,) and representatives.shape == (0, 0)
        with pytest.raises(ValueError, match=r"points must be an \(m, n\) array, got shape \(3, 2, 1\)"):
            cluster_points(np.zeros((3, 2, 1)), 1e-3)


@st.composite
def lattice_point_sets(draw):
    """(points, radius): points on a lattice of spacing radius, so that points
    radius and 2*radius apart along an axis and coordinates on cell edges
    (multiples of 2*radius) are common, with optional jitter.  The lattice is
    narrow, so that most points are crowded, or wide, so that most are
    isolated.  Mixed in: tight knots, a chain whose mean drifts across a cell
    edge, a point beyond the cell-index clamp and duplicates.  Four axes take
    the greedy loop alone."""
    dim = draw(st.integers(1, 4))
    radius = draw(st.sampled_from([0.25, 2.0**-10, 1e-3, 0.3]))
    jitter = st.one_of(st.just(0.0), st.floats(-radius, radius))
    extent = draw(st.sampled_from([4, 400]))
    coordinate = st.builds(lambda k, e: k * radius + e, st.integers(-extent, extent), jitter)
    lattice = st.lists(coordinate, min_size=dim, max_size=dim).map(np.array)
    points = draw(st.lists(lattice, min_size=1, max_size=25))
    for center in draw(st.lists(lattice, max_size=3)):
        # a knot of points within a thousandth of radius of its center
        knot = st.lists(st.floats(-1e-3, 1e-3), min_size=dim, max_size=dim).map(lambda e: center + np.array(e) * radius)
        points += draw(st.lists(knot, min_size=2, max_size=6))
    points += [points[i] for i in draw(st.lists(st.integers(0, len(points) - 1), max_size=5))]
    points = draw(st.permutations(points))
    if draw(st.booleans()):
        # each point lies a fraction of radius above the mean of the chain so far
        step = np.zeros(dim)
        step[draw(st.integers(0, dim - 1))] = draw(st.floats(0.8, 1.0)) * radius
        chain = [draw(lattice)]
        for _ in range(draw(st.integers(2, 24))):
            chain.append(sum(chain) / len(chain) + step)
        at = draw(st.integers(0, len(points)))
        points[at:at] = chain
    if draw(st.booleans()):
        far = draw(lattice)
        # beyond 2**52 cells from zero; the squares of 1e300 overflow, and math.dist scales the
        # offsets before it squares them
        sign, magnitude = draw(st.sampled_from([1.0, -1.0])), draw(st.sampled_from([2.0**54 * radius, 1e150, 1e300]))
        far[draw(st.integers(0, dim - 1))] = sign * magnitude
        points.insert(draw(st.integers(0, len(points))), far)
    return points, radius


class TestClusterPointsProperties:
    @given(lattice_point_sets())
    def test_matches_reference(self, case):
        points, radius = case
        assert_matches_reference(points, radius)
        assert_matches_reference(np.array(points), radius)

    @given(lattice_point_sets())
    def test_labels_number_the_clusters_by_first_member(self, case):
        # one label per point; cluster c first appears after cluster c - 1 does
        points, radius = case
        labels, representatives = cluster_points(points, radius)
        numbers, firsts = np.unique(labels, return_index=True)
        assert len(labels) == len(points)
        assert numbers.tolist() == list(range(len(representatives)))
        assert (np.diff(firsts) > 0).all()


class TestClusterPointsAgainstReference:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("radius", [1e-3, 0.05, 0.3, 1.0])
    def test_random_points(self, dim, radius):
        rng = np.random.default_rng(1000 * dim + int(radius * 1000))
        for _ in range(25):
            # knots on and near cell boundaries (multiples of 2*radius) and
            # around zero, with jitter on the scale of the radius
            knots = rng.integers(-3, 4, size=(rng.integers(1, 6), dim)) * radius
            picks = knots[rng.integers(0, len(knots), size=rng.integers(1, 60))]
            points = list(picks + rng.normal(scale=radius, size=picks.shape))
            points += [points[i] for i in rng.integers(0, len(points), size=5)]
            rng.shuffle(points)
            assert_matches_reference(points, radius)

    def test_distance_exactly_radius_joins(self):
        # binary fractions: every difference and norm below is exact
        radius = 0.25
        for mean, point in [(0.0, 0.25), (0.375, 0.625), (-0.125, 0.125), (0.5, 0.25)]:
            labels, _ = assert_matches_reference([np.array([mean]), np.array([point])], radius)
            assert labels.tolist() == [0, 0]
        labels, _ = assert_matches_reference([np.zeros(2), np.array([0.375, 0.5])], 0.625)
        assert labels.tolist() == [0, 0]

    def test_one_ulp_beyond_radius_stays_apart(self):
        radius = 0.25
        beyond = np.nextafter(radius, 1.0)
        for mean, point in [
            (0.0, beyond),
            (0.375, np.nextafter(0.625, 1.0)),
            (-0.125, 0.125 + 2.0**-54),
            (-beyond, 0.0),
        ]:
            assert point - mean >= beyond
            labels, _ = assert_matches_reference([np.array([mean]), np.array([point])], radius)
            assert labels.tolist() == [0, 1]

    def test_migrated_mean_captures_later_point(self):
        # each point sits 0.24 above the current mean, so the mean walks out
        # of its first cell (width 0.5); points from 1.0 up look only at
        # cells 1 and beyond and find the cluster only if it was re-bucketed
        radius = 0.25
        points = [np.array([0.49])]
        mean = points[0]
        while mean[0] < 1.0:
            points.append(mean + 0.24)
            mean = sum(points) / len(points)
        points.append(mean + 0.24)
        labels, _ = assert_matches_reference(points, radius)
        assert np.bincount(labels).tolist() == [len(points)]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_probe_far_from_the_first_member_joins_the_drifted_mean(self, dim):
        # each point sits just within radius above the mean so far, so the mean
        # walks away from the first member; the probe lies more than K = 3
        # cells (cell width 0.5) from the first member, but within one cell of
        # the latest, and joins: isolation must look at every other point, not
        # only at the earlier ones or at a cluster's first member
        radius = 0.25
        step = np.zeros(dim)
        step[0] = 0.999 * radius
        points = [np.full(dim, 0.49)]
        total = points[0].copy()
        while (total / len(points))[0] < 1.8:
            points.append(total / len(points) + step)
            total = total + points[-1]
        probe = total / len(points) + step
        points += [probe, np.full(dim, -3.0)]  # and a lone point
        assert math.floor(probe[0] / 0.5) - math.floor(0.49 / 0.5) > 3
        labels, _ = assert_matches_reference(points, radius)
        assert np.bincount(labels).tolist() == [len(points) - 1, 1]

    def test_running_sum_rounding_lifts_the_mean_two_cells(self, monkeypatch):
        # 286 members near 2**52 cells (width 1), each at the mean so far: the
        # sum's ulp is hundreds of cells, and its rounding alone moves the mean.
        # The last member lies radius below the mean and the probe radius above
        # the new one, which rounding has lifted, so the probe joins though it
        # lies two cells from every member: isolation within one cell is not
        # enough.  No input is known where the rounding term changes the
        # clusters (a join moves the mean by about 1.5 ulp at most), so the
        # reach the pre-pass uses is pinned to the K of the proof instead
        reaches = []
        monkeypatch.setattr("rootmaps.capture._isolated", lambda cells, reach: reaches.append(reach) or _isolated(cells, reach))
        radius = 0.5
        points = [np.array([4301931831840389.0])]
        total = points[0].copy()
        for count in range(1, 286):
            points.append(total / count)
            total = total + points[-1]
        points.append(total / 286 - radius)
        total = total + points[-1]
        probe = total / 287 + radius
        assert min(math.floor(probe[0]) - math.floor(p[0]) for p in points) == 2
        labels, _ = assert_matches_reference([*points, probe], radius)
        assert np.bincount(labels).tolist() == [288]
        assert reaches == [2 + math.ceil(288 * 2.0**-52 * probe[0])] == [278]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_lone_points_beside_clamped_end_cells(self, dim):
        # cell width 1: a pair clamped into the end cell of axis 0, another into
        # the other end, and lone points a few cells and 60 cells inside; the
        # rounding term of the 2**52 coordinates sets K = 10 (seven points), so
        # the point 4 cells from the end is crowded and the one 60 cells in is
        # isolated; the probes beside the end cells run past every occupied key
        radius = 0.5
        end = 2.0**52
        rows = np.zeros((7, dim))
        rows[:, 0] = [end + 2.0, end - 3.5, end, -end - 8.0, end - 60.0, -end - 8.0, end + 2.0]
        if dim > 1:
            rows[4, 1] = 0.25
        cells = np.floor(np.clip(rows, -end, end)).astype(np.int64)
        assert 2 + math.ceil(7 * 2.0**-52 * np.abs(rows).max()) == 10
        assert _isolated(cells, 10).tolist() == [False, False, False, False, True, False, False]
        labels, _ = assert_matches_reference(list(rows), radius)
        assert labels.tolist() == [0, 1, 2, 3, 4, 3, 0]

    def test_overflowing_cell_index(self):
        # the coordinate over the cell width is far beyond 2**52, and for
        # 1e200 it overflows to inf; the index is clamped instead.  In that
        # end cell y = 1e-170 stays apart from y = 0.0, as math.dist gives
        # their true distance, which is past the radius
        radius = 1e-300
        big = 1e10
        points = [
            np.array([big, big]),
            np.array([big, big]),
            np.array([np.nextafter(big, np.inf), big]),
            np.array([-big, big]),
            np.array([big, -big]),
            np.array([big, big]),
            np.array([1e100, -1e100]),
            np.array([-big, big]),
        ]
        labels, _ = assert_matches_reference(points, radius)
        assert np.bincount(labels).tolist() == [3, 1, 2, 1, 1]
        points = [np.array([1e200, y]) for y in (0.0, 1e-3, 1e-170, 1e-3, -1e-3, 0.0)]
        labels, _ = assert_matches_reference(points, radius)
        assert np.bincount(labels).tolist() == [2, 2, 1, 1]

    def test_underflowing_offsets(self):
        # offsets below about 1e-154 square to less than the smallest normal
        # double, but math.dist does not square them: each offset is decided by
        # its true distance, so only 1e-300 joins 0.0 within a radius of 1e-300
        radius = 1e-300
        points = [np.array([v]) for v in (0.0, 1e-300, 1e-290, -2e-290, 1e-170, 1e-150)]
        labels, _ = assert_matches_reference(points, radius)
        assert np.bincount(labels).tolist() == [2, 1, 1, 1, 1]

    def test_large_coordinates_near_clamp(self):
        rng = np.random.default_rng(7)
        for radius in (0.3, 0.5, 1.0, 2.5):
            for scale in (2.0**51, 2.0**52, 2.0**53):
                base = scale * 2.0 * radius
                points = [
                    np.array([base + rng.integers(-8, 9) * radius * 0.5, 1.0]) for _ in range(60)
                ]
                assert_matches_reference(points, radius)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_clamped_end_cells_and_their_neighbours(self, dim):
        # cell width 1: the quotient is the coordinate, clamped to +-2**52;
        # the points fill the end cells of each axis, the cells next to them,
        # and cells 0 and -1 on either side of zero
        radius = 0.5
        end = 2.0**52
        values = [end - 1.5, end - 1.0, end - 0.5, end, end + 1.0, end + 2.0, 1e20, 1e150, 0.25, -0.25]
        values += [-v for v in values]
        rng = np.random.default_rng(50 + dim)
        for _ in range(20):
            points = list(rng.choice(values, size=(rng.integers(1, 40), dim)))
            points += [points[i] for i in rng.integers(0, len(points), size=5)]
            assert_matches_reference(points, radius)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_negative_cells_next_to_positive_ones(self, dim):
        # every sign pattern of +-0.2 per axis: the points straddle the cells
        # -1 and 0 of each axis and lie within the radius of their neighbours
        radius = 0.5
        corners = [np.array(signs) * 0.2 for signs in itertools.product((-1.0, 1.0), repeat=dim)]
        rng = np.random.default_rng(60 + dim)
        for _ in range(10):
            picks = rng.integers(0, len(corners), size=30)
            points = [corners[i] + rng.normal(scale=0.05, size=dim) for i in picks]
            assert_matches_reference(points, radius)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_cell_keys_are_one_to_one_and_linear(self, dim):
        # the reference key of cell indices; cluster_points keys a neighbour
        # as the home key plus _cell(offset, 1.0), and the neighbours of the
        # clamped end cells +-2**52 have the indices +-(2**52 + 1)
        def key(indices):
            return sum(index * _KEY_BASE**axis for axis, index in enumerate(indices))

        indices = [-(2**52) - 1, -(2**52), -(2**52) + 1, -1, 0, 1, 2**52 - 1, 2**52, 2**52 + 1]
        cells = list(itertools.product(indices, repeat=dim))
        keys = [key(cell) for cell in cells]
        assert len(set(keys)) == len(cells)
        for offset in itertools.product((-1, 0, 1), repeat=dim):
            assert _cell(offset, 1.0) == key(offset)
            for cell in cells[::7]:
                assert key(cell) + key(offset) == key(map(sum, zip(cell, offset)))
        for cell in cells:
            if max(map(abs, cell)) <= 2**52:  # every index in range is its own cell at width 1
                assert _cell(np.array(cell, dtype=float), 1.0) == key(cell)
        for point in ([2.0**60], [-(2.0**60), 0.3], [1e300, -0.75, 2.5]):
            clamped = [math.floor(min(max(v, -(2.0**52)), 2.0**52)) for v in point]
            assert _cell(np.array(point), 1.0) == key(clamped)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_array_input_matches_list_input(self, dim):
        rng = np.random.default_rng(70 + dim)
        rows = rng.integers(-3, 4, size=(80, dim)) * 0.05 + rng.normal(scale=0.05, size=(80, dim))
        labels, representatives = cluster_points(rows, 0.05)
        list_labels, list_representatives = cluster_points(list(rows), 0.05)
        assert labels.tolist() == list_labels.tolist()
        assert representatives.tobytes() == list_representatives.tobytes()
        assert representatives.shape == list_representatives.shape
        labels, representatives = cluster_points(np.empty((0, dim)), 0.05)
        assert labels.shape == (0,) and representatives.shape == (0, dim)

    @pytest.mark.parametrize("example, isolated, captured",
                             [("example1", 4, 372), ("example2-coarse", 1192, 1192), ("example2-fine", 1576, 1600)])
    def test_isolated_shares_of_the_examples(self, example, isolated, captured):
        # the pre-pass pays where the captures are lone extrema: the isolated
        # points per reproduce example, summed over its maps, are the same for
        # reach 1 and 3 and for the exact test, no other point within reach cells
        width = 2 * DEFAULT_CLUSTER_RADIUS
        cells = [np.floor(np.array([c.point for c in scan_one(*scan.values).captured]) / width).astype(np.int64)
                 for scan in reproduce_configs(example)]
        assert sum(map(len, cells)) == captured
        for reach in (1, 3):
            assert sum(int(_isolated(c, reach).sum()) for c in cells) == isolated
            near = [(np.abs(c[:, None].astype(np.int32) - c.astype(np.int32)) <= reach).all(axis=2) for c in cells]
            assert sum(int((n.sum(axis=1) == 1).sum()) for n in near) == isolated

    def test_example2_coarse_captures(self):
        problem_name, nx, ny, eps, map_table = REPRODUCE_SETUPS["example2-coarse"]
        problem = vector_problem(problem_name)
        grid = GridSpec(domain=problem.domain, nx=nx, ny=ny)
        for _, spec, _ in map_table:
            config = CaptureConfig(grid=grid, tolerance=eps)
            points = [c.point for c in scan_one(problem, config, parse_map_spec(spec)).captured]
            assert points
            assert_matches_reference(points, DEFAULT_CLUSTER_RADIUS)


class TestRunCapture:
    def test_affine_every_seed_captures_the_zero(self):
        problem = affine_problem()
        zero = np.linalg.solve([[3.0, 1.0], [1.0, 2.0]], [1.0, -1.0])
        config = CaptureConfig(
            grid=GridSpec(domain=problem.domain, nx=9, ny=9),
            tolerance=1e-8,
        )
        result = scan_one(problem, config, newton_map())
        assert result.counts.captured == 81
        assert result.counts.skipped_singular == 0
        assert len(result.clusters) == 1 and result.labels.tolist() == [0] * 81
        assert result.clusters[0] == pytest.approx(zero, abs=1e-12)

    def test_counts_partition_the_seeds(self):
        problem = rutishauser()
        config = CaptureConfig(
            grid=GridSpec(domain=problem.domain, nx=7, ny=7),
            tolerance=1e-3,
        )
        counts = scan_one(problem, config, newton_barycentric(1)).counts
        assert counts.seeded == 49
        assert counts.seeded == (
            counts.skipped_singular
            + counts.step_failures
            + counts.skipped_outside
            + counts.rejected_tolerance
            + counts.captured
        )

    def test_captured_points_satisfy_tolerance_post_hoc(self):
        problem = rutishauser()
        config = CaptureConfig(
            grid=GridSpec(domain=problem.domain, nx=9, ny=9),
            tolerance=1e-3,
        )
        result = scan_one(problem, config, newton_barycentric(2))
        assert result.counts.captured > 0
        for captured in result.captured:
            assert np.max(np.abs(problem.f(captured.point))) <= 1e-3
            assert captured.fnorm <= 1e-3
            assert captured.objective is not None

    def test_tolerance_monotonicity(self):
        problem = rutishauser()
        grid = GridSpec(domain=problem.domain, nx=9, ny=9)
        spec = newton_barycentric(1)
        loose = scan_one(problem, CaptureConfig(grid=grid, tolerance=1e-3), spec)
        tight = scan_one(problem, CaptureConfig(grid=grid, tolerance=1e-5), spec)
        tight_keys = {(c.grid_i, c.grid_j) for c in tight.captured}
        loose_keys = {(c.grid_i, c.grid_j) for c in loose.captured}
        assert tight_keys <= loose_keys

    def test_objective_is_called_only_with_captured_rows(self):
        # like f and the Jacobian, the objective is never called on a batch of no rows
        problem = rutishauser()
        calls = []
        counting = dataclasses.replace(problem, objective=lambda p: calls.append(p.shape) or problem.objective(p))
        grid = GridSpec(domain=problem.domain, nx=5, ny=5)
        none = scan_one(counting, CaptureConfig(grid=grid, tolerance=1e-300), newton_barycentric(1))
        assert none.counts.captured == 0 and calls == []
        grid = GridSpec(domain=problem.domain, nx=9, ny=9)
        some = scan_one(counting, CaptureConfig(grid=grid, tolerance=1e-3), newton_barycentric(1))
        assert some.counts.captured > 0 and calls == [(some.counts.captured, 2)]
        assert all(c.objective is not None for c in some.captured)

    def test_ackley_origin_seed_skipped_as_singular(self):
        problem = ackley_gradient()
        config = CaptureConfig(
            grid=GridSpec(domain=problem.domain, nx=3, ny=3),
            tolerance=1e-3,
        )
        result = scan_one(problem, config, newton_map())
        assert result.counts.skipped_singular >= 1

    def test_two_iterations_reproduce_step_sequence(self):
        problem = rutishauser()
        t1 = newton_barycentric(1)
        config = CaptureConfig(grid=GridSpec(domain=problem.domain, nx=9, ny=9), tolerance=1e-3)
        result = scan_one(problem, config, t1)
        assert result.captured
        for captured in result.captured:
            first = vector_map_step(problem, t1, captured.seed)
            second = vector_map_step(problem, t1, first)
            assert np.array_equal(captured.point, second)

    @pytest.mark.parametrize("jacobian_at_zero", [np.zeros((2, 2)), np.full((2, 2), np.nan)])
    def test_failed_steps_are_tallied_as_step_failures(self, jacobian_at_zero):
        # f(x) = x: Newton sends every seed to the origin in one step, where
        # the Jacobian is singular (SingularModelError) or undefined
        # (EvaluationError); the origin seed itself fails the seed check
        problem = VectorProblem(
            n=2,
            f=lambda p: p.copy(),
            jacobian=lambda p: np.where(~p.any(axis=-1)[..., None, None], jacobian_at_zero, np.eye(2)),
            domain=Box(lo=(-1.0, -1.0), hi=(1.0, 1.0)),
        )
        config = CaptureConfig(grid=GridSpec(domain=problem.domain, nx=3, ny=3), tolerance=1e-3)
        counts = scan_one(problem, config, newton_map()).counts
        assert (counts.seeded, counts.skipped_singular, counts.step_failures) == (9, 1, 8)

    def test_captured_list_ordered_by_grid_index(self):
        problem = rutishauser()
        config = CaptureConfig(
            grid=GridSpec(domain=problem.domain, nx=9, ny=9),
            tolerance=1e-3,
        )
        result = scan_one(problem, config, newton_barycentric(1))
        keys = [(c.grid_i, c.grid_j) for c in result.captured]
        assert keys == sorted(keys)

    def test_config_validation(self):
        problem = affine_problem()
        grid = GridSpec(domain=problem.domain, nx=3, ny=3)
        with pytest.raises(ValueError):
            CaptureConfig(grid=grid, tolerance=0.0)
        with pytest.raises(ValueError):
            CaptureConfig(grid=grid, tolerance=1e-3, cluster_radius=-1.0)
        with pytest.raises(ValueError):
            CaptureConfig(grid=grid, tolerance=1e-3, norm="l7")
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                CaptureConfig(grid=grid, tolerance=bad)
            with pytest.raises(ValueError):
                CaptureConfig(grid=grid, tolerance=1e-3, cluster_radius=bad)

    def test_overflowing_iterates_are_counted_not_raised(self):
        # steep polynomial: f = x^7 - 2 + 0*y-ish second component, iterates
        # from far seeds overflow float powers to inf
        @np.errstate(all="ignore")
        def f(p):
            x, y = p[..., 0], p[..., 1]
            return np.stack([x**7 - 2.0, y**7 + x], axis=-1)

        @np.errstate(all="ignore")
        def jacobian(p):
            x, y = p[..., 0], p[..., 1]
            rows = [[7.0 * x**6, 0.0 * x], [1.0 + 0.0 * y, 7.0 * y**6]]
            return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)

        problem = VectorProblem(n=2, f=f, jacobian=jacobian, domain=Box(lo=(-1e40, -1e40), hi=(1e40, 1e40)))
        config = CaptureConfig(
            grid=GridSpec(domain=problem.domain, nx=3, ny=3),
            tolerance=1e-3,
        )
        counts = scan_one(problem, config, newton_map()).counts
        assert counts.seeded == 9
        assert counts.seeded == (
            counts.skipped_singular
            + counts.step_failures
            + counts.skipped_outside
            + counts.rejected_tolerance
            + counts.captured
        )

    def test_non_finite_second_iterate_is_rejected_not_clustered(self):
        # Newton takes each integer vertex to a half-integer X1 inside the box;
        # there the tiny Jacobian sends X2 to +inf, where f is 0
        problem = VectorProblem(
            n=2,
            f=lambda p: np.where(np.isinf(p), 0.0, np.where(p % 1.0 == 0.5, -1e200, -0.5)),
            jacobian=lambda p: np.where((p % 1.0 == 0.5).all(axis=-1), 1e-160, 1.0)[..., None, None] * np.eye(2),
            domain=Box((0.0, 0.0), (10.0, 10.0)),
        )
        config = CaptureConfig(grid=GridSpec(domain=problem.domain, nx=11, ny=11), tolerance=1e-3)
        result, _ = assert_scan_matches_reference(problem, config, newton_map(), oracle=problem)
        assert result.counts == CaptureCounts(seeded=121, skipped_outside=21, rejected_tolerance=100)
        assert result.captured == [] and result.clusters.shape == (0, 2) and result.labels.shape == (0,)

    def test_result_is_lists_of_immutable_records(self):
        # perfbench's output checks read this shape: len and truth value of
        # captured, grid_i, grid_j and point of each record, len of clusters
        problem = rutishauser()
        grid = GridSpec(domain=problem.domain, nx=9, ny=9)
        some = scan_one(problem, CaptureConfig(grid=grid, tolerance=1e-3), newton_barycentric(1))
        none = scan_one(problem, CaptureConfig(grid=grid, tolerance=1e-300), newton_barycentric(1))
        assert type(some.captured) is list and some.captured
        assert CapturedPoint._fields == ("grid_i", "grid_j", "seed", "point", "fnorm", "objective")
        for c in some.captured:
            assert isinstance(c, CapturedPoint) and (type(c.grid_i), type(c.grid_j)) == (int, int)
            assert c.point.shape == c.seed.shape == (2,)
            assert c.seed.tolist() == make_grid(grid)[c.grid_i * grid.ny + c.grid_j].tolist()
        assert len(some.labels) == len(some.captured) > 0
        assert some.clusters.shape == (some.labels.max() + 1, 2)
        with pytest.raises(AttributeError):
            some.captured[0].fnorm = 0.0
        with pytest.raises(AttributeError):
            some.clusters = None
        assert type(none.captured) is list and not none.captured and len(none.clusters) == 0

    def test_captured_columns(self):
        # the captured points are columns in grid-index order, and captured builds its
        # records from them, bit for bit, on each access
        problem = rutishauser()
        grid = GridSpec(domain=problem.domain, nx=9, ny=9)
        result = scan_one(problem, CaptureConfig(grid=grid, tolerance=1e-3), newton_barycentric(1))
        m = result.counts.captured
        columns = result.grid_i, result.grid_j, result.seeds, result.points, result.fnorms, result.objectives
        assert m > 0 and [(c.dtype, c.shape) for c in columns] == [
            (np.int64, (m,)), (np.int64, (m,)), (np.float64, (m, 2)), (np.float64, (m, 2)), (np.float64, (m,)),
            (np.float64, (m,))]
        rows = result.grid_i * grid.ny + result.grid_j
        assert (np.diff(rows) > 0).all() and result.seeds.tobytes() == make_grid(grid)[rows].tobytes()
        assert result.objectives.tobytes() == problem.objective(result.points).tobytes()
        records = result.captured
        assert [(c.grid_i, c.grid_j, c.seed.tobytes(), c.point.tobytes(), repr(c.fnorm), repr(c.objective))
                for c in records] == list(zip(result.grid_i.tolist(), result.grid_j.tolist(),
                                              map(np.ndarray.tobytes, result.seeds),
                                              map(np.ndarray.tobytes, result.points),
                                              map(repr, result.fnorms.tolist()), map(repr, result.objectives.tolist())))
        assert all(type(c.fnorm) is type(c.objective) is float for c in records)
        assert result.captured is not records

    def test_empty_capture_has_empty_columns(self):
        problem = rutishauser()
        grid = GridSpec(domain=problem.domain, nx=5, ny=5)
        result = scan_one(problem, CaptureConfig(grid=grid, tolerance=1e-300), newton_barycentric(1))
        columns = result.grid_i, result.grid_j, result.seeds, result.points, result.fnorms, result.objectives
        assert [(c.dtype, c.shape) for c in columns] == [
            (np.int64, (0,)), (np.int64, (0,)), (np.float64, (0, 2)), (np.float64, (0, 2)), (np.float64, (0,)),
            (np.float64, (0,))]
        assert result.captured == [] and result.counts.captured == 0

    def test_no_objective_is_none_in_the_columns_and_records(self, tmp_path):
        problem = load_polynomial_problem(str(write_random_gradient_file(tmp_path / "random.poly", 3)))
        grid = GridSpec(domain=problem.domain, nx=15, ny=15)
        result = scan_one(problem, CaptureConfig(grid=grid, tolerance=1e-6), newton_barycentric(2))
        assert problem.objective is None and result.objectives is None and result.counts.captured > 0
        assert [c.objective for c in result.captured] == [None] * result.counts.captured

    def test_columns_and_records_are_read_only(self):
        # a record's seed and point are views into the columns: a write to either would change
        # every later record and render, so none is taken; the objective's own array stays writable
        problem, returned = rutishauser(), []
        keeping = dataclasses.replace(problem, objective=lambda p: returned.append(problem.objective(p)) or returned[0])
        grid = GridSpec(domain=problem.domain, nx=9, ny=9)
        result = scan_one(keeping, CaptureConfig(grid=grid, tolerance=1e-3), newton_barycentric(1))
        before = result.points.tobytes()
        for column in (result.grid_i, result.grid_j, result.seeds, result.points, result.fnorms, result.objectives):
            with pytest.raises(ValueError):
                column[0] = 0
        record = result.captured[0]
        for array in (record.seed, record.point):
            with pytest.raises(ValueError):
                array[0] = 0.0
        assert result.points.tobytes() == before and [r.flags.writeable for r in returned] == [True]

    def test_euclidean_norm_is_stricter(self):
        problem = rutishauser()
        grid = GridSpec(domain=problem.domain, nx=9, ny=9)
        spec = newton_barycentric(1)
        by_max = scan_one(problem, CaptureConfig(grid=grid, tolerance=1e-3), spec)
        by_euclid = scan_one(problem, CaptureConfig(grid=grid, tolerance=1e-3, norm="euclidean"), spec)
        euclid_keys = {(c.grid_i, c.grid_j) for c in by_euclid.captured}
        max_keys = {(c.grid_i, c.grid_j) for c in by_max.captured}
        assert euclid_keys <= max_keys


def counted(fn, counts, key):
    """fn, counting the points it is evaluated at: one per (n,) point, N per (N, n) batch."""

    def wrapper(points):
        counts[key] += math.prod(np.shape(points)[:-1])
        return fn(points)

    return wrapper


# ---------------------------------------------------------------------------
# The per-seed scan that the batched one replaced, kept as its oracle: each
# seed runs through the filters alone, and a failure is an exception.  For
# n == 2 the model matrix and the solve are the plain-float kernels the scan
# used; for other n, the numpy assembly and elimination.  Run with the
# per-point kernels of test_problems, it checks the array-in problems and the
# batched scan together.
#
# The oracle evaluates at the points the scan evaluated at before it reused
# them, and tallies in `skipped` the evaluations the scan now skips: f and J
# at the seed in the first step (the singular filter's), and the i = 0
# sample x + 0*h of each model matrix (J(x) is reused).  Where that sample is
# not finite the scan fails the row at i = 1 instead, one evaluation either
# way, so it is not tallied.
# ---------------------------------------------------------------------------


def _reference_evaluate(fn, x, at=None):
    """fn(x), or EvaluationError naming at (default x) where it is not
    finite or, for a per-point kernel, raises because x cannot be evaluated."""
    try:
        value = np.asarray(fn(x), dtype=float)
        finite = np.isfinite(value).all()
    except (ArithmeticError, ValueError):
        finite = False
    if not finite:
        raise EvaluationError(f"non-finite evaluation at x={x if at is None else at!r}")
    return value


def _reference_model_matrix(problem, coeffs, h, x, skipped):
    """The assembly; it stops at the first sample that is not finite."""
    if problem.n != 2:
        phi = np.zeros((problem.n, problem.n))
        for i, a_i in enumerate(coeffs.floats):
            phi += a_i * _reference_evaluate(problem.jacobian, x + i * h, at=x)
            if i == 0:
                skipped["jacobian"] += 1
        return phi
    x0, x1 = x.tolist()
    h0, h1 = h.tolist()
    m00 = m01 = m10 = m11 = 0.0
    for i, a_i in enumerate(coeffs.floats):
        sample = np.array([x0 + i * h0, x1 + i * h1])
        (j00, j01), (j10, j11) = _reference_evaluate(problem.jacobian, sample, at=x).tolist()
        if i == 0:
            skipped["jacobian"] += 1
        m00 += a_i * j00
        m01 += a_i * j01
        m10 += a_i * j10
        m11 += a_i * j11
    return np.array([[m00, m01], [m10, m11]])


def _reference_lu_solve(matrix, rhs):
    n = len(rhs)
    if n == 2:
        (m00, m01), (m10, m11) = matrix.tolist()
        row0, row1 = abs(m00) + abs(m01), abs(m10) + abs(m11)
        scale = max(row0, row1)
        if scale == 0.0 or not (math.isfinite(row0) and math.isfinite(row1)):
            raise SingularModelError("matrix has zero or non-finite row norms")
        pivot_floor = PIVOT_RTOL * scale
        det = m00 * m11 - m01 * m10
        # partial pivoting's pivots in either column order
        for pivot1 in (max(abs(m00), abs(m10)), max(abs(m11), abs(m01))):
            if pivot1 < pivot_floor or abs(det) < pivot_floor * pivot1 or det == 0.0:
                raise SingularModelError(f"2x2 pivots below floor {pivot_floor:.3e}")
        b0, b1 = rhs.tolist()
        return np.array([(b0 * m11 - m01 * b1) / det, (m00 * b1 - m10 * b0) / det])
    return _reference_eliminate(matrix, rhs)  # the back-substitution sums left to right


def _reference_map_step(problem, iter_map, x, skipped, filtered=False):
    """The next point of one step from x, by the one-point step recursion;
    filtered when x is a seed that passed the singular filter."""
    if iter_map.family is MapFamily.COMPOSITION:
        outer, inner = iter_map.components
        return _reference_map_step(problem, outer, _reference_map_step(problem, inner, x, skipped, filtered), skipped)
    k = iter_map.k if iter_map.family is MapFamily.NEWTON_BARYCENTRIC else 0
    fx = _reference_evaluate(problem.f, x)
    delta = _reference_lu_solve(_reference_evaluate(problem.jacobian, x), -fx)
    if filtered:
        skipped.update(["f", "jacobian"])
    for j in range(1, k + 1):
        matrix = partial(_reference_model_matrix, problem, barycentric_coefficients(j), delta, skipped=skipped)
        delta = _reference_lu_solve(_reference_evaluate(matrix, x), -fx)
    return x + delta


def _reference_classify_seed(problem, config, iter_map, grid_i, grid_j, seed, skipped, stepper=None):
    """The seed's fate and captured point under two steps of iter_map; stepper (default problem)
    runs the singular filter and the steps, and problem the residual."""
    stepper = stepper or problem
    try:
        _reference_evaluate(stepper.f, seed)
        _reference_lu_solve(_reference_evaluate(stepper.jacobian, seed), np.zeros(problem.n))
    except StepFailureError:
        return "skipped_singular", None
    try:
        first = _reference_map_step(stepper, iter_map, seed, skipped, filtered=True)
        second = _reference_map_step(stepper, iter_map, first, skipped)
    except StepFailureError:
        return "step_failures", None
    domain = config.grid.domain
    if not any(all(lo <= v <= hi for lo, v, hi in zip(domain.lo, p, domain.hi)) for p in (first, second)):
        return "skipped_outside", None
    if not np.isfinite(second).all():
        return "rejected_tolerance", None
    try:
        residual = _reference_evaluate(problem.f, second)
    except EvaluationError:
        return "rejected_tolerance", None
    if config.norm == "euclidean":
        fnorm = float(np.hypot(*residual))
    else:
        fnorm = float(np.max(np.abs(residual)))
    if not fnorm <= config.tolerance:
        return "rejected_tolerance", None
    objective = float(problem.objective(second)) if problem.objective else None
    return "captured", CapturedPoint(grid_i, grid_j, seed, second, fnorm, objective)


def _reference_run_capture(problem, config, iter_map, skipped=None, copied=None):
    """The per-seed scan of iter_map.  copied, if given, is a pair (mask, stepper): each vertex that the
    (nx, ny) mask marks runs its singular filter and steps on stepper and tallies no skips."""
    skipped = Counter() if skipped is None else skipped
    grid = config.grid
    xs = _axis_vertices(grid.domain.lo[0], grid.domain.hi[0], grid.nx)
    ys = _axis_vertices(grid.domain.lo[1], grid.domain.hi[1], grid.ny)
    mask, stepper = copied or (np.zeros((grid.nx, grid.ny), dtype=bool), None)
    outcomes = [
        _reference_classify_seed(problem, config, iter_map, i, j, np.array([xs[i], ys[j]]), Counter(), stepper)
        if mask[i, j] else _reference_classify_seed(problem, config, iter_map, i, j, np.array([xs[i], ys[j]]), skipped)
        for i in range(grid.nx)
        for j in range(grid.ny)
    ]
    counts = CaptureCounts(seeded=len(outcomes), **Counter(kind for kind, _ in outcomes))
    captured = [point for _, point in outcomes if point is not None]
    labels, means = _reference_cluster_points([c.point for c in captured], config.cluster_radius)
    i, j, seeds, points, fnorms, objectives = zip(*captured) if captured else [()] * 6
    g = None if problem.objective is None else np.array(objectives, dtype=float)
    return CaptureResult(np.array(i, dtype=np.int64), np.array(j, dtype=np.int64), np.reshape(seeds, (-1, 2)),
                         np.reshape(points, (-1, 2)), np.array(fnorms, dtype=float), g,
                         np.array(means).reshape(-1, 2), counts, np.array(labels, dtype=np.int64))


def counting_problem(problem, calls):
    return dataclasses.replace(
        problem, f=counted(problem.f, calls, "f"), jacobian=counted(problem.jacobian, calls, "jacobian")
    )


def oracle_of(problem):
    """The problem with the per-point kernels it was checked against."""
    oracles = {"rutishauser": reference_rutishauser, "ackley": reference_ackley}
    return oracles[problem.name]() if problem.name in oracles else problem


def stepped_vertices(problem, grid):
    """The (nx, ny) mask of the vertices a scan steps: on each of the problem's mirror axes
    whose grid span runs from -h to h, those from the middle up, and if it declares the swap
    and both axes have the same bounds and count, those of x index at least their y index;
    the others copy their twins."""
    mask, (lo, hi) = np.ones((grid.nx, grid.ny), dtype=bool), (grid.domain.lo, grid.domain.hi)
    for axis in problem.mirror_axes:
        if lo[axis] == -hi[axis]:
            mask &= 2 * np.indices(mask.shape)[axis] >= mask.shape[axis] - 1
    if problem.swap_axes and (lo[0], hi[0], grid.nx) == (lo[1], hi[1], grid.ny):
        mask &= np.indices(mask.shape)[0] >= np.indices(mask.shape)[1]
    return mask


def assert_scan_matches_reference(problem, config, iter_map, oracle=None):
    """The scan of iter_map against the per-seed oracle run on the per-point kernels
    (default: those of a built-in problem, else the problem itself): counts,
    every captured value's bytes, the clusters and the number of points f and
    the Jacobian are evaluated at.  That is the oracle's less those skipped,
    with the filter and steps counted only at the vertices the scan steps."""
    got_calls, want_calls, skipped = Counter(), Counter(), Counter()
    got = scan_one(counting_problem(problem, got_calls), config, iter_map)
    oracle = oracle or oracle_of(problem)
    copied = ~stepped_vertices(problem, config.grid), oracle
    want = _reference_run_capture(counting_problem(oracle, want_calls), config, iter_map, skipped, copied)
    assert got.counts == want.counts
    assert got_calls == want_calls - skipped
    assert len(got.captured) == len(want.captured)
    for a, b in zip(got.captured, want.captured):
        assert (a.grid_i, a.grid_j) == (b.grid_i, b.grid_j)
        assert (a.seed.tobytes(), a.point.tobytes()) == (b.seed.tobytes(), b.point.tobytes())
        assert (repr(a.fnorm), repr(a.objective)) == (repr(b.fnorm), repr(b.objective))
    assert got.labels.tolist() == want.labels.tolist()
    assert (got.clusters.shape, got.clusters.tobytes()) == (want.clusters.shape, want.clusters.tobytes())
    return got, got_calls


def write_seventh_power_file(path):
    """A seeded x**7 system on a tiny box: J is so small there that the Newton
    delta reaches ~1e51, and J at x + i*h overflows for some i."""
    a, b, c, d = np.random.default_rng(70).uniform(0.5, 2.0, size=4).tolist()
    path.write_text(
        "domain -1e-8 1e-8 -1e-8 1e-8\n"
        f"poly 2 : {a!r} 7 0 ; {-b!r} 0 0\npoly 2 : {c!r} 0 7 ; {-d!r} 0 0\n"
    )
    return path


def reproduce_configs(example):
    problem_name, nx, ny, eps, map_table = REPRODUCE_SETUPS[example]
    problem = vector_problem(problem_name)
    grid = GridSpec(domain=problem.domain, nx=nx, ny=ny)
    return [
        pytest.param(problem, CaptureConfig(grid=grid, tolerance=eps), parse_map_spec(spec), id=label)
        for label, spec, _ in map_table
    ]


class TestBatchedScanAgainstReference:
    @pytest.mark.parametrize("problem, config, iter_map", reproduce_configs("example1"))
    def test_example1(self, problem, config, iter_map):
        assert_scan_matches_reference(problem, config, iter_map)

    @pytest.mark.parametrize("problem, config, iter_map", reproduce_configs("example2-coarse"))
    def test_example2_coarse(self, problem, config, iter_map):
        result, _ = assert_scan_matches_reference(problem, config, iter_map)
        # the origin vertex, where the Ackley Jacobian is NaN, is one of them
        assert result.counts.skipped_singular >= 1

    @pytest.mark.parametrize("problem", [rutishauser(), ackley_gradient()], ids=["rutishauser", "ackley"])
    @pytest.mark.parametrize("norm", ["max", "euclidean"])
    def test_newton(self, problem, norm):
        grid = GridSpec(domain=problem.domain, nx=15, ny=15)
        assert_scan_matches_reference(problem, CaptureConfig(grid=grid, tolerance=1e-3, norm=norm), newton_map())

    def test_euclidean_norm(self):
        problem = rutishauser()
        grid = GridSpec(domain=problem.domain, nx=19, ny=19)
        config = CaptureConfig(grid=grid, tolerance=1e-3, norm="euclidean")
        assert_scan_matches_reference(problem, config, parse_map_spec("bary:2"))

    @pytest.mark.parametrize("spec", ["newton", "bary:2", "compose:bary:1,bary:1"])
    def test_ackley_origin(self, spec):
        # the origin is a seed, and the odd grids around it send steps near it
        problem = ackley_gradient()
        for size in (3, 5, 7):
            grid = GridSpec(domain=Box(lo=(-2.0, -2.0), hi=(2.0, 2.0)), nx=size, ny=size)
            result, _ = assert_scan_matches_reference(
                problem, CaptureConfig(grid=grid, tolerance=1e-2), parse_map_spec(spec)
            )
            assert result.counts.skipped_singular >= 1


    @pytest.mark.parametrize("spec", ["bary:1", "bary:3"])
    def test_undefined_jacobian_at_a_sample(self, spec):
        # Newton lands exactly on c, where J is NaN: the last sample of the
        # first assembly is NaN, and the assembled matrix fails the step
        c = np.array([0.5, 0.5])
        problem = VectorProblem(
            n=2,
            f=lambda p: p - c,
            jacobian=lambda p: np.where((p == c).all(axis=-1)[..., None, None], np.nan, np.eye(2)),
            domain=Box(lo=(-1.0, -1.0), hi=(1.0, 1.0)),
        )
        grid = GridSpec(domain=problem.domain, nx=5, ny=5)
        result, _ = assert_scan_matches_reference(
            problem, CaptureConfig(grid=grid, tolerance=1e-3), parse_map_spec(spec)
        )
        assert (result.counts.skipped_singular, result.counts.step_failures) == (1, 24)

    @pytest.mark.parametrize("spec", ["bary:1", "bary:3", "compose:bary:3,bary:2"])
    def test_polynomial_overflowing_between_samples(self, tmp_path, spec):
        # J at x + i*h overflows for some i >= 1, after the samples before it were taken
        path = write_seventh_power_file(tmp_path / "seventh.poly")
        problem = load_polynomial_problem(str(path))
        ref_f, ref_jacobian = reference_problem(path)
        jacobian_calls = []

        def logged_jacobian(x):
            try:
                value = ref_jacobian(x)
            except OverflowError:
                jacobian_calls.append("raised")
                raise
            jacobian_calls.append("ok")
            return value

        grid = GridSpec(domain=problem.domain, nx=11, ny=11)
        config, iter_map = CaptureConfig(grid=grid, tolerance=1e-3), parse_map_spec(spec)
        oracle = dataclasses.replace(problem, f=ref_f, jacobian=logged_jacobian)
        _reference_run_capture(oracle, config, iter_map)
        # in the one-point scan a sample that raises right after a sample that
        # did not lies inside one assembly
        assert ("ok", "raised") in set(zip(jacobian_calls, jacobian_calls[1:]))
        result, _ = assert_scan_matches_reference(problem, config, iter_map, oracle)
        assert result.counts.step_failures > 0

    @pytest.mark.parametrize("spec", ["newton", "bary:1", "bary:3", "compose:bary:2,bary:1"])
    def test_three_dimensional_polynomial(self, tmp_path, spec):
        # n = 3 takes the numpy assembly and one elimination per row
        path = write_random_gradient_file(tmp_path / "p3.poly", 63, n=3)
        problem = load_polynomial_problem(str(path))
        ref_f, ref_jacobian = reference_problem(path)
        iter_map = parse_map_spec(spec)
        rng = np.random.default_rng(64)
        special = [[0.0, 0.0, 0.0], [1e40, 0.5, -0.5], [1e60, 0.5, -0.5], [np.nan, 0.0, 0.0]]
        points = np.concatenate([rng.uniform(-1.5, 1.5, size=(60, 3)), special])

        def outcome(step, x):
            try:
                return step(x).tobytes()
            except StepFailureError as exc:
                return f"{type(exc).__name__}: {exc}"

        got_calls, want_calls, skipped = Counter(), Counter(), Counter()
        got_problem = counting_problem(problem, got_calls)
        oracle = dataclasses.replace(problem, f=ref_f, jacobian=ref_jacobian)
        want_problem = counting_problem(oracle, want_calls)
        got = [outcome(lambda x: vector_map_step(got_problem, iter_map, x), x) for x in points]
        want = [outcome(lambda x: _reference_map_step(want_problem, iter_map, x, skipped), x) for x in points]
        assert got == want
        assert got_calls == want_calls - skipped
        assert any(isinstance(o, bytes) for o in got) and any(isinstance(o, str) for o in got)
        # all the points as one batch: the same next points and failures
        path = mapsnd.step_orders(iter_map)
        batched, failures = mapsnd.paths_rows(problem, points, Failures(len(points)), [path])[path]
        for row, failure, expected in zip(batched, failures.errors, want):
            assert (row.tobytes() if failure is None else f"{type(failure).__name__}: {failure}") == expected

    @pytest.mark.parametrize("budget", [1, 100, mapsnd._SAMPLE_ROWS])
    def test_three_dimensional_failure_inside_an_order(self, tmp_path, budget, monkeypatch):
        # a diagonal x**7 system on the n = 3 path, stepped by bary:3 as one batch of 41 rows
        # with each order's samples stacked in calls of at most budget points (1, 2 or all
        # samples a call): each row's next point or failure is its own one-point step's, bit
        # for bit, message for message
        path = tmp_path / "seventh3.poly"
        path.write_text("".join(f"poly 3 : {c} {e} ; -1.0 0 0 0\n" for c, e in
                                [(1.5, "7 0 0"), (1.25, "0 7 0"), (0.75, "0 0 7")]))
        problem = load_polynomial_problem(str(path))
        monkeypatch.setattr(mapsnd, "_SAMPLE_ROWS", budget)
        rng = np.random.default_rng(65)
        # at the last row J is finite at x + h_3, and overflows at x + 2*h_3, the order-3 sample i = 2
        last = [2.980978476705309e-09, -2.1894484120474456e-09, 4.9892421977178355e-09]
        x = np.concatenate([rng.uniform(-1e-7, 1e-7, size=(40, 3)), [last]])
        steps = mapsnd.orders_rows(problem, x[-1:], Failures(1), np.array([3]))
        _, at, h = next(itertools.islice(steps, 2, None))  # h_3, the delta after order 2
        assert np.isfinite(problem.jacobian(at + h)).all() and not np.isfinite(problem.jacobian(at + 2 * h)).all()
        iter_map = newton_barycentric(3)
        batched, failures = mapsnd.paths_rows(problem, x, Failures(len(x)), [(3,)])[(3,)]
        fates = Counter()
        for point, row, failure in zip(x, batched, failures.errors):
            try:
                want = vector_map_step(problem, iter_map, point).tobytes()
            except StepFailureError as exc:
                want = f"{type(exc).__name__}: {exc}"
            fates[type(failure).__name__] += 1
            assert (row.tobytes() if failure is None else f"{type(failure).__name__}: {failure}") == want
        assert str(failures.errors[-1]) == f"non-finite evaluation at x={x[-1]!r}"
        assert fates["NoneType"] > 0 and fates["EvaluationError"] > 1


def batched_steps(problem, iter_map, seeds, size):
    """The singular filter and both steps of iter_map as one paths_rows walk, as a scan runs
    them, on batches of size seeds in turn: per seed, the stage that stopped it ("singular",
    "step 1" or "step 2") with its failure's type and message, or the bytes of both next
    points."""
    path = mapsnd.step_orders(iter_map)
    fates = []
    for begin in range(0, len(seeds), size):
        rows = seeds[begin : begin + size]
        nodes = mapsnd.paths_rows(problem, rows, Failures(len(rows)), [(0,), path * 2])
        (_, singular), (first, stepped), (second, failures) = nodes[(0,)], nodes[path], nodes[path * 2]
        for r, (failure, a, b) in enumerate(zip(failures.errors, first, second)):
            if failure is None:
                fates.append((a.tobytes(), b.tobytes()))
            else:
                stage = "singular" if singular.errors[r] else "step 2" if stepped.errors[r] is None else "step 1"
                fates.append((stage, type(failure).__name__, str(failure)))
    return fates


def nonempty_counting_problem(problem, calls):
    """counting_problem whose f and Jacobian fail the test when called with no points."""

    def nonempty(fn):
        def wrapper(points):
            assert math.prod(np.shape(points)[:-1]) > 0, "called with no points"
            return fn(points)

        return wrapper

    problem = counting_problem(problem, calls)
    return dataclasses.replace(problem, f=nonempty(problem.f), jacobian=nonempty(problem.jacobian))


def poisoned_problem(f_at, jacobian_at):
    """f(p) = p / 2 and J = I, except that f is NaN where p[0] is one of f_at and J where it
    is one of jacobian_at, as J is at c in test_undefined_jacobian_at_a_sample.  A bary:1 step
    from x evaluates f and J at x and J at x / 2, and steps to x / 2."""
    return VectorProblem(
        n=2,
        f=lambda p: np.where(np.isin(p[..., 0], f_at)[..., None], np.nan, p / 2),
        jacobian=lambda p: np.where(np.isin(p[..., 0], jacobian_at)[..., None, None], np.nan, np.eye(2)),
    )


class TestBatchSizeIndependence:
    """A seed's next points and failure do not depend on the seeds batched with it."""

    @pytest.mark.parametrize(
        "example, label", [("example1", "t_32"), ("example1", "t_1"), ("example2-coarse", "t_54")]
    )
    def test_batches_of_1_7_and_all(self, example, label):
        problem_name, nx, ny, _, map_table = REPRODUCE_SETUPS[example]
        problem = vector_problem(problem_name)
        iter_map = parse_map_spec(dict((row[0], row[1]) for row in map_table)[label])
        seeds = make_grid(GridSpec(domain=problem.domain, nx=nx, ny=ny))
        whole = batched_steps(problem, iter_map, seeds, len(seeds))
        assert batched_steps(problem, iter_map, seeds, 7) == whole
        assert batched_steps(problem, iter_map, seeds, 1) == whole
        # most seeds step on; on Ackley the origin seed, at least, fails
        failed = sum(len(fate) == 3 for fate in whole)
        assert failed < len(seeds) / 2 and (failed > 0) == (problem_name == "ackley")
        # and a batch of none steps to none
        path = mapsnd.step_orders(iter_map)
        assert mapsnd.paths_rows(problem, seeds[:0], Failures(0), [path])[path][0].shape == (0, 2)

    def test_rows_stopping_at_each_stage(self):
        # one seed per letter: F and S stop in the singular filter at f and
        # at J, 1 in step 1 at J(x / 2), G and 2 in step 2 at f(x / 2) and at
        # J(x / 4), and L steps on.  Batches of 2, 3 and all put stopped rows
        # first, last and side by side, and some batches have no live row
        # left; a row stopped at f is not evaluated at J
        pattern = "FL1S12GL2LSG"
        x0 = [2.0 * r + 1.0 for r in range(len(pattern))]

        def at(divisors):
            return [x / divisors[c] for x, c in zip(x0, pattern) if c in divisors]

        problem = poisoned_problem(at({"F": 1.0, "G": 2.0}), at({"S": 1.0, "1": 2.0, "2": 4.0}))
        seeds = np.array([[x, 1.0] for x in x0])
        iter_map = parse_map_spec("bary:1")
        fates, calls = [], []
        for size in (1, 2, 3, len(seeds)):
            calls.append(Counter())
            fates.append(batched_steps(nonempty_counting_problem(problem, calls[-1]), iter_map, seeds, size))
        assert fates[1:] == fates[:1] * 3
        letters = {"singular": "FS", "step 1": "1", "step 2": "G2"}
        for c, fate in zip(pattern, fates[0]):
            assert c in letters[fate[0]] if len(fate) == 3 else c == "L"
        # per seed, f and J points: F 1 and 0, S 1 and 1, 1: 1 and 2, G 2 and 2,
        # 2 and L 2 and 4.  A count above these is a call on a stopped row
        assert calls[1:] == calls[:1] * 3
        assert calls[0] == {"f": 1 + 2 + 2 + 2 * 2 + 5 * 2, "jacobian": 2 + 2 * 2 + 2 * 2 + 5 * 4}

    @pytest.mark.parametrize("spec", ["bary:2", "compose:bary:2,bary:1"])
    def test_overflowing_polynomial(self, tmp_path, spec):
        # seeds on a zero coordinate are singular (11 in a row, so one batch
        # of 7 holds only them), and the others stop in step 1 or step 2
        problem = load_polynomial_problem(str(write_seventh_power_file(tmp_path / "seventh.poly")))
        seeds = make_grid(GridSpec(domain=problem.domain, nx=11, ny=11))
        iter_map = parse_map_spec(spec)
        fates, calls = [], []
        for size in (1, 7, len(seeds)):
            calls.append(Counter())
            fates.append(batched_steps(nonempty_counting_problem(problem, calls[-1]), iter_map, seeds, size))
        assert fates[1:] == fates[:1] * 2 and calls[1:] == calls[:1] * 2
        stages = Counter(fate[0] for fate in fates[0])
        assert stages["singular"] == 21 and stages["step 1"] > 0 and stages["step 2"] > 0
        assert all(fates[0][r][0] == "singular" for r in range(56, 63))


def scan_signature(result):
    """What a scan reports: counts, captured grid indices and point bytes, clusters."""
    captured = [(c.grid_i, c.grid_j, c.point.tobytes()) for c in result.captured]
    return result.counts, captured, result.labels.tolist(), result.clusters.tobytes()


def stepped_scans(scans):
    """The scans of one problem on one grid, their maps stepped together by two_steps."""
    problem, config, _ = scans[0]
    stepped = two_steps(problem, config.grid, [iter_map for _, _, iter_map in scans])
    return [scan_signature(run_capture(problem, config, steps)) for (problem, config, _), steps in zip(scans, stepped)]


class TestSharedScans:
    """Scans whose maps are stepped together in one walk, each step level one
    stacked recursion on the rows of every node a step starts from, report what
    their solo scans report, whatever the order of the maps."""

    @pytest.fixture(scope="class")
    def examples(self):
        scans = {example: [param.values for param in reproduce_configs(example)]
                 for example in ("example1", "example2-coarse")}
        solo = {example: [scan_signature(scan_one(*scan)) for scan in scans[example]] for example in scans}
        return scans, solo

    @pytest.mark.parametrize("example", ["example1", "example2-coarse"])
    def test_listed_and_reverse_order(self, examples, example):
        scans, solo = examples
        assert stepped_scans(scans[example]) == solo[example]
        # the start nodes stack in another order, and each row still leaves after its own
        assert stepped_scans(scans[example][::-1]) == solo[example][::-1]

    @pytest.mark.parametrize("example", ["example1", "example2-coarse"])
    def test_one_map_listed_twice(self, examples, example):
        # the duplicate's path is the same trie path, stepped once and read twice
        scans, solo = examples
        twice = [*scans[example][:3], scans[example][-1], *scans[example][3:]]
        assert stepped_scans(twice) == [*solo[example][:3], solo[example][-1], *solo[example][3:]]

    def test_failures_at_higher_orders(self):
        # J is NaN at the order-3 samples x + 3*h_3 of some seeds, which bary:2
        # never evaluates (x + h_3 is t_2(x), where its second step starts):
        # bary:3..5 stop those seeds in their first step and bary:2 keeps them,
        # though one recursion runs the orders of all four first steps
        problem, config, iter_map = reproduce_configs("example1")[5].values
        assert iter_map == newton_barycentric(5)
        # the order-3 samples x + 3*h_3 of the first step, h_3 being the delta after order 2
        size = config.grid.size
        steps = mapsnd.orders_rows(problem, make_grid(config.grid), Failures(size), np.full(size, 3))
        rows, x, h = next(itertools.islice(steps, 2, None))
        assert len(rows) == size
        region = (x + 3 * h)[::37]

        def jacobian(p):
            inside = (p[..., None, :] == region).all(axis=-1).any(axis=-1)
            return np.where(inside[..., None, None], np.nan, problem.jacobian(p))

        poisoned = dataclasses.replace(problem, jacobian=jacobian)
        scans = [(poisoned, config, newton_barycentric(k)) for k in range(2, 6)]
        solo = [scan_signature(scan_one(*scan)) for scan in scans]
        clean = scan_signature(scan_one(problem, config, newton_barycentric(2)))
        assert solo[0] == clean and clean[0].step_failures == 0
        assert [counts.step_failures for counts, *_ in solo[1:]] == [len(region)] * 3
        assert stepped_scans(scans) == solo
        assert stepped_scans(scans[::-1]) == solo[::-1]


MIRROR_MAPS = ["newton", *(f"bary:{k}" for k in range(1, 6)), "compose:bary:2,bary:1", "compose:bary:5,bary:4"]


def mirrored_and_full_steps(box, nx, ny, **declared):
    """two_steps of MIRROR_MAPS for ackley_gradient() with its symmetries (or those declared),
    and for it with none, on an nx x ny grid of box (default the problem's): each with its f
    and J calls, ("f" or "J", rows)."""
    problem = dataclasses.replace(ackley_gradient(), **declared)
    grid = GridSpec(domain=box or problem.domain, nx=nx, ny=ny)
    maps = [parse_map_spec(spec) for spec in MIRROR_MAPS]
    runs = []
    for candidate in (problem, dataclasses.replace(problem, mirror_axes=(), swap_axes=())):
        calls = []
        logged = dataclasses.replace(candidate, f=lambda p, f=candidate.f: calls.append(("f", len(p))) or f(p),
                                     jacobian=lambda p, j=candidate.jacobian: calls.append(("J", len(p))) or j(p))
        runs.append((two_steps(logged, grid, maps), calls))
    return grid, *runs


def assert_same_steps(grid, got, want, stepped):
    """got, the steps and calls of two_steps with symmetries declared, has want's masks, failure
    types and iterates, bit for bit, from stepped seeds; with none copied, the same calls."""
    (got, got_calls), (want, want_calls) = got, want
    for (seeds, singular, first, second, failures), (seeds_, singular_, first_, second_, failures_) in zip(got, want):
        assert seeds.tobytes() == seeds_.tobytes() == make_grid(grid).tobytes()
        assert singular.tobytes() == singular_.tobytes() and failures.live.tobytes() == failures_.live.tobytes()
        assert list(map(type, failures.errors)) == list(map(type, failures_.errors))
        assert (first.tobytes(), second.tobytes()) == (first_.tobytes(), second_.tobytes())
    # the walk starts from the stepped seeds; with nothing copied it makes the same calls
    assert (got_calls[0], want_calls[0]) == (("f", stepped), ("f", grid.size))
    assert (got_calls == want_calls) == (stepped == grid.size)


class TestMirroredSteps:
    """On each axis that a problem mirrors and a grid spans symmetrically, two_steps steps
    only the vertices from the middle index up and copies each other vertex from its mirror
    twin: the singular masks, failures and iterates are those of stepping every vertex."""

    @pytest.mark.parametrize("box, nx, ny, stepped", [
        (None, 41, 41, 21 * 21),
        (None, 20, 20, 10 * 10),  # no vertex on an axis
        (None, 31, 19, 16 * 10),
        (Box((-2.0, -2.0), (2.0, 2.0)), 7, 7, 4 * 4),
        (Box((-3.0, 0.25), (3.0, 4.0)), 13, 9, 7 * 9),  # only x is spanned symmetrically
        (Box((-10.0, -10.0), (10.0, 10.0)), 61, 61, 31 * 31),
        (Box((-3.0, -2.0), (2.5, 3.0)), 11, 11, 11 * 11),  # nothing is
    ])
    def test_same_as_stepping_every_vertex(self, box, nx, ny, stepped):
        assert_same_steps(*mirrored_and_full_steps(box, nx, ny, swap_axes=()), stepped)

    def test_an_image_that_cancels_onto_an_axis_is_positive_zero(self):
        # on the 61x61 grid of +-10, t_54's second iterate from 4 vertices off the axes and left
        # of or below one lands on it by cancellation, at +0.0 (x + (-x)), which their twins'
        # 0.0 - v gives and -v would not
        grid, (got, _), _ = mirrored_and_full_steps(Box((-10.0, -10.0), (10.0, 10.0)), 61, 61)
        seeds, _, _, second, _ = got[MIRROR_MAPS.index("compose:bary:5,bary:4")]
        images = (seeds < 0.0) & (second == 0.0)
        assert images.sum() == 4 and not np.signbit(second[images]).any()


class TestSwappedSteps:
    """If a problem declares the x <-> y swap and a grid's axes have the same bounds and count,
    two_steps steps only the vertices (i, j) with i >= j of those it would step for the mirrors,
    and copies each other vertex from (j, i), columns swapped: the singular masks, failures and
    iterates are those of stepping every vertex with no symmetry declared."""

    @pytest.mark.parametrize("box, nx, ny, declared, stepped", [
        (None, 41, 41, {}, 21 * 22 // 2),
        (None, 20, 20, {}, 10 * 11 // 2),  # no vertex on an axis, 10 on the diagonal
        (Box((-2.0, -2.0), (2.0, 2.0)), 7, 7, {}, 4 * 5 // 2),  # the origin is on the diagonal
        (Box((-10.0, -10.0), (10.0, 10.0)), 61, 61, {}, 31 * 32 // 2),
        (Box((-3.0, -3.0), (2.5, 2.5)), 9, 9, {}, 9 * 10 // 2),  # mirrors nothing, swaps
        (None, 11, 11, {"mirror_axes": ()}, 11 * 12 // 2),  # only the swap is declared
        (None, 31, 19, {}, 16 * 10),  # unequal counts: mirrors, swaps nothing
        (Box((-2.0, -3.0), (2.0, 3.0)), 9, 9, {}, 5 * 5),  # unequal bounds
        (Box((-3.0, -2.0), (2.5, 3.0)), 11, 11, {}, 11 * 11),  # nothing is symmetric
    ])
    def test_same_as_stepping_every_vertex(self, box, nx, ny, declared, stepped):
        assert_same_steps(*mirrored_and_full_steps(box, nx, ny, **declared), stepped)


# Points of f and the Jacobian and linear solves per pass of each reproduce
# example; the README quotes them, and test_readme checks that it does.
REPRODUCE_WORK = {
    "example1": {"jacobian": 28519, "f": 6365, "solves": 14801},
    "example2-coarse": {"jacobian": 3673, "f": 2525, "solves": 1728},
    "example2-fine": {"jacobian": 12421, "f": 2553, "solves": 5060},
}


class TestWorkCounters:
    """The exact work a scan does: the points f and the Jacobian are
    evaluated at, and the linear solves.  The counts repeat bit for bit, so a
    change to the work per seed fails here without any timing noise.

    Per live seed: the singular filter evaluates f and J once and solves
    once; that is the first step's Newton solve.  A bary:k step from x
    evaluates f at x, J at 1 + k(k+1)/2 points (x, then i = 1..j for each
    model matrix j = 1..k; J(x) is each matrix's i = 0 term) and solves
    k + 1 times.  compose:bary:3,bary:2 is 11 J points and 7 solves a step,
    so two steps from a seed are 22 J points, 4 f points and 14 solves;
    the residual test evaluates f once more."""

    @staticmethod
    def count_solves(counts, monkeypatch):
        # one solve per live row passed to the batched solve (failures.errors[r] is None)
        def solve_rows(a, b, failures, solve=mapsnd.solve_rows):
            counts["solves"] += failures.live.sum()
            return solve(a, b, failures)

        monkeypatch.setattr(mapsnd, "solve_rows", solve_rows)

    def scan_counts(self, problem, spec, grid, eps, monkeypatch):
        counts = Counter()
        problem = counting_problem(problem, counts)
        self.count_solves(counts, monkeypatch)
        config = CaptureConfig(grid=GridSpec(domain=problem.domain, nx=grid, ny=grid), tolerance=eps)
        result = scan_one(problem, config, parse_map_spec(spec))
        return dict(counts, seeds=result.counts.seeded, captured=result.counts.captured)

    def test_example1_t32(self, monkeypatch):
        counts = self.scan_counts(rutishauser(), "compose:bary:3,bary:2", 19, 1e-3, monkeypatch)
        # every seed steps twice: 361 * 22 J, 361 * 4 f + 300 residuals, 361 * 14 solves
        assert counts == {"seeds": 361, "jacobian": 7942, "f": 1744, "solves": 5054, "captured": 156}

    def test_example2_fine_t54(self, monkeypatch):
        # bary:5 then bary:4 is 27 J points and 11 solves a step.  Ackley mirrors both axes and
        # swaps them, so only the 21 * 22 / 2 seeds (x, y) with x >= y >= 0 step, and the others
        # copy them (see capture.two_steps).  The origin seed is singular after its f and J:
        # 230 * 54 + 1 J, 230 * 4 + 1 f + 1632 residuals (those are at every seed), 230 * 22 solves
        counts = self.scan_counts(ackley_gradient(), "compose:bary:5,bary:4", 41, 0.1, monkeypatch)
        assert counts == {"seeds": 1681, "jacobian": 12421, "f": 2553, "solves": 5060, "captured": 1600}

    def test_polynomial_file(self, tmp_path, monkeypatch):
        problem = load_polynomial_problem(str(write_random_gradient_file(tmp_path / "p.poly", 61)))
        counts = self.scan_counts(problem, "compose:bary:2,bary:1", 11, 1e-3, monkeypatch)
        # compose:bary:2,bary:1 is 6 J points and 5 solves a step: 121 * 12 J, 121 * 10 solves
        assert counts == {"seeds": 121, "jacobian": 1452, "f": 592, "solves": 1210, "captured": 78}

    @pytest.mark.parametrize("example, work", list(REPRODUCE_WORK.items()))
    def test_reproduce_examples(self, example, work, monkeypatch):
        # the maps of one example step together, level by level (see
        # capture.two_steps): each level steps every distinct start node once,
        # to the highest order any map asks of it.  A bary:k step from a live
        # point is 1 f, 1 + k(k+1)/2 J and k + 1 solves.  example1, per seed:
        # level 1 the seeds to order 5: 16 J, 1 f, 6 solves.  Level 2 from
        # t_0..t_5(x) to orders 0, 2 (t_1's second step, t_21's outer one),
        # 3 (t_2's, t_32's), 3, 4 and 5: 1 + 4 + 7 + 7 + 11 + 16 = 46 J, 6 f,
        # 1 + 3 + 4 + 4 + 5 + 6 = 23 solves.  Levels 3 and 4, the second steps
        # of t_21 and t_32: bary:1 and bary:2 (6 J, 2 f, 5 solves), then bary:2
        # and bary:3 (11 J, 2 f, 7 solves).  361 * 79 J, 361 * 11 f + 2394
        # residuals, 361 * 41 solves.  example2-coarse (t_0..t_4, t_54 from
        # bary:4 and bary:5), per live seed: level 1 to order 4: 11 J, 1 f, 5
        # solves; level 2 from t_0..t_4(x) to orders 0, 1, 2, 3 and 5: 30 J,
        # 5 f, 16 solves; levels 3 and 4, bary:4 and bary:5: 27 J, 2 f, 11
        # solves.  Ackley mirrors both axes and swaps them, so only the
        # 10 * 11 / 2 seeds (x, y) with x >= y >= 0 step.  The origin seed is
        # singular after its f and J, so 54 * 68 + 1 J, 54 * 8 + 1 f + 2092
        # residuals (at every seed) and 54 * 32 solves.  example2-fine has one
        # map, which steps as a scan of it alone does
        counts = Counter()
        problem = counting_problem(vector_problem(REPRODUCE_SETUPS[example][0]), counts)
        monkeypatch.setattr(cli, "vector_problem", lambda name: problem)
        self.count_solves(counts, monkeypatch)
        cli._reproduce_report(example, DEFAULT_CLUSTER_RADIUS)
        assert counts == work

    def test_example1_batched_jacobian_calls(self, monkeypatch):
        # one call per order of each level's stacked recursion, its samples stacked in calls
        # of at most 2048 points: orders 0..5 from the 361 seeds (6 calls); from t_0..t_5(x),
        # order 0 at 2166 points, then 5, 5, 4, 2 and 1 nodes to orders 1..5 (1 + 1 + 2 + 3 +
        # 2 + 1 calls); then orders 0..2 (bary:1 and bary:2 steps, 3 calls) and orders 0..3
        # (bary:2 and bary:3 steps, 4 calls)
        calls = []
        problem = vector_problem("rutishauser")
        logged = dataclasses.replace(problem, jacobian=lambda p: calls.append(len(p)) or problem.jacobian(p))
        monkeypatch.setattr(cli, "vector_problem", lambda name: logged)
        cli._reproduce_report("example1", DEFAULT_CLUSTER_RADIUS)
        assert len(calls) == 6 + 10 + 3 + 4 and sum(calls) == REPRODUCE_WORK["example1"]["jacobian"]
