import numpy as np
import pytest

from rootmaps import (
    Box,
    CaptureConfig,
    GridSpec,
    VectorProblem,
    cluster_points,
    make_grid,
    newton_barycentric,
    newton_map,
    run_capture,
    vector_map_step,
)
from rootmaps.problems import ackley_gradient, rutishauser


def affine_problem():
    a = np.array([[3.0, 1.0], [1.0, 2.0]])
    c = np.array([1.0, -1.0])
    return VectorProblem(
        n=2,
        f=lambda x: a @ x - c,
        jacobian=lambda x: a.copy(),
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


class TestClusterPoints:
    def test_identical_points_form_one_cluster(self):
        points = [np.array([0.5, 0.5])] * 7
        clusters = cluster_points(points, 1e-3)
        assert len(clusters) == 1
        assert clusters[0].count == 7
        assert clusters[0].members == tuple(range(7))

    def test_distant_points_stay_separate(self):
        clusters = cluster_points([np.zeros(2), np.array([3e-3, 0.0])], 1e-3)
        assert len(clusters) == 2

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
        clusters = cluster_points(points, 1e-4)
        assert len(clusters) == 3
        assert sorted(c.count for c in clusters) == [6, 6, 6]
        for cluster in clusters:
            nearest = min(np.linalg.norm(cluster.representative - c) for c in centers)
            assert nearest <= 1e-7

    def test_representative_is_member_mean(self):
        points = [np.array([0.0, 0.0]), np.array([1e-4, 0.0])]
        clusters = cluster_points(points, 1e-3)
        assert clusters[0].representative == pytest.approx([5e-5, 0.0], abs=1e-18)

    def test_rejects_nonpositive_radius(self):
        for radius in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                cluster_points([np.zeros(2)], radius)


class TestRunCapture:
    def test_affine_every_seed_captures_the_zero(self):
        problem = affine_problem()
        zero = np.linalg.solve([[3.0, 1.0], [1.0, 2.0]], [1.0, -1.0])
        config = CaptureConfig(
            grid=GridSpec(domain=problem.domain, nx=9, ny=9),
            tolerance=1e-8,
            map=newton_map(),
        )
        result = run_capture(problem, config)
        assert result.counts.captured == 81
        assert result.counts.skipped_singular == 0
        assert len(result.clusters) == 1
        assert result.clusters[0].representative == pytest.approx(zero, abs=1e-12)

    def test_counts_partition_the_seeds(self):
        problem = rutishauser()
        config = CaptureConfig(
            grid=GridSpec(domain=problem.domain, nx=7, ny=7),
            tolerance=1e-3,
            map=newton_barycentric(1),
        )
        counts = run_capture(problem, config).counts
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
            map=newton_barycentric(2),
        )
        result = run_capture(problem, config)
        assert result.counts.captured > 0
        for captured in result.captured:
            assert np.max(np.abs(problem.f(captured.point))) <= 1e-3
            assert captured.fnorm <= 1e-3
            assert captured.objective is not None

    def test_tolerance_monotonicity(self):
        problem = rutishauser()
        grid = GridSpec(domain=problem.domain, nx=9, ny=9)
        spec = newton_barycentric(1)
        loose = run_capture(problem, CaptureConfig(grid=grid, tolerance=1e-3, map=spec))
        tight = run_capture(problem, CaptureConfig(grid=grid, tolerance=1e-5, map=spec))
        tight_keys = {(c.grid_i, c.grid_j) for c in tight.captured}
        loose_keys = {(c.grid_i, c.grid_j) for c in loose.captured}
        assert tight_keys <= loose_keys

    def test_ackley_origin_seed_skipped_as_singular(self):
        problem = ackley_gradient()
        config = CaptureConfig(
            grid=GridSpec(domain=problem.domain, nx=3, ny=3),
            tolerance=1e-3,
            map=newton_map(),
        )
        result = run_capture(problem, config)
        assert result.counts.skipped_singular >= 1

    def test_two_iterations_reproduce_step_sequence(self):
        problem = rutishauser()
        t1 = newton_barycentric(1)
        config = CaptureConfig(
            grid=GridSpec(domain=problem.domain, nx=9, ny=9), tolerance=1e-3, map=t1
        )
        result = run_capture(problem, config)
        assert result.captured
        for captured in result.captured:
            first = vector_map_step(problem, t1, captured.seed)
            second = vector_map_step(problem, t1, first.next)
            assert np.array_equal(captured.point, second.next)

    @pytest.mark.parametrize("jacobian_at_zero", [np.zeros((2, 2)), np.full((2, 2), np.nan)])
    def test_failed_steps_are_tallied_as_step_failures(self, jacobian_at_zero):
        # f(x) = x: Newton sends every seed to the origin in one step, where
        # the Jacobian is singular (SingularModelError) or undefined
        # (EvaluationError); the origin seed itself fails the seed check
        problem = VectorProblem(
            n=2,
            f=lambda p: p.copy(),
            jacobian=lambda p: jacobian_at_zero if not p.any() else np.eye(2),
            domain=Box(lo=(-1.0, -1.0), hi=(1.0, 1.0)),
        )
        config = CaptureConfig(
            grid=GridSpec(domain=problem.domain, nx=3, ny=3), tolerance=1e-3, map=newton_map()
        )
        counts = run_capture(problem, config).counts
        assert (counts.seeded, counts.skipped_singular, counts.step_failures) == (9, 1, 8)

    def test_thread_fanout_is_deterministic(self):
        problem = rutishauser()
        config = CaptureConfig(
            grid=GridSpec(domain=problem.domain, nx=11, ny=11),
            tolerance=1e-3,
            map=newton_barycentric(2),
        )
        sequential = run_capture(problem, config, threads=1)
        fanned = run_capture(problem, config, threads=5)
        auto = run_capture(problem, config, threads=0)
        for other in (fanned, auto):
            assert other.counts == sequential.counts
            assert len(other.captured) == len(sequential.captured)
            for a, b in zip(sequential.captured, other.captured):
                assert (a.grid_i, a.grid_j) == (b.grid_i, b.grid_j)
                assert np.array_equal(a.point, b.point)
                assert a.fnorm == b.fnorm

    def test_captured_list_ordered_by_grid_index(self):
        problem = rutishauser()
        config = CaptureConfig(
            grid=GridSpec(domain=problem.domain, nx=9, ny=9),
            tolerance=1e-3,
            map=newton_barycentric(1),
        )
        result = run_capture(problem, config, threads=3)
        keys = [(c.grid_i, c.grid_j) for c in result.captured]
        assert keys == sorted(keys)

    def test_config_validation(self):
        problem = affine_problem()
        grid = GridSpec(domain=problem.domain, nx=3, ny=3)
        with pytest.raises(ValueError):
            CaptureConfig(grid=grid, tolerance=0.0, map=newton_map())
        with pytest.raises(ValueError):
            CaptureConfig(grid=grid, tolerance=1e-3, map=newton_map(), cluster_radius=-1.0)
        with pytest.raises(ValueError):
            CaptureConfig(grid=grid, tolerance=1e-3, map=newton_map(), norm="l7")
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                CaptureConfig(grid=grid, tolerance=bad, map=newton_map())
            with pytest.raises(ValueError):
                CaptureConfig(grid=grid, tolerance=1e-3, map=newton_map(), cluster_radius=bad)

    def test_overflowing_iterates_are_counted_not_raised(self):
        # steep polynomial: f = x^7 - 2 + 0*y-ish second component, iterates
        # from far seeds overflow float powers
        problem = VectorProblem(
            n=2,
            f=lambda p: np.array([float(p[0]) ** 7 - 2.0, float(p[1]) ** 7 + float(p[0])]),
            jacobian=lambda p: np.array(
                [[7.0 * float(p[0]) ** 6, 0.0], [1.0, 7.0 * float(p[1]) ** 6]]
            ),
            domain=Box(lo=(-1e40, -1e40), hi=(1e40, 1e40)),
        )
        config = CaptureConfig(
            grid=GridSpec(domain=problem.domain, nx=3, ny=3),
            tolerance=1e-3,
            map=newton_map(),
        )
        counts = run_capture(problem, config).counts
        assert counts.seeded == 9
        assert counts.seeded == (
            counts.skipped_singular
            + counts.step_failures
            + counts.skipped_outside
            + counts.rejected_tolerance
            + counts.captured
        )

    def test_euclidean_norm_is_stricter(self):
        problem = rutishauser()
        grid = GridSpec(domain=problem.domain, nx=9, ny=9)
        spec = newton_barycentric(1)
        by_max = run_capture(problem, CaptureConfig(grid=grid, tolerance=1e-3, map=spec))
        by_euclid = run_capture(
            problem, CaptureConfig(grid=grid, tolerance=1e-3, map=spec, norm="euclidean")
        )
        euclid_keys = {(c.grid_i, c.grid_j) for c in by_euclid.captured}
        max_keys = {(c.grid_i, c.grid_j) for c in by_max.captured}
        assert euclid_keys <= max_keys
