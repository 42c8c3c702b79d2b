import dataclasses
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rootmaps import (
    Box,
    CaptureConfig,
    GridSpec,
    EvaluationError,
    SingularModelError,
    VectorProblem,
    barycentric_coefficients,
    compose,
    newton_barycentric,
    newton_map,
    newton_taylor,
    run_capture,
    rutishauser,
    two_steps,
    vector_map_step,
)
from rootmaps.maps1d import ScalarProblem, barycentric_model
from rootmaps import mapsnd
from rootmaps.mapsnd import PIVOT_RTOL, Failures, _model_matrix, evaluate_rows, solve_rows
from rootmaps.problems import ackley_gradient, load_polynomial_problem
from test_problems import write_random_gradient_file


def constant(value):
    """The array-in callable with the same value at every point."""
    value = np.asarray(value, dtype=float)
    return lambda x: np.broadcast_to(value, (*np.shape(x)[:-1], *value.shape))


def affine_problem(a, c):
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    return VectorProblem(
        n=len(c),
        f=lambda x: x @ a.T - c,
        jacobian=constant(a),
        domain=Box(lo=(-10.0, -10.0), hi=(10.0, 10.0)),
        name="affine",
    )


def one_row(engine, *row):
    """engine(*(a[None] for a in row), failures) on a batch of one: the row's value, or its failure raised."""
    failures = Failures(1)
    value = engine(*(np.asarray(a, dtype=float)[None] for a in row), failures)
    if failures.errors[0] is not None:
        raise failures.errors[0]
    return value[0]


def solve(matrix, rhs):
    """solve_rows on one (n, n) system."""
    return one_row(solve_rows, matrix, rhs)


def model_matrix(problem, coeffs, h, x):
    """The model matrix sum_i a_i * J_f(x + i*h) at one point, from _model_matrix with J_f(x)."""

    def assemble(h, x, failures):
        jx = evaluate_rows(problem.jacobian, (problem.n,) * 2, x, failures)
        return _model_matrix(problem, coeffs.floats, h, x, jx, failures)

    return one_row(assemble, h, x)


AFFINE = affine_problem([[3.0, 1.0], [1.0, 2.0]], [1.0, -1.0])
AFFINE_ZERO = np.linalg.solve([[3.0, 1.0], [1.0, 2.0]], [1.0, -1.0])


class TestLuSolve:
    def test_matches_numpy_on_random_systems(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 5):
            for _ in range(25):
                a = rng.normal(size=(n, n))
                b = rng.normal(size=n)
                assert solve(a, b) == pytest.approx(np.linalg.solve(a, b), rel=1e-10)

    def test_scaled_residual_bound(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a = rng.normal(size=(2, 2))
            b = rng.normal(size=2)
            x = solve(a, b)
            residual = np.max(np.abs(a @ x - b))
            assert residual <= 1e-9 * (np.max(np.abs(a)) * np.max(np.abs(x)) + np.max(np.abs(b)))

    def test_singular_matrix_raises(self):
        with pytest.raises(SingularModelError):
            solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))
        with pytest.raises(SingularModelError):
            solve(np.zeros((3, 3)), np.ones(3))

    def test_overflowing_row_norms_raise_singular_model(self):
        # the numpy path's row sums overflow to inf: a step failure, not a
        # numpy warning (the 2x2 cases are in TestTwoByTwoKernel)
        with pytest.raises(SingularModelError, match="non-finite row norms"):
            solve(np.full((3, 3), 1e308), np.ones(3))

    def test_three_component_f_on_a_2d_problem_raises(self):
        # f returns one component more than the Jacobian has rows
        problem = VectorProblem(
            n=2, f=lambda x: np.concatenate([x, x[..., :1]], axis=-1), jacobian=constant(np.eye(2))
        )
        with pytest.raises(ValueError, match="shapes"):
            vector_map_step(problem, newton_map(), np.array([0.5, 0.5]))


def _reference_lu_solve_2x2(matrix, rhs):
    """The 2x2 branch of the one-system solve on numpy arrays, as it was before the 2-D
    kernel: the oracle of that kernel's bits and of its failures.  A zero
    determinant is singular also where the pivot floor underflows; before,
    the division raised ZeroDivisionError there.  The pivots are tested in
    either column order, so that swapping the axes keeps each decision."""
    a = np.array(matrix, dtype=float)
    b = np.array(rhs, dtype=float)
    with np.errstate(over="ignore"):
        scale = float(np.abs(a).sum(axis=1).max())
    pivot_floor = PIVOT_RTOL * scale
    if scale == 0.0 or not np.isfinite(scale):
        raise SingularModelError("matrix has zero or non-finite row norms")
    m00, m01 = float(a[0, 0]), float(a[0, 1])
    m10, m11 = float(a[1, 0]), float(a[1, 1])
    det = m00 * m11 - m01 * m10
    for pivot1 in (max(abs(m00), abs(m10)), max(abs(m11), abs(m01))):
        if pivot1 < pivot_floor or abs(det) < pivot_floor * pivot1 or det == 0.0:
            raise SingularModelError(f"2x2 pivots below floor {pivot_floor:.3e}")
    b0, b1 = float(b[0]), float(b[1])
    return np.array([(b0 * m11 - m01 * b1) / det, (m00 * b1 - m10 * b0) / det])


def _reference_eliminate(matrix, rhs):
    """One n x n system by Gaussian elimination with partial pivoting, each back-substitution
    sum taken left to right from 0.0: the oracle of solve_rows' bits and failures for n != 2."""
    with np.errstate(all="ignore"):
        a, b = np.array(matrix, dtype=float), np.array(rhs, dtype=float)
        n = len(b)
        scale = float(np.abs(a).sum(axis=1).max())
        pivot_floor = PIVOT_RTOL * scale
        if scale == 0.0 or not np.isfinite(scale):
            raise SingularModelError("matrix has zero or non-finite row norms")
        for col in range(n):
            piv = col + int(np.argmax(np.abs(a[col:, col])))
            pivot = abs(a[piv, col])
            if pivot < pivot_floor or pivot == 0.0:
                raise SingularModelError(f"pivot {pivot:.3e} below floor {pivot_floor:.3e}")
            a[[col, piv]] = a[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
            for r in range(col + 1, n):
                factor = a[r, col] / a[col, col]
                if factor != 0.0:
                    a[r, col + 1 :] -= factor * a[col, col + 1 :]
                    b[r] -= factor * b[col]
        x = np.zeros(n)
        for r in range(n - 1, -1, -1):
            total = 0.0
            for c in range(r + 1, n):
                total += a[r, c] * x[c]
            x[r] = (b[r] - total) / a[r, r]
        return x


def _reference_model_matrix(problem, coeffs, h, x):
    """The model matrix summed in numpy, the oracle of _model_matrix's bits."""
    phi = np.zeros((problem.n, problem.n))
    for i, a_i in enumerate(coeffs.floats):
        phi += a_i * np.asarray(problem.jacobian(x + i * h), dtype=float)
    return phi


ROW_NORMS = "SingularModelError: matrix has zero or non-finite row norms"
PIVOTS = "SingularModelError: 2x2 pivots below floor"


def solve_outcome(solve, matrix, rhs):
    """The bytes of the solution, or the failure message."""
    try:
        return solve(matrix, rhs).tobytes()
    except SingularModelError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestBatchedElimination:
    """solve_rows for n != 2 eliminates every row at once; each live row is the one-system
    elimination bit for bit, and each failure has the same type and message."""

    @pytest.mark.parametrize("n", [1, 3, 4, 5])
    def test_matches_one_system_at_a_time(self, n):
        rng = np.random.default_rng(60 + n)
        size = 600
        a = rng.normal(size=(size, n, n)) * 10.0 ** rng.integers(-3, 3, size=(size, n, n))
        a[rng.random((size, n, n)) < 0.15] = rng.choice([0.0, -0.0])  # factors of zero, and zero pivots
        a[:40] *= 10.0 ** rng.integers(-160, 160, size=(40, 1, 1))  # overflow, and floors that underflow
        a[40:80, -1] = a[40:80, 0] * rng.choice([1.0, -2.0, 1e-13], size=(40, 1))  # singular or nearly so
        a[80:100] = rng.choice([0.0, -0.0], size=(20, n, n))  # zero row norms
        a[100:130, rng.integers(0, n, 30), rng.integers(0, n, 30)] = rng.choice([np.nan, np.inf, -np.inf, 1e308], size=30)
        b = rng.normal(size=(size, n)) * 10.0 ** rng.integers(-20, 20, size=(size, n))
        b[rng.random((size, n)) < 0.15] = rng.choice([0.0, -0.0])  # zeros whose sign a step must keep
        failures = Failures(size)
        earlier = [EvaluationError(f"failed before, row {r}") for r in range(130, 160)]
        failures.put(np.arange(130, 160), earlier)
        x = solve_rows(a, b, failures)
        want = [solve_outcome(_reference_eliminate, a[r], b[r]) for r in range(size)]
        got = [x[r].tobytes() if error is None else f"{type(error).__name__}: {error}"
               for r, error in enumerate(failures.errors)]
        assert list(failures.errors[130:160]) == earlier
        assert got[:130] + got[160:] == want[:130] + want[160:]
        live = sum(isinstance(outcome, bytes) for outcome in got)
        assert size / 2 < live < size - 60  # most rows are solved
        # every kind of failure occurs; one pivot is the whole row norm when n is 1
        kinds = {outcome.split(" ")[1] for outcome in got if isinstance(outcome, str) and "Singular" in outcome}
        assert kinds == ({"matrix", "pivot"} if n > 1 else {"matrix"})


class TestTwoByTwoKernel:
    """The float kernel against the numpy code it replaces, bit for bit."""

    def test_solve_matches_reference_on_random_systems(self):
        rng = np.random.default_rng(51)
        for _ in range(2000):
            matrix = rng.normal(size=(2, 2)) * 10.0 ** rng.integers(-160, 160, size=(2, 2))
            matrix[rng.random((2, 2)) < 0.1] = rng.choice([0.0, -0.0])
            rhs = rng.normal(size=2) * 10.0 ** rng.integers(-20, 20, size=2)
            assert solve_outcome(solve, matrix, rhs) == solve_outcome(
                _reference_lu_solve_2x2, matrix, rhs
            )

    @pytest.mark.parametrize(
        "matrix,failure",
        [
            ([[0.0, 0.0], [0.0, -0.0]], ROW_NORMS),
            ([[1e308, 1e308], [1.0, 1.0]], ROW_NORMS),  # a row sum overflows to inf
            ([[1.0, 1.0], [-1e308, 1e308]], ROW_NORMS),
            ([[np.nan, 1.0], [1.0, 1.0]], ROW_NORMS),
            ([[1.0, 1.0], [1.0, np.nan]], ROW_NORMS),
            ([[np.inf, 1.0], [1.0, 1.0]], ROW_NORMS),
            ([[1e-13, 1.0], [-1e-13, 1.0]], PIVOTS),  # first pivot below the floor
            ([[0.0, 1.0], [np.nextafter(1e-12, 0.0), 0.5]], PIVOTS),
            ([[0.0, 1.0], [1e-12, 0.5]], None),  # first pivot exactly at the floor
            ([[1.0, 2.0], [2.0, 4.0]], PIVOTS),  # determinant below the floor
            ([[1.0, 2.0], [2.0, 4.0 + 1e-14]], PIVOTS),
            ([[1.0, 0.0], [0.0, np.nextafter(1e-12, 0.0)]], PIVOTS),
            ([[1.0, 0.0], [0.0, 1e-12]], None),  # determinant exactly at the floor
            ([[1.0, 2.0], [2.0, 4.0 + 1e-10]], None),
        ],
    )
    def test_each_failure_raises_on_the_same_inputs(self, matrix, failure):
        matrix = np.array(matrix)
        rhs = np.array([1.0, -2.0])
        got = solve_outcome(solve, matrix, rhs)
        assert got == solve_outcome(_reference_lu_solve_2x2, matrix, rhs)
        assert got.startswith(failure) if failure else isinstance(got, bytes)

    def test_zero_determinant_passing_the_pivot_test(self):
        # pivot_floor * pivot1 underflows to 0.0, so det = 0.0 is not below
        # it; the zero determinant is singular all the same
        matrix, rhs = np.array([[1e-160, 0.0], [0.0, 0.0]]), np.ones(2)
        assert solve_outcome(solve, matrix, rhs) == solve_outcome(_reference_lu_solve_2x2, matrix, rhs)
        assert solve_outcome(solve, matrix, rhs).startswith(PIVOTS)
        # in a batch, only that row fails
        failures = Failures(2)
        x = solve_rows(np.stack([matrix, np.eye(2)]), np.ones((2, 2)), failures)
        assert isinstance(failures.errors[0], SingularModelError) and failures.errors[1] is None
        assert x[1].tolist() == [1.0, 1.0]

    def test_a_swapped_batch_gives_swapped_solutions_and_the_same_failures(self):
        # exchanging the axes (m00 <-> m11, m01 <-> m10, b0 <-> b1) swaps each live row's
        # solution, bit for bit, and fails the same rows with the same messages
        rng = np.random.default_rng(55)
        a = rng.normal(size=(2000, 2, 2)) * 10.0 ** rng.integers(-160, 160, size=(2000, 2, 2))
        # matrices that one column order's pivot tests pass and the other's fail: a second
        # column below the floor, whose elimination leaves a pivot above it, and a
        # determinant that overflows to inf, where the first pivot is above the floor
        disagree = np.array([[[1.0, -0.9e-12], [1.0, 0.9e-12]], [[1e300, 0.0], [0.0, 1e10]]])

        def first_order_passes(m):
            (m00, m01), (m10, m11) = m.tolist()
            floor = PIVOT_RTOL * max(abs(m00) + abs(m01), abs(m10) + abs(m11))
            det, pivot1 = m00 * m11 - m01 * m10, max(abs(m00), abs(m10))
            return not (pivot1 < floor or abs(det) < floor * pivot1 or det == 0.0)

        assert [first_order_passes(m) for m in disagree] == [True, True]
        assert [first_order_passes(m[::-1, ::-1]) for m in disagree] == [False, False]
        a = np.concatenate([a, disagree, disagree[:, ::-1, ::-1]])
        b = rng.normal(size=(len(a), 2))
        failures, swapped = Failures(len(a)), Failures(len(a))
        x, y = solve_rows(a, b, failures), solve_rows(a[:, ::-1, ::-1], b[:, ::-1], swapped)
        assert failures.live.tobytes() == swapped.live.tobytes()
        assert 0 < failures.live.sum() < len(a) - 4 and not failures.live[-4:].any()
        assert described(failures.errors) == described(swapped.errors)
        assert x[failures.live].tobytes() == y[failures.live][:, ::-1].tobytes()

    def test_zero_pivot_passing_the_floor_on_the_elimination_path(self):
        matrix = np.zeros((3, 3))
        matrix[0, 0] = 1e-160
        with pytest.raises(SingularModelError, match="pivot 0.000e"):
            solve(matrix, np.ones(3))

    @pytest.mark.parametrize("name", ["rutishauser", "ackley", "gradient", "asymmetric"])
    def test_model_matrix_matches_numpy_assembly(self, name, tmp_path):
        if name == "rutishauser":
            problem = rutishauser()
        elif name == "ackley":
            problem = ackley_gradient()
        else:
            path = tmp_path / "p.poly"
            if name == "gradient":
                write_random_gradient_file(path, 52)
            else:
                # not a gradient, so the Jacobian is not symmetric
                path.write_text("domain -1 1 -1 1\npoly 2 : 1.5 2 1 ; -0.5 0 3\npoly 2 : 0.7 3 0 ; -2 0 1\n")
            problem = load_polynomial_problem(str(path))
        lo, hi = np.array(problem.domain.lo), np.array(problem.domain.hi)
        rng = np.random.default_rng(53)
        for _ in range(100):
            x = rng.uniform(lo, hi)
            h = rng.normal(size=2) * 10.0 ** rng.integers(-8, 1)
            h[rng.random(2) < 0.1] = rng.choice([0.0, -0.0])
            for k in range(6):
                coeffs = barycentric_coefficients(k)
                got = model_matrix(problem, coeffs, h, x)
                expected = _reference_model_matrix(problem, coeffs, h, x)
                assert got.tobytes() == expected.tobytes()
                rhs = rng.normal(size=2)
                assert solve_outcome(solve, got, rhs) == solve_outcome(_reference_lu_solve_2x2, got, rhs)

    def test_model_matrix_through_an_undefined_sample(self):
        # the i = 1 sample of x = -h is Ackley's origin, where J is NaN: the
        # assembly fails at that sample, where the sum would be NaN
        problem = ackley_gradient()
        h = np.array([0.25, -0.5])
        with pytest.raises(EvaluationError, match=re.escape(f"non-finite evaluation at x={-h!r}")):
            model_matrix(problem, barycentric_coefficients(2), h, -h)
        assert np.isnan(_reference_model_matrix(problem, barycentric_coefficients(2), h, -h)).all()


class TestValueShapes:
    """For N points, f values must have shape (N, n) and Jacobian values
    (N, n, n); anything else is a ValueError naming both shapes, never an
    EvaluationError."""

    @staticmethod
    def problem(n, jacobian, f=None):
        return VectorProblem(n=n, f=f or (lambda x: x - 0.5), jacobian=jacobian)

    @pytest.mark.parametrize("n", [2, 3])
    def test_flat_jacobian_raises(self, n):
        problem = self.problem(n, lambda x: np.ones(x.shape))
        message = re.escape(f"expected {(1, n, n)}, got {(1, n)}")
        x = np.full(n, 0.25)
        with pytest.raises(ValueError, match=message):
            vector_map_step(problem, newton_map(), x)
        with pytest.raises(ValueError, match=message):
            vector_map_step(problem, newton_barycentric(2), x)
        with pytest.raises(ValueError, match=message):
            model_matrix(problem, barycentric_coefficients(2), np.full(n, 0.1), x)

    @pytest.mark.parametrize("n", [2, 3])
    def test_wrong_jacobian_at_a_later_sample_raises(self, n):
        # J is right at x and flat at x + h: the assembly raises, unfolded
        identity = constant(np.eye(n))
        problem = self.problem(n, lambda p: identity(p) if (p[..., 0] < 0.3).all() else np.ones(p.shape))
        with pytest.raises(ValueError, match=re.escape(f"expected {(1, n, n)}, got {(1, n)}")):
            vector_map_step(problem, newton_barycentric(1), np.full(n, 0.25))

    @pytest.mark.parametrize("n", [2, 3])
    def test_mis_shaped_f_raises(self, n):
        problem = self.problem(n, constant(np.eye(n)), f=lambda x: x[..., None] - 0.5)
        with pytest.raises(ValueError, match=re.escape(f"expected {(1, n)}, got {(1, n, 1)}")):
            vector_map_step(problem, newton_barycentric(1), np.full(n, 0.25))

    def test_scan_raises_instead_of_tallying(self):
        problem = VectorProblem(
            n=2, f=lambda x: x - 0.5, jacobian=np.ones_like, domain=Box(lo=(0.0, 0.0), hi=(1.0, 1.0))
        )
        grid = GridSpec(domain=problem.domain, nx=3, ny=3)
        config = CaptureConfig(grid=grid, tolerance=1e-3)
        with pytest.raises(ValueError, match=re.escape("expected (9, 2, 2), got (9, 2)")):
            run_capture(problem, config, *two_steps(problem, grid, [newton_map()]))

    def test_mis_shaped_objective_raises(self):
        # an objective of shape (m, 1) would give list-valued objective fields
        problem = dataclasses.replace(AFFINE, objective=lambda p: p[..., :1])
        config = CaptureConfig(grid=GridSpec(AFFINE.domain, 3, 3), tolerance=1e-8)
        with pytest.raises(ValueError, match=re.escape("expected (9,), got (9, 1)")):
            run_capture(problem, config, *two_steps(problem, config.grid, [newton_map()]))


class TestNewtonStep:
    def test_affine_one_step_exact(self):
        for start in ([0.0, 0.0], [4.0, -3.0], [1.5, 2.5]):
            step = vector_map_step(AFFINE, newton_map(), np.array(start))
            assert step == pytest.approx(AFFINE_ZERO, rel=1e-14)

    def test_zero_residual_means_zero_delta(self):
        step = vector_map_step(AFFINE, newton_map(), AFFINE_ZERO)
        assert step - AFFINE_ZERO == pytest.approx(np.zeros(2), abs=1e-15)

    def test_rutishauser_step_matches_numpy_oracle(self):
        problem = rutishauser()
        x = np.array([0.45, 0.70])
        step = vector_map_step(problem, newton_map(), x)
        expected = x + np.linalg.solve(problem.jacobian(x), -problem.f(x))
        assert step == pytest.approx(expected, rel=1e-12)

    def test_non_finite_jacobian_reports_status(self):
        problem = ackley_gradient()
        with pytest.raises(EvaluationError):
            vector_map_step(problem, newton_map(), np.zeros(2))

    def test_singular_jacobian_reports_status(self):
        flat = VectorProblem(
            n=2,
            f=lambda x: np.stack([x[..., 0] + x[..., 1], 2.0 * (x[..., 0] + x[..., 1])], axis=-1),
            jacobian=constant([[1.0, 1.0], [2.0, 2.0]]),
        )
        with pytest.raises(SingularModelError):
            vector_map_step(flat, newton_map(), np.array([0.3, 0.4]))


# f = (e^x - 1, y) with a numpy Jacobian that warns where e^x overflows
EXP_JACOBIAN = VectorProblem(
    n=2,
    f=lambda p: np.stack([np.exp(p[..., 0]) - 1.0, p[..., 1]], axis=-1),
    jacobian=lambda p: np.exp(p[..., 0])[..., None, None] * np.diag([1.0, 0.0]) + np.diag([0.0, 1.0]),
)


class TestBarycentricStep:
    def test_k0_equals_newton_bit_for_bit(self):
        problem = rutishauser()
        rng = np.random.default_rng(21)
        for _ in range(20):
            x = rng.uniform([-0.5, -0.7], [1.1, 1.1])
            a = vector_map_step(problem, newton_map(), x)
            b = vector_map_step(problem, newton_barycentric(0), x)
            assert np.array_equal(a, b)
            assert np.array_equal(a - x, b - x)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_affine_membership(self, k):
        # constant Jacobian plus weights summing to 1 collapse to Newton
        x = np.array([2.0, -1.0])
        newton = vector_map_step(AFFINE, newton_map(), x)
        bary = vector_map_step(AFFINE, newton_barycentric(k), x)
        assert bary - x == pytest.approx(newton - x, rel=1e-12)

    def test_k1_matches_hand_composed_oracle(self):
        problem = rutishauser()
        x = np.array([0.5, 0.65])
        h1 = np.linalg.solve(problem.jacobian(x), -problem.f(x))
        phi1 = 0.5 * problem.jacobian(x) + 0.5 * problem.jacobian(x + h1)
        expected = x + np.linalg.solve(phi1, -problem.f(x))
        step = vector_map_step(problem, newton_barycentric(1), x)
        assert step == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("far_jacobian", [lambda: np.nan, lambda: 1e300 * 1e300])
    def test_non_evaluable_model_matrix_raises(self, far_jacobian):
        # J is the identity at x but undefined at the sample x + h: a NaN
        # and an overflow to inf are the same failure kind, named by x
        problem = VectorProblem(
            n=2,
            f=lambda p: p - 1.0,
            jacobian=lambda p: np.where((p[..., 0] < 0.5)[..., None, None], np.eye(2), far_jacobian()),
        )
        with pytest.raises(EvaluationError, match=re.escape("non-finite evaluation at x=array([0., 0.])")):
            vector_map_step(problem, newton_barycentric(1), np.zeros(2))

    @pytest.mark.parametrize("x", [-10.0, 1000.0])
    def test_numpy_warning_in_a_user_problem_fails_the_row(self, x):
        # from x = -10 the Newton delta is about 22025, so np.exp overflows at
        # the first model-matrix sample; at x = 1000 it overflows in f(x).
        # The engine, not the problem, silences numpy's warning
        with pytest.raises(EvaluationError, match="non-finite evaluation at x="):
            vector_map_step(EXP_JACOBIAN, newton_barycentric(2), np.array([x, 0.0]))

    def test_numpy_warning_in_a_user_jacobian_is_a_step_failure(self):
        grid = GridSpec(domain=Box(lo=(-10.0, -1.0), hi=(-9.0, 1.0)), nx=2, ny=3)
        config = CaptureConfig(grid=grid, tolerance=1e-3)
        counts = run_capture(EXP_JACOBIAN, config, *two_steps(EXP_JACOBIAN, grid, [newton_barycentric(2)])).counts
        assert (counts.seeded, counts.skipped_singular, counts.step_failures) == (6, 0, 6)

    def test_numpy_warning_in_a_user_objective_is_an_infinite_objective(self):
        # np.exp overflows at the captured zero (0.6, -0.8)
        problem = dataclasses.replace(
            AFFINE, objective=lambda p: np.exp(2000.0 * p[..., 0]), domain=Box((-3.0, -3.0), (3.0, 3.0))
        )
        config = CaptureConfig(grid=GridSpec(problem.domain, 3, 3), tolerance=1e-8)
        result = run_capture(problem, config, *two_steps(problem, config.grid, [newton_map()]))
        assert result.counts.captured == 9 and {c.objective for c in result.captured} == {math.inf}

    def test_scalar_embedding_matches_scalar_model(self):
        scalar = ScalarProblem(
            f=lambda x: x**3 - 2.0,
            derivatives=(lambda x: 3.0 * x * x,),
        )
        embedded = VectorProblem(n=1, f=scalar.f, jacobian=lambda x: scalar.derivatives[0](x)[..., None])
        for k in (0, 1, 2, 3):
            coeffs = barycentric_coefficients(k)
            x, h = 1.37, -0.21
            matrix = model_matrix(embedded, coeffs, np.array([h]), np.array([x]))
            assert matrix[0, 0] == pytest.approx(
                barycentric_model(scalar, coeffs, h, x), rel=1e-12
            )


def _reference_step(problem, coeffs, x):
    """The next point of the order-k step that samples J at x + 0*h for each model matrix."""
    fx = problem.f(x)
    delta = solve(problem.jacobian(x), -fx)
    for j in range(1, coeffs.k + 1):
        weights = coeffs if j == coeffs.k else barycentric_coefficients(j)
        delta = solve(_reference_model_matrix(problem, weights, delta, x), -fx)
    return x + delta


class TestJacobianReuse:
    """J(x) is each model matrix's i = 0 term in place of J(x + 0*h).  The two
    points differ only where a coordinate of x is -0.0 and h is positive
    there; the sum from 0.0 erases the sign of a zero, so the bits hold."""

    @pytest.mark.parametrize("name", ["rutishauser", "ackley", "polynomial"])
    def test_negative_zero_coordinate(self, name, tmp_path):
        if name == "polynomial":
            path = tmp_path / "p.poly"
            path.write_text("domain -1 1 -1 1\npoly 2 : 1.5 2 1 ; -0.5 0 3 ; 0.25 1 0\npoly 2 : 0.7 3 0 ; -2 0 1\n")
            problem = load_polynomial_problem(str(path))
        else:
            problem = rutishauser() if name == "rutishauser" else ackley_gradient()
        lo, hi = np.array(problem.domain.lo), np.array(problem.domain.hi)
        rng = np.random.default_rng(55)
        jacobians_differ = 0
        # one zero coordinate: both would be Ackley's origin, where J is NaN
        for zeros in ([True, False], [False, True]) * 30:
            x = np.where(zeros, -0.0, rng.uniform(lo, hi))
            h = rng.uniform(0.01, 1.0, size=2) * np.where(zeros, 1.0, rng.choice([-1.0, 1.0], size=2))
            assert (x + 0 * h).tobytes() != x.tobytes()
            jacobians_differ += problem.jacobian(x).tobytes() != problem.jacobian(x + 0 * h).tobytes()
            for k in (1, 2, 3):
                coeffs = barycentric_coefficients(k)
                got = model_matrix(problem, coeffs, h, x)
                assert got.tobytes() == _reference_model_matrix(problem, coeffs, h, x).tobytes()
                step = vector_map_step(problem, newton_barycentric(k), x)
                assert step.tobytes() == _reference_step(problem, coeffs, x).tobytes()
        # on Ackley J itself has signed zeros, which the assembly erases
        assert (jacobians_differ > 0) == (name == "ackley")


class TestMapDispatch:
    def test_composition_matches_sequential_steps(self):
        problem = rutishauser()
        t32 = compose(newton_barycentric(3), newton_barycentric(2))
        x = np.array([0.4, 0.6])
        inner = vector_map_step(problem, newton_barycentric(2), x)
        outer = vector_map_step(problem, newton_barycentric(3), inner)
        combined = vector_map_step(problem, t32, x)
        assert np.array_equal(combined, outer)
        assert (combined - x).tobytes() == (outer - x).tobytes()

    @pytest.mark.parametrize(
        "iter_map", [newton_barycentric(2), compose(newton_barycentric(3), newton_barycentric(2)), newton_map()]
    )
    def test_delta_is_next_minus_x(self, iter_map):
        problem = rutishauser()
        # the step returns the (n,) next point alone, a new array; its displacement is step - x,
        # as it is for the batched step, the node of the map's path in paths_rows
        xs = np.random.default_rng(5).uniform([-0.5, -0.7], [1.1, 1.1], size=(20, 2))
        path = mapsnd.step_orders(iter_map)
        for x, row in zip(xs, mapsnd.paths_rows(problem, xs, Failures(len(xs)), [path])[path][0]):
            step = vector_map_step(problem, iter_map, x)
            assert step.shape == x.shape and not np.shares_memory(step, x)
            assert step.tobytes() == row.tobytes() and (step - x).tobytes() == (row - x).tobytes()

    def test_non_finite_next_point_is_returned(self):
        # J = 1e-160 * I against f = -1e200 solves to an infinite delta: returned, not raised
        problem = VectorProblem(n=2, f=constant([-1e200, -1e200]), jacobian=constant(1e-160 * np.eye(2)))
        x = np.array([0.5, 0.5])
        step = vector_map_step(problem, newton_map(), x)
        assert np.isposinf(step).all() and np.isposinf(step - x).all()

    def test_taylor_not_defined_on_rn(self):
        with pytest.raises(ValueError):
            vector_map_step(rutishauser(), newton_taylor(1), np.array([0.5, 0.5]))

    def test_newton_family_dispatch(self):
        problem = rutishauser()
        x = np.array([0.5, 0.6])
        a = vector_map_step(problem, newton_map(), x)
        b = vector_map_step(problem, newton_barycentric(0), x)
        assert np.array_equal(a, b)


class TestMirrorAxes:
    """mirror_axes must be distinct axes of the problem, checked where the problem is built."""

    def test_duplicate_axis_raises(self):
        with pytest.raises(ValueError, match=r"distinct axes in range\(2\), got 1$"):
            dataclasses.replace(AFFINE, mirror_axes=(1, 0, 1))

    @pytest.mark.parametrize("axis", [2, -1, 0.0, "0"])
    def test_axis_out_of_range_raises(self, axis):
        with pytest.raises(ValueError, match=f"distinct axes in range\\(2\\), got {re.escape(repr(axis))}$"):
            dataclasses.replace(AFFINE, mirror_axes=(0, axis))

    def test_distinct_axes_in_range_are_kept(self):
        assert dataclasses.replace(AFFINE, mirror_axes=(1, 0)).mirror_axes == (1, 0)
        assert AFFINE.mirror_axes == ()


class TestSwapAxes:
    """swap_axes must be empty or a pair of distinct axes of the problem, checked like mirror_axes."""

    @pytest.mark.parametrize("axes, message", [
        ((0, 0), r"distinct axes in range\(2\), got 0$"),
        ((0, 2), r"distinct axes in range\(2\), got 2$"),
        ((0, 1.0), r"distinct axes in range\(2\), got 1.0$"),
        ((1,), r"empty or a pair of axes, got \(1,\)$"),
    ])
    def test_bad_axes_raise(self, axes, message):
        with pytest.raises(ValueError, match=f"swap_axes must be {message}"):
            dataclasses.replace(AFFINE, swap_axes=axes)

    def test_a_pair_in_range_is_kept(self):
        assert dataclasses.replace(AFFINE, swap_axes=(1, 0)).swap_axes == (1, 0)
        assert AFFINE.swap_axes == ()


class TestFailures:
    """A Failures record keeps two columns over the same rows: live is the mask
    of the rows whose error is None, and each error is the object put there."""

    @given(st.data())
    def test_columns_agree_after_fails_puts_cuts_and_joins(self, data):
        size = data.draw(st.integers(0, 6))
        record, want = Failures(size), [None] * size
        for op in data.draw(st.lists(st.sampled_from(["fail", "put", "cut", "join"]), max_size=10)):
            n = len(want)
            if op == "fail":
                mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
                made = {}
                record.fail(mask, lambda r: made.setdefault(r, EvaluationError(f"row {r}")))
                assert sorted(made) == [r for r in range(n) if mask[r] and want[r] is None]
                want = [made.get(r, error) for r, error in enumerate(want)]
            elif op == "put":
                rows = data.draw(st.lists(st.integers(0, n - 1), unique=True)) if n else []
                errors = [SingularModelError(f"put at {r}") for r in rows]
                record.put(np.array(rows, dtype=int), errors)
                for r, error in zip(rows, errors):
                    want[r] = error
            elif op == "cut":
                begin = data.draw(st.integers(0, n))
                cut = slice(begin, data.draw(st.integers(begin, n)))
                # a cut is a copy: failing every row of one leaves the record it was cut from as it was
                Failures.join([record], cut).put(slice(None), EvaluationError("in a copy"))
                record, want = Failures.join([record], cut), want[cut]
            else:
                other = Failures(data.draw(st.integers(0, 3)))
                other.fail(np.arange(len(other.errors)) == 0, lambda r: SingularModelError("joined"))
                parts = data.draw(st.permutations([(record, want), (other, list(other.errors))]))
                record, want = Failures.join([part for part, _ in parts]), [e for _, errors in parts for e in errors]
            assert record.live.tolist() == np.equal(record.errors, None).tolist()
            assert len(record.errors) == len(want) and all(map(operator.is_, record.errors, want))


def described(failures):
    """Each row's failure as its type and message, or None where the row is live."""
    return [None if f is None else f"{type(f).__name__}: {f}" for f in failures]


class TestStackedNodes:
    """paths_rows stacks the rows of every node a level steps from into one
    recursion.  Each node keeps its own failures, and each node is what its
    path gives walked alone."""

    X = np.array([[0.3, 0.4], [0.6, 0.9], [0.9, 0.1]])

    @staticmethod
    def poisoned(f):
        """The problem of f and J = I, but with J NaN at the order-2 sample x + 2*h of a bary:2
        step from row 1 of X: every model matrix is I, so each order's h is -f(x)."""
        poison = TestStackedNodes.X[1] + 2 * -f(TestStackedNodes.X[1:])[0]
        return VectorProblem(n=2, f=f, jacobian=lambda p: np.where(
            (p == poison).all(axis=-1)[..., None, None], np.nan, constant(np.eye(2))(p)))

    @staticmethod
    def root(error):
        """A record of X's rows in which row 0 failed with error before any walk."""
        failures = Failures(3)
        failures.put(0, error)
        return failures

    def test_a_row_failed_in_one_node_is_live_in_another(self):
        # f = x - c and J = I, but NaN at the order-2 sample x + 2*h of row 1:
        # row 1 fails in t_2(x) and steps on from t_1(x), stacked with it
        c = np.array([0.5, 0.5])
        x = self.X
        counts = {"f": 0}

        def f(p):
            counts["f"] += len(p)
            return p - c

        problem = self.poisoned(f)
        error = EvaluationError("failed before the walk")

        def root():
            return self.root(error)

        def solo(inner, outer):
            next_, failures = mapsnd.paths_rows(problem, x, root(), [(inner, outer)])[(inner, outer)]
            return next_.tobytes(), described(failures.errors)

        want = {(1, 2): solo(1, 2), (2, 2): solo(2, 2)}
        assert want[(1, 2)][1] == described([error, None, None])
        assert want[(2, 2)][1][:2] == described([error, EvaluationError(f"non-finite evaluation at x={x[1]!r}")])
        for paths in ([(1, 2), (2, 2)], [(2, 2), (1, 2)]):
            counts["f"] = 0
            nodes = mapsnd.paths_rows(problem, x, root(), paths)
            assert {path: (nodes[path][0].tobytes(), described(nodes[path][1].errors)) for path in paths} == want
            # row 0 is stepped by neither node, and row 1 only from t_1(x): 2 + 3 f points
            assert counts["f"] == 5
            assert np.isfinite(nodes[(1,)][0][1:]).all() and np.isnan(nodes[(2,)][0][:2]).all()

    def test_each_failure_is_one_object_from_node_to_caller(self):
        # row 0 failed before the walk, row 1 fails in t_2(x): each keeps one
        # exception object through every stacked level and back to the caller
        problem = self.poisoned(lambda p: p - 0.5)
        error = EvaluationError("failed before the walk")
        nodes = mapsnd.paths_rows(problem, self.X, self.root(error), [(1, 2), (2, 2)])
        assert all(nodes[path][1].errors[0] is error for path in nodes)
        inner = nodes[(2,)][1].errors[1]
        assert isinstance(inner, EvaluationError) and nodes[(2, 2)][1].errors[1] is inner
        assert nodes[(1,)][1].live[1] and nodes[(1, 2)][1].live[1]

    def test_each_row_leaves_after_its_last_order(self):
        # J at the rows (order 0), then at i = 1 of order 1 for rows with last >= 1,
        # then at i = 1, 2 of order 2 for the row with last 2, stacked in one call
        calls = []
        problem = dataclasses.replace(rutishauser(), jacobian=lambda p, j=rutishauser().jacobian: calls.append(len(p)) or j(p))
        x = np.array([[0.3, 0.4], [0.6, 0.5], [0.9, 0.1]])
        steps = mapsnd.orders_rows(problem, x, Failures(len(x)), np.array([2, 0, 1]))
        rows = [next(steps)[0].tolist() for _ in range(3)]
        assert rows == [[0, 1, 2], [0, 2], [0]] and calls == [3, 2, 2]
        # and each row's points after its last order are its own bary:k step's
        nodes = mapsnd.paths_rows(rutishauser(), x, Failures(len(x)), [(2,), (0,), (1,)])
        for r, k in enumerate([2, 0, 1]):
            assert nodes[(k,)][0][r].tobytes() == vector_map_step(rutishauser(), newton_barycentric(k), x[r]).tobytes()


class TestTwoIterations:
    def test_zero_start_is_constant(self):
        point = AFFINE_ZERO
        for _ in range(3):
            point = vector_map_step(AFFINE, newton_map(), point)
            assert point == pytest.approx(AFFINE_ZERO, abs=1e-14)

    def test_ackley_two_steps_reach_nearby_extremum(self):
        problem = ackley_gradient()
        t1 = newton_barycentric(1)
        first = vector_map_step(problem, t1, np.array([-1.6, -1.6]))
        second = vector_map_step(problem, t1, first)
        assert second == pytest.approx([-1.65185, -1.65185], abs=1e-3)


class TestPointShape:
    """vector_map_step takes one (n,) point; any other shape is a ValueError naming both
    shapes, raised before f or the Jacobian is evaluated."""

    @pytest.mark.parametrize("x", [[0.5], 0.5, [0.5, 0.5, 0.5], [[0.5, 0.5]]], ids=["1", "0-d", "3", "1x2"])
    @pytest.mark.parametrize("name", ["rutishauser", "ackley", "polynomial"])
    def test_mis_shaped_point_raises_before_evaluation(self, name, x, tmp_path):
        if name == "polynomial":
            problem = load_polynomial_problem(str(write_random_gradient_file(tmp_path / "p.poly", 57)))
        else:
            problem = rutishauser() if name == "rutishauser" else ackley_gradient()
        calls = []

        def recorded(fn):
            return lambda p: calls.append(np.shape(p)) or fn(p)

        problem = dataclasses.replace(problem, f=recorded(problem.f), jacobian=recorded(problem.jacobian))
        message = re.escape(f"need a point of shape (2,), got shape {np.shape(x)}")
        for iter_map in (newton_map(), newton_barycentric(2)):
            with pytest.raises(ValueError, match=message):
                vector_map_step(problem, iter_map, x)
        assert calls == []
        assert vector_map_step(problem, newton_map(), [0.5, 0.5]).shape == (2,)


class TestOrderOfConvergence:
    """One bary:k step from root + d*u lands within C * d**(k + 2) of a simple root: the
    fitted slope of log ||t(x) - root|| against log d is k + 2, the scalar family's order."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_ackley_extremum(self, k):
        problem = ackley_gradient()
        root = np.array([0.9685, 0.9685])
        for _ in range(8):
            root = vector_map_step(problem, newton_map(), root)
        assert np.abs(problem.f(root)).max() < 1e-14
        d = 2.0 ** -np.arange(7, 11)
        for u in ([1.0, 0.0], [0.6, 0.8], [0.6, -0.8]):
            errors = np.array(
                [np.linalg.norm(vector_map_step(problem, newton_barycentric(k), root + s * np.array(u)) - root) for s in d]
            )
            # below about 1e-12 the error is rounding in f, not the map's truncation
            kept = errors > 1e-12
            assert kept.sum() >= 3
            slope = np.polyfit(np.log(d[kept]), np.log(errors[kept]), 1)[0]
            assert abs(slope - (k + 2)) < 0.3, (u, slope)


def test_box_membership_is_inclusive():
    box = Box(lo=(-1.0, 0.0), hi=(1.0, 2.0))
    assert box.contains(np.array([-1.0, 2.0]))
    assert box.contains(np.array([0.0, 1.0]))
    assert not box.contains(np.array([1.0000001, 1.0]))
    with pytest.raises(ValueError):
        Box(lo=(1.0,), hi=(0.0,))
    with pytest.raises(ValueError, match="lo and hi must have the same dimension"):
        Box(lo=(0.0, 0.0), hi=(1.0,))
