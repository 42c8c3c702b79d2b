import numpy as np
import pytest

from rootmaps import (
    Box,
    EvaluationError,
    ScalarProblem,
    SingularModelError,
    VectorProblem,
    barycentric_coefficients,
    barycentric_model,
    compose,
    newton_barycentric,
    newton_map,
    newton_taylor,
    rutishauser,
    vector_barycentric_step,
    vector_map_step,
    vector_newton_step,
)
from rootmaps.mapsnd import barycentric_model_matrix, lu_solve
from rootmaps.problems import ackley_gradient


def affine_problem(a, c):
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    return VectorProblem(
        n=len(c),
        f=lambda x: a @ x - c,
        jacobian=lambda x: a.copy(),
        domain=Box(lo=(-10.0, -10.0), hi=(10.0, 10.0)),
        name="affine",
    )


AFFINE = affine_problem([[3.0, 1.0], [1.0, 2.0]], [1.0, -1.0])
AFFINE_ZERO = np.linalg.solve([[3.0, 1.0], [1.0, 2.0]], [1.0, -1.0])


class TestLuSolve:
    def test_matches_numpy_on_random_systems(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 5):
            for _ in range(25):
                a = rng.normal(size=(n, n))
                b = rng.normal(size=n)
                assert lu_solve(a, b) == pytest.approx(np.linalg.solve(a, b), rel=1e-10)

    def test_scaled_residual_bound(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a = rng.normal(size=(2, 2))
            b = rng.normal(size=2)
            x = lu_solve(a, b)
            residual = np.max(np.abs(a @ x - b))
            assert residual <= 1e-9 * (np.max(np.abs(a)) * np.max(np.abs(x)) + np.max(np.abs(b)))

    def test_singular_matrix_raises(self):
        with pytest.raises(SingularModelError):
            lu_solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))
        with pytest.raises(SingularModelError):
            lu_solve(np.zeros((3, 3)), np.ones(3))


class TestNewtonStep:
    def test_affine_one_step_exact(self):
        for start in ([0.0, 0.0], [4.0, -3.0], [1.5, 2.5]):
            result = vector_newton_step(AFFINE, np.array(start))
            assert result.next == pytest.approx(AFFINE_ZERO, rel=1e-14)

    def test_zero_residual_means_zero_delta(self):
        result = vector_newton_step(AFFINE, AFFINE_ZERO)
        assert result.delta == pytest.approx(np.zeros(2), abs=1e-15)

    def test_rutishauser_step_matches_numpy_oracle(self):
        problem = rutishauser()
        x = np.array([0.45, 0.70])
        result = vector_newton_step(problem, x)
        expected = x + np.linalg.solve(problem.jacobian(x), -problem.f(x))
        assert result.next == pytest.approx(expected, rel=1e-12)

    def test_non_finite_jacobian_reports_status(self):
        problem = ackley_gradient()
        with pytest.raises(EvaluationError):
            vector_newton_step(problem, np.zeros(2))

    def test_singular_jacobian_reports_status(self):
        flat = VectorProblem(
            n=2,
            f=lambda x: np.array([x[0] + x[1], 2.0 * (x[0] + x[1])]),
            jacobian=lambda x: np.array([[1.0, 1.0], [2.0, 2.0]]),
        )
        with pytest.raises(SingularModelError):
            vector_newton_step(flat, np.array([0.3, 0.4]))


class TestBarycentricStep:
    def test_k0_equals_newton_bit_for_bit(self):
        problem = rutishauser()
        coeffs = barycentric_coefficients(0)
        rng = np.random.default_rng(21)
        for _ in range(20):
            x = rng.uniform([-0.5, -0.7], [1.1, 1.1])
            a = vector_newton_step(problem, x)
            b = vector_barycentric_step(problem, coeffs, x)
            assert np.array_equal(a.next, b.next)
            assert np.array_equal(a.delta, b.delta)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_affine_membership(self, k):
        # constant Jacobian plus weights summing to 1 collapse to Newton
        coeffs = barycentric_coefficients(k)
        newton = vector_newton_step(AFFINE, np.array([2.0, -1.0]))
        bary = vector_barycentric_step(AFFINE, coeffs, np.array([2.0, -1.0]))
        assert bary.delta == pytest.approx(newton.delta, rel=1e-12)

    def test_k1_matches_hand_composed_oracle(self):
        problem = rutishauser()
        x = np.array([0.5, 0.65])
        h1 = np.linalg.solve(problem.jacobian(x), -problem.f(x))
        phi1 = 0.5 * problem.jacobian(x) + 0.5 * problem.jacobian(x + h1)
        expected = x + np.linalg.solve(phi1, -problem.f(x))
        result = vector_barycentric_step(problem, barycentric_coefficients(1), x)
        assert result.next == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("far_jacobian", [lambda: np.full((2, 2), np.nan), lambda: 1e300**2])
    def test_non_evaluable_model_matrix_raises(self, far_jacobian):
        # J is the identity at x but undefined at the sample x + h: a NaN
        # matrix and a raised OverflowError are the same failure kind
        problem = VectorProblem(
            n=2,
            f=lambda p: p - 1.0,
            jacobian=lambda p: np.eye(2) if p[0] < 0.5 else far_jacobian(),
        )
        with pytest.raises(EvaluationError):
            vector_barycentric_step(problem, barycentric_coefficients(1), np.zeros(2))

    def test_scalar_embedding_matches_scalar_model(self):
        scalar = ScalarProblem(
            f=lambda x: x**3 - 2.0,
            derivatives=(lambda x: 3.0 * x * x,),
        )
        embedded = VectorProblem(
            n=1,
            f=lambda x: np.array([scalar.f(float(x[0]))]),
            jacobian=lambda x: np.array([[scalar.derivatives[0](float(x[0]))]]),
        )
        for k in (0, 1, 2, 3):
            coeffs = barycentric_coefficients(k)
            x, h = 1.37, -0.21
            matrix = barycentric_model_matrix(embedded, coeffs, np.array([h]), np.array([x]))
            assert matrix[0, 0] == pytest.approx(
                barycentric_model(scalar, coeffs, h, x), rel=1e-12
            )


class TestMapDispatch:
    def test_composition_matches_sequential_steps(self):
        problem = rutishauser()
        t32 = compose(newton_barycentric(3), newton_barycentric(2))
        x = np.array([0.4, 0.6])
        inner = vector_map_step(problem, newton_barycentric(2), x)
        outer = vector_map_step(problem, newton_barycentric(3), inner.next)
        combined = vector_map_step(problem, t32, x)
        assert np.array_equal(combined.next, outer.next)
        assert combined.delta == pytest.approx(outer.next - x, rel=1e-14)

    def test_taylor_not_defined_on_rn(self):
        with pytest.raises(ValueError):
            vector_map_step(rutishauser(), newton_taylor(1), np.array([0.5, 0.5]))

    def test_newton_family_dispatch(self):
        problem = rutishauser()
        x = np.array([0.5, 0.6])
        a = vector_map_step(problem, newton_map(), x)
        b = vector_newton_step(problem, x)
        assert np.array_equal(a.next, b.next)


class TestTwoIterations:
    def test_zero_start_is_constant(self):
        point = AFFINE_ZERO
        for _ in range(3):
            point = vector_map_step(AFFINE, newton_map(), point).next
            assert point == pytest.approx(AFFINE_ZERO, abs=1e-14)

    def test_ackley_two_steps_reach_nearby_extremum(self):
        problem = ackley_gradient()
        t1 = newton_barycentric(1)
        first = vector_map_step(problem, t1, np.array([-1.6, -1.6]))
        second = vector_map_step(problem, t1, first.next)
        assert second.next == pytest.approx([-1.65185, -1.65185], abs=1e-3)


def test_box_membership_is_inclusive():
    box = Box(lo=(-1.0, 0.0), hi=(1.0, 2.0))
    assert box.contains(np.array([-1.0, 2.0]))
    assert box.contains(np.array([0.0, 1.0]))
    assert not box.contains(np.array([1.0000001, 1.0]))
    with pytest.raises(ValueError):
        Box(lo=(1.0,), hi=(0.0,))
