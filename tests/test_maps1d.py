import dataclasses
import math
import random
import re

import pytest

from rootmaps import (
    barycentric_coefficients,
    compose,
    estimate_order,
    iterate,
    newton_barycentric,
    newton_map,
    newton_taylor,
    recursive_map_step,
    scalar_test_set,
)
from rootmaps.maps1d import (
    EvaluationError,
    InsufficientDataError,
    InsufficientDerivativesError,
    IterationStatus,
    IterativeMap,
    MapFamily,
    ScalarProblem,
    SingularModelError,
    barycentric_model,
    taylor_model,
)

CUBIC, EXP2, SINE = scalar_test_set()

LINEAR = ScalarProblem(f=lambda x: x, derivatives=(lambda x: 1.0,), known_root=0.0, name="linear")
SQUARE_M1 = ScalarProblem(
    f=lambda x: x * x - 1.0, derivatives=(lambda x: 2.0 * x, lambda x: 2.0), known_root=1.0
)
SQUARE_P1 = ScalarProblem(f=lambda x: x * x + 1.0, derivatives=(lambda x: 2.0 * x, lambda x: 2.0))
SQRT2 = ScalarProblem(
    f=lambda x: x * x - 2.0,
    derivatives=(lambda x: 2.0 * x, lambda x: 2.0),
    known_root=math.sqrt(2.0),
)


def halley_closed_form(problem, x):
    f = problem.f(x)
    d1, d2 = problem.derivatives[0](x), problem.derivatives[1](x)
    return x - 2.0 * f * d1 / (2.0 * d1 * d1 - f * d2)


def order3_closed_form(problem, x):
    f = problem.f(x)
    d1 = problem.derivatives[0](x)
    h1 = -f / d1
    return x - 2.0 * f / (d1 + problem.derivatives[0](x + h1))


def order4_closed_form(problem, x):
    f = problem.f(x)
    d1 = problem.derivatives[0](x)
    h1 = -f / d1
    den = d1 + problem.derivatives[0](x + h1)
    return x - 12.0 * f / (
        5.0 * d1
        + 8.0 * problem.derivatives[0](x - 2.0 * f / den)
        - problem.derivatives[0](x - 4.0 * f / den)
    )


class TestNewtonStep:
    def test_linear_one_step(self):
        assert recursive_map_step(LINEAR, newton_map(), 5.0) == 0.0

    def test_hand_value(self):
        assert recursive_map_step(SQUARE_M1, newton_map(), 2.0) == pytest.approx(1.25, rel=1e-15)

    def test_root_is_fixed_point(self):
        root = 2.0 ** (1.0 / 3.0)
        assert recursive_map_step(CUBIC, newton_map(), root) == pytest.approx(root, rel=1e-14)

    def test_flat_derivative_raises(self):
        with pytest.raises(SingularModelError):
            recursive_map_step(SQUARE_P1, newton_map(), 0.0)


class TestModels:
    def test_taylor_k0_is_first_derivative(self):
        assert taylor_model(CUBIC, 0, 0.7, 1.3) == CUBIC.derivatives[0](1.3)

    def test_taylor_k1_matches_published_denominator(self):
        x, h = 1.1, -0.4
        expected = (2.0 * EXP2.derivatives[0](x) + EXP2.derivatives[1](x) * h) / 2.0
        assert taylor_model(EXP2, 1, h, x) == pytest.approx(expected, rel=1e-15)

    def test_taylor_exponential_hand_sum(self):
        # all derivatives of e^x at 0 are 1: 1 + 1/2 + 1/6 + 1/24 = 41/24
        problem = ScalarProblem(
            f=lambda x: math.exp(x), derivatives=tuple(math.exp for _ in range(4))
        )
        assert taylor_model(problem, 3, 1.0, 0.0) == pytest.approx(41.0 / 24.0, rel=1e-15)

    def test_taylor_requires_derivatives(self):
        with pytest.raises(InsufficientDerivativesError):
            taylor_model(SQUARE_M1, 2, 0.1, 1.0)

    def test_taylor_looks_up_every_derivative_before_calling_one(self):
        calls = []
        counting = tuple(lambda x, i=i: calls.append(i) or 2.0 for i in range(2))
        with pytest.raises(InsufficientDerivativesError):
            taylor_model(dataclasses.replace(SQUARE_M1, derivatives=counting), 2, 0.1, 1.0)
        assert calls == []

    def test_barycentric_k0_is_first_derivative(self):
        coeffs = barycentric_coefficients(0)
        assert barycentric_model(CUBIC, coeffs, 0.3, 1.2) == CUBIC.derivatives[0](1.2)

    def test_barycentric_k1_hand_value(self):
        problem = ScalarProblem(f=lambda x: x * x, derivatives=(lambda x: 2.0 * x,))
        coeffs = barycentric_coefficients(1)
        assert barycentric_model(problem, coeffs, -0.5, 1.0) == pytest.approx(1.5, rel=1e-15)

    def test_barycentric_constant_derivative_sums_weights(self):
        coeffs = barycentric_coefficients(2)
        assert barycentric_model(LINEAR, coeffs, 0.8, -2.0) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_taylor_matches_table_denominators(self, k):
        # numerators of the published denominators, over (k+1)!
        table = {
            1: [2, 1],
            2: [6, 3, 1],
            3: [24, 12, 4, 1],
            4: [120, 60, 20, 5, 1],
        }[k]
        rng = random.Random(7)
        for _ in range(50):
            x, h = rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5)
            expected = sum(
                c * EXP2.derivatives[i](x) * h**i for i, c in enumerate(table)
            ) / math.factorial(k + 1)
            assert taylor_model(EXP2, k, h, x) == pytest.approx(expected, rel=1e-12)


class TestRecursiveStep:
    def test_halley_equivalence_seeded(self):
        t1 = newton_taylor(1)
        rng = random.Random(42)
        checked = 0
        while checked < 100:
            x = rng.uniform(0.3, 3.0)
            f, d1, d2 = CUBIC.f(x), CUBIC.derivatives[0](x), CUBIC.derivatives[1](x)
            if abs(2.0 * d1 * d1 - f * d2) <= 1e-6:
                continue
            assert recursive_map_step(CUBIC, t1, x) == pytest.approx(
                halley_closed_form(CUBIC, x), rel=1e-12
            )
            checked += 1

    def test_order3_closed_form(self):
        t1 = newton_barycentric(1)
        rng = random.Random(43)
        for _ in range(100):
            x = rng.uniform(0.7, 2.5)
            assert recursive_map_step(CUBIC, t1, x) == pytest.approx(
                order3_closed_form(CUBIC, x), rel=1e-12
            )

    def test_order4_closed_form(self):
        t2 = newton_barycentric(2)
        rng = random.Random(44)
        for _ in range(100):
            x = rng.uniform(0.7, 2.5)
            assert recursive_map_step(CUBIC, t2, x) == pytest.approx(
                order4_closed_form(CUBIC, x), rel=1e-12
            )

    @pytest.mark.parametrize("problem", [CUBIC, EXP2, SINE], ids=lambda p: p.name)
    def test_maps_do_not_repel_near_root(self, problem):
        z = problem.known_root
        maps = [newton_map()]
        maps += [newton_taylor(k) for k in range(6)]
        maps += [newton_barycentric(k) for k in range(6)]
        for spec in maps:
            for z_prime in (z + 1e-10, z - 1e-10):
                t = recursive_map_step(problem, spec, z_prime)
                assert abs(t - z_prime) <= 10.0 * abs(z_prime - z)

    @pytest.mark.parametrize("spec", [newton_map(), newton_taylor(3), newton_barycentric(3)],
                             ids=lambda spec: spec.describe())
    def test_one_step_evaluates_f_once(self, spec):
        # t_0 = x - f(x)/f'(x) is the j = 0 step, so every member shares one f(x)
        calls = []
        counted = dataclasses.replace(CUBIC, f=lambda x: calls.append(x) or CUBIC.f(x))
        assert recursive_map_step(counted, spec, 1.5) == recursive_map_step(CUBIC, spec, 1.5)
        assert calls == [1.5]

    def test_taylor_step_evaluates_each_derivative_once(self):
        # taylor:5 needs f'(x)..f^(6)(x) once each: 6 derivative calls where
        # evaluating every model's terms afresh makes 1 + 2 + ... + 6 = 21
        calls = []
        counted = dataclasses.replace(
            EXP2,
            derivatives=tuple(
                (lambda x, i=i, d=d: calls.append(i) or d(x)) for i, d in enumerate(EXP2.derivatives)
            ),
        )
        assert recursive_map_step(counted, newton_taylor(5), 0.9) == recursive_map_step(EXP2, newton_taylor(5), 0.9)
        assert calls == [0, 1, 2, 3, 4, 5]

    @pytest.mark.parametrize("problem", [CUBIC, EXP2, SINE], ids=lambda p: p.name)
    def test_taylor_step_matches_fresh_models_bit_for_bit(self, problem):
        # t_j = x - f(x)/phi_j with each phi_j from taylor_model, which
        # evaluates its derivatives afresh
        rng = random.Random(45)
        for _ in range(50):
            x = rng.uniform(*(problem.domain or (0.3, 3.0)))
            fx = problem.f(x)
            t = x - fx / problem.derivatives[0](x)
            for k in range(1, 6):
                t = x - fx / taylor_model(problem, k, t - x, x)
                assert recursive_map_step(problem, newton_taylor(k), x) == t

    @pytest.mark.parametrize("spec", [newton_map(), newton_taylor(1), newton_barycentric(2)],
                             ids=lambda spec: spec.describe())
    def test_f_fails_before_the_derivative_is_tested(self, spec):
        flat = ScalarProblem(f=lambda x: math.inf, derivatives=(lambda x: 0.0, lambda x: 0.0))
        with pytest.raises(EvaluationError):
            recursive_map_step(flat, spec, 1.0)
        with pytest.raises(SingularModelError, match=re.escape("|f'(x)|=0.000e+00 below floor at x=1.0")):
            recursive_map_step(dataclasses.replace(flat, f=lambda x: 1.0), spec, 1.0)

    def test_intermediate_singularity_surfaces(self):
        with pytest.raises(SingularModelError):
            recursive_map_step(SQUARE_P1, newton_barycentric(1), 0.0)

    def test_taylor_model_that_overflows_or_vanishes(self):
        # with f' = 1, h_1 = -f and phi_1 = f' + f'' * h_1 / 2: f = f'' = 1e300
        # overflows it to -inf, and f = 2, f'' = 1 makes it exactly 1 - 1 = 0
        def problem(f, d2):
            return ScalarProblem(f=lambda x: f, derivatives=(lambda x: 1.0, lambda x: d2))

        with pytest.raises(EvaluationError, match=re.escape("non-finite model value at x=0.5 (index 1)")):
            recursive_map_step(problem(1e300, 1e300), newton_taylor(1), 0.5)
        with pytest.raises(SingularModelError, match=re.escape("|phi_1(x)|=0.000e+00 below floor at x=0.5")):
            recursive_map_step(problem(2.0, 1.0), newton_taylor(1), 0.5)


class TestCompose:
    def test_composition_applies_inner_first(self):
        t2, t3 = newton_barycentric(2), newton_barycentric(3)
        t32 = compose(t3, t2)
        x = 0.9
        inner = recursive_map_step(CUBIC, t2, x)
        assert recursive_map_step(CUBIC, t32, x) == recursive_map_step(CUBIC, t3, inner)

    def test_composition_fixes_root(self):
        t54 = compose(newton_barycentric(5), newton_barycentric(4))
        z = CUBIC.known_root
        assert recursive_map_step(CUBIC, t54, z) == pytest.approx(z, rel=1e-14)

    def test_orders(self):
        assert newton_map().order == 2
        assert newton_barycentric(3).order == 5
        assert compose(newton_barycentric(5), newton_barycentric(4)).order == 42
        assert compose(newton_barycentric(3), newton_barycentric(2)).describe() == (
            "compose:bary:3,bary:2"
        )


class TestIterate:
    def test_converges_to_cube_root(self):
        result = iterate(CUBIC, newton_map(), 1.5, max_iter=30, tol=1e-12)
        assert result.status is IterationStatus.CONVERGED
        assert result.points[-1] == pytest.approx(1.2599210498948732, rel=1e-15)

    def test_no_real_root_does_not_converge(self):
        result = iterate(SQUARE_P1, newton_map(), 1.0, max_iter=20, tol=1e-12)
        assert result.status in (IterationStatus.MAX_ITER, IterationStatus.STEP_FAILURE)

    def test_tolerance_met_at_entry(self):
        result = iterate(CUBIC, newton_map(), CUBIC.known_root, max_iter=5, tol=1e-12)
        assert result.status is IterationStatus.CONVERGED
        assert len(result.points) == 1

    def test_f_is_tested_once_per_point(self):
        # |f(x)| <= tol is tested at x0 and after each step, and a Newton step
        # evaluates f at its start once more
        calls = []
        cubic = dataclasses.replace(CUBIC, f=lambda x: calls.append(x) or CUBIC.f(x))
        result = iterate(cubic, newton_map(), CUBIC.known_root, max_iter=3, tol=1e-12)
        assert result.status is IterationStatus.CONVERGED and result.points == (CUBIC.known_root,)
        assert calls == [CUBIC.known_root]
        calls.clear()
        square = dataclasses.replace(SQUARE_P1, f=lambda x: calls.append(x) or SQUARE_P1.f(x))
        result = iterate(square, newton_map(), 2.0, max_iter=3, tol=1e-12)
        assert result.status is IterationStatus.MAX_ITER and len(result.points) == 4
        x0, x1, x2, x3 = result.points
        assert calls == [x0, x0, x1, x1, x2, x2, x3]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            iterate(CUBIC, newton_map(), 1.0, max_iter=0, tol=1e-12)
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                iterate(CUBIC, newton_map(), 1.0, max_iter=5, tol=tol)

    def test_overflowing_problem_becomes_status(self):
        # math.exp raises OverflowError instead of returning inf
        spiky = ScalarProblem(
            f=lambda x: math.exp(x * x) - 2.0,
            derivatives=(lambda x: 2.0 * x * math.exp(x * x),),
        )
        result = iterate(spiky, newton_map(), 40.0, max_iter=10, tol=1e-12)
        assert result.status is IterationStatus.NON_FINITE

    def test_non_finite_iterate_stops_where_f_is_finite(self):
        # f(-inf) is finite, so only the test of the iterate itself stops here
        steep = ScalarProblem(f=lambda x: 1e10, derivatives=(lambda x: 1e-299,))
        result = iterate(steep, newton_map(), 1.0, max_iter=10, tol=1e-12)
        assert result.status is IterationStatus.NON_FINITE
        assert result.points == (1.0, -math.inf)

    def test_step_failure_after_progress_keeps_the_points(self):
        # x^2 + 1 has f'(0) = 0: Newton from 1.0 lands on 0.0, then fails
        result = iterate(SQUARE_P1, newton_map(), 1.0, max_iter=10, tol=1e-12)
        assert result.status is IterationStatus.STEP_FAILURE
        assert result.points == (1.0, 0.0)


class TestEstimateOrder:
    def test_newton_on_square_frozen_oracle(self):
        # oracle: run the iteration, apply the estimator definition by hand
        result = iterate(SQRT2, newton_map(), 1.0, max_iter=30, tol=1e-12)
        errors = [abs(x - SQRT2.known_root) for x in result.points]
        ratios = [
            math.log(e1) / math.log(e0)
            for e0, e1 in zip(errors, errors[1:])
            if e0 < 0.5 and e0 > 1e-13 and e1 > 1e-13 and e1 < e0
        ]
        ratios.sort()
        expected = (ratios[1] + ratios[2]) / 2.0  # median of 4
        assert expected == pytest.approx(2.3103061112974137, rel=1e-12)
        assert estimate_order(result.points, SQRT2.known_root) == expected
        assert 1.7 <= expected <= 2.35

    def test_barycentric_cubic_is_third_order(self):
        result = iterate(CUBIC, newton_barycentric(1), 1.4, max_iter=30, tol=1e-12)
        estimate = estimate_order(result.points, CUBIC.known_root)
        assert estimate == pytest.approx(3.0, abs=0.3)

    def test_short_trajectory_is_insufficient(self):
        with pytest.raises(InsufficientDataError):
            estimate_order([1.5, 1.4142], math.sqrt(2.0))

    def test_sign_reflection_invariance(self):
        result = iterate(SQRT2, newton_map(), 1.0, max_iter=30, tol=1e-12)
        z = SQRT2.known_root
        mirrored = [2.0 * z - x for x in result.points]
        assert estimate_order(result.points, z) == estimate_order(mirrored, z)


def test_problem_reports_derivative_bounds():
    assert CUBIC.max_derivative_order == 6
    with pytest.raises(InsufficientDerivativesError):
        CUBIC.derivative(7)
    with pytest.raises(InsufficientDerivativesError):
        CUBIC.derivative(0)


def test_family_constructors_validate_index():
    with pytest.raises(ValueError):
        newton_taylor(-1)
    with pytest.raises(ValueError):
        newton_barycentric(-2)
    with pytest.raises(ValueError, match="order index must be >= 0, got -1"):
        IterativeMap(MapFamily.NEWTON_BARYCENTRIC, k=-1)
    assert newton_map().family is MapFamily.NEWTON
