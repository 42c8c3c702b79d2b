"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to get one pass/fail line per
criterion.
"""

import math
import random
import time
from fractions import Fraction
from statistics import median

import numpy as np
import pytest

from rootmaps import (
    CaptureConfig,
    GridSpec,
    barycentric_coefficients,
    compose,
    estimate_order,
    iterate,
    newton_barycentric,
    newton_taylor,
    recursive_map_step,
    scalar_test_set,
    vector_map_step,
)
from rootmaps.coefficients import build_system, solve_coefficients
from rootmaps.cli import render_capture_csv
from rootmaps.maps1d import InsufficientDataError
from rootmaps.problems import ackley_gradient, rutishauser
from test_capture import scan_one
from test_coefficients import alternating_binomial_sum

CUBIC, EXP2, SINE = scalar_test_set()
T32 = compose(newton_barycentric(3), newton_barycentric(2))
T54 = compose(newton_barycentric(5), newton_barycentric(4))

TABLE_WEIGHTS = {
    1: (Fraction(1, 2), Fraction(1, 2)),
    2: (Fraction(5, 12), Fraction(8, 12), Fraction(-1, 12)),
    3: (Fraction(9, 24), Fraction(19, 24), Fraction(-5, 24), Fraction(1, 24)),
    4: (
        Fraction(251, 720),
        Fraction(646, 720),
        Fraction(-264, 720),
        Fraction(106, 720),
        Fraction(-19, 720),
    ),
    5: (
        Fraction(475, 1440),
        Fraction(1427, 1440),
        Fraction(-798, 1440),
        Fraction(482, 1440),
        Fraction(-173, 1440),
        Fraction(27, 1440),
    ),
}

RUTISHAUSER_TARGETS = [
    ((0.459591, 0.693716), 0.167974),
    ((0.693716, 0.459591), 0.167974),
    ((0.593976, 0.593976), 0.169389),
]

ACKLEY_TARGETS = [
    ((1.65185, 1.65185), -7.7843),
    ((1.65185, -1.65185), -7.7843),
    ((-1.65185, 1.65185), -7.7843),
    ((-1.65185, -1.65185), -7.7843),
    ((1.6103, 0.0), -5.66925),
    ((-1.6103, 0.0), -5.66925),
    ((0.0, 1.6103), -5.66925),
    ((0.0, -1.6103), -5.66925),
]


def _report(number: int, message: str) -> None:
    print(f"[criterion {number}] PASS: {message}")


@pytest.fixture(scope="module")
def rutishauser_capture():
    problem = rutishauser()
    config = CaptureConfig(
        grid=GridSpec(domain=problem.domain, nx=19, ny=19),
        tolerance=0.001,
    )
    return problem, config, scan_one(problem, config, T32)


@pytest.fixture(scope="module")
def ackley_fine_capture():
    problem = ackley_gradient()
    config = CaptureConfig(
        grid=GridSpec(domain=problem.domain, nx=41, ny=41),
        tolerance=0.1,
    )
    start = time.perf_counter()
    result = scan_one(problem, config, T54)
    elapsed = time.perf_counter() - start
    return problem, config, result, elapsed


def test_c1_coefficient_exactness():
    start = time.perf_counter()
    for k, expected in TABLE_WEIGHTS.items():
        assert barycentric_coefficients(k).a == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"weights for k=1..5 match the published table exactly ({elapsed:.3f}s)")


def test_c2_coefficient_properties():
    start = time.perf_counter()
    for k in range(21):
        system = build_system(k)
        coeffs = solve_coefficients(system)
        assert sum(coeffs.a) == 1
        for row, b in zip(system.matrix, system.rhs):
            assert sum(r * a for r, a in zip(row, coeffs.a)) == b
    for m in range(1, 31):
        assert alternating_binomial_sum(m) == Fraction(1, m + 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, f"exact sums, residuals (k<=20) and the binomial identity (m<=30) hold ({elapsed:.3f}s)")


def test_c3_halley_equivalence():
    t1 = newton_taylor(1)
    rng = random.Random(2024)
    ranges = {id(CUBIC): (0.3, 3.0), id(EXP2): (-1.0, 2.0)}
    for problem in (CUBIC, EXP2):
        lo, hi = ranges[id(problem)]
        checked = 0
        while checked < 100:
            x = rng.uniform(lo, hi)
            f = problem.f(x)
            d1, d2 = problem.derivatives[0](x), problem.derivatives[1](x)
            denominator = 2.0 * d1 * d1 - f * d2
            if abs(denominator) <= 1e-6:
                continue
            closed_form = x - 2.0 * f * d1 / denominator
            assert recursive_map_step(problem, t1, x) == pytest.approx(closed_form, rel=1e-12)
            checked += 1
    _report(3, "Taylor t_1 equals the Halley closed form at 100 seeded points per problem")


def _qualifying_ratios(points, root, floor=1e-13, start_below=0.5):
    errors = [abs(x - root) for x in points]
    return [
        math.log(e1) / math.log(e0)
        for e0, e1 in zip(errors, errors[1:])
        if e0 < start_below and e0 > floor and e1 > floor and e1 < e0
    ]


def test_c4_order_measurement():
    start = time.perf_counter()
    offsets = {
        ("cubic", 0): 0.05,
        ("cubic", 1): 0.05,
        ("cubic", 2): 0.21,
        ("cubic", 3): 0.47,
        ("exp2", 0): 0.05,
        ("exp2", 1): 0.06,
        ("exp2", 2): 0.27,
        ("exp2", 3): -0.49,
        ("sine", 0): 0.06,
        ("sine", 1): 0.11,
        ("sine", 2): 0.45,
        ("sine", 3): 0.45,
    }
    measured = {}
    for problem in (CUBIC, EXP2, SINE):
        for k in range(4):
            x0 = problem.known_root + offsets[(problem.name, k)]
            trajectory = iterate(problem, newton_barycentric(k), x0, max_iter=40, tol=1e-15).points
            ratios = _qualifying_ratios(trajectory, problem.known_root)
            if len(ratios) >= 2:
                estimate = estimate_order(trajectory, problem.known_root)
                assert estimate == median(ratios)
            else:
                # at pi the sine maps exceed their nominal order (odd error
                # expansion), crossing the measurable error window in one
                # step; the lone qualifying ratio still bounds the order
                assert len(ratios) == 1
                with pytest.raises(InsufficientDataError):
                    estimate_order(trajectory, problem.known_root)
                estimate = ratios[0]
            assert estimate >= k + 2 - 0.3
            measured[(problem.name, k)] = round(estimate, 2)
    halley_trajectory = iterate(
        CUBIC, newton_taylor(1), CUBIC.known_root - 0.055, max_iter=40, tol=1e-15
    ).points
    halley_estimate = estimate_order(halley_trajectory, CUBIC.known_root)
    assert halley_estimate == pytest.approx(3.0, abs=0.3)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(
        4,
        f"barycentric orders {measured} all >= k+2-0.3; Taylor t_1 estimate "
        f"{halley_estimate:.3f} within 3 +/- 0.3 ({elapsed:.3f}s)",
    )


def test_c5_rutishauser_minima(rutishauser_capture):
    problem, config, result = rutishauser_capture
    points = [c.point for c in result.captured]
    for target, g_value in RUTISHAUSER_TARGETS:
        target = np.array(target)
        near = [
            idx for idx, p in enumerate(points) if float(np.linalg.norm(p - target)) <= 1e-6
        ]
        assert near, f"no captured point within 1e-6 of {tuple(target)}"
        for idx in near:
            assert problem.objective(points[idx]) == pytest.approx(g_value, abs=1e-5)
        # each of those points belongs to a cluster
        assert len(result.labels) == len(points)
        assert all(0 <= result.labels[idx] < len(result.clusters) for idx in near)
    print(
        f"[criterion 5] t_32 capture count ours={result.counts.captured} vs reference=18 "
        "(best effort; the published grid widths are not reproducible)"
    )
    _report(5, "all three published stationary points found with matching objective values")


def test_c6_ackley_near_origin_extrema(ackley_fine_capture):
    problem, config, result, elapsed = ackley_fine_capture
    assert elapsed < 60.0
    points = [c.point for c in result.captured]
    for target, g_value in ACKLEY_TARGETS:
        target = np.array(target)
        near = [idx for idx, p in enumerate(points) if float(np.linalg.norm(p - target)) <= 1e-4]
        assert near, f"no cluster contains a point within 1e-4 of {tuple(target)}"
        # the hits of the first cluster, in cluster order, that holds a point near the target
        first = min(result.labels[near])
        hits = [idx for idx in near if result.labels[idx] == first]
        for idx in hits:
            assert problem.objective(points[idx]) == pytest.approx(g_value, abs=1e-3)
    _report(
        6,
        f"eight published extrema located on the 41x41 grid in {elapsed:.1f}s "
        f"({result.counts.captured} captured)",
    )


def test_c7_ackley_symmetry(ackley_fine_capture):
    problem, config, result, _ = ackley_fine_capture
    reps = result.clusters
    domain = config.grid.domain
    worst = 0.0
    for a, b in reps:
        for reflected in ((b, a), (-a, -b), (-a, b), (a, -b)):
            if not domain.contains(reflected):
                continue
            distance = float(np.min(np.linalg.norm(reps - np.array(reflected), axis=1)))
            worst = max(worst, distance)
            assert distance <= 1e-3
    _report(7, f"four-fold reflection symmetry holds (worst counterpart distance {worst:.2e})")


def test_c8_run_determinism(rutishauser_capture, ackley_fine_capture):
    _, rut_config, rut_result = rutishauser_capture
    _, ack_config, ack_result, _ = ackley_fine_capture
    # a second scan on fresh problem objects must repeat the first byte for byte
    rut_csv_again = render_capture_csv(scan_one(rutishauser(), rut_config, T32))
    assert render_capture_csv(rut_result) == rut_csv_again
    ack_csv_again = render_capture_csv(scan_one(ackley_gradient(), ack_config, T54))
    assert render_capture_csv(ack_result) == ack_csv_again
    _report(8, "capture CSVs are byte-identical across two runs on fresh problems")


def _float_weights(k: int) -> np.ndarray:
    # float route: build the weight system in float and solve with LAPACK,
    # independent of the exact-rational implementation
    matrix = np.ones((k + 1, k + 1))
    for i in range(1, k + 1):
        for j in range(k + 1):
            matrix[i, j] = float(1 - j) ** i
    rhs = np.array([1.0 / (i + 1) for i in range(k + 1)])
    return np.linalg.solve(matrix, rhs)


def _oracle_barycentric_next(problem, k, x):
    fx = problem.f(x)
    delta = np.linalg.solve(problem.jacobian(x), -fx)
    phi = problem.jacobian(x)
    for j in range(1, k + 1):
        weights = _float_weights(j)
        phi = sum(weights[i] * problem.jacobian(x + i * delta) for i in range(j + 1))
        delta = np.linalg.solve(phi, -fx)
    return x + delta, phi, delta, fx


def test_c9_vector_step_oracle():
    problem = rutishauser()
    rng = np.random.default_rng(90)
    for _ in range(20):
        x = rng.uniform([-0.45, -0.65], [1.05, 1.05])
        for k in (1, 2):
            expected_next, phi, delta, fx = _oracle_barycentric_next(problem, k, x)
            step = vector_map_step(problem, newton_barycentric(k), x)
            assert step == pytest.approx(expected_next, rel=1e-10)
            residual = np.max(np.abs(phi @ (step - x) + fx))
            bound = 1e-9 * (
                np.max(np.abs(phi)) * np.max(np.abs(step - x)) + np.max(np.abs(fx))
            )
            assert residual <= bound
    _report(9, "barycentric steps for k=1,2 match the float-route oracle at 20 points")
