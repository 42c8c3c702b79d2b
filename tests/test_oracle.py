"""A high-precision oracle for the R^n barycentric step on the Rutishauser system
and on a 3-D polynomial system.

The oracle takes the engine's step in mpmath arithmetic: f and J from the
exact decimal coefficients, the exact barycentric weights, an n x n solve and
the same h recursion (h_1 is the Newton delta, h_{j+1} the delta solved for
t_j).  Far below float64 rounding it shows the order k + 2 of a bary:k step,
which float64 iterates near a critical point cannot reach.  The 3-D system
takes the engine's n != 2 solve, Gaussian elimination with partial pivoting.
"""

import numpy as np
import pytest

from rootmaps import VectorProblem, barycentric_coefficients, newton_barycentric, rutishauser, vector_map_step

mpmath = pytest.importorskip("mpmath")
mpf = mpmath.mpf

START = [0.693716, 0.459591]  # near the Rutishauser minimum where g = 0.167974
# Starts close to each critical point, as (id prefix, start): both minima (the
# problem is symmetric under x <-> y) and the saddle on the diagonal.  A start
# farther off, such as [0.594, 0.5939] by the saddle, leaves k = 0 pre-asymptotic.
STARTS = [("", START), ("swap-", [0.459591, 0.693716]), ("saddle-", [0.593976, 0.593977])]
CASES = [pytest.param(start, k, id=f"{prefix}{k}") for prefix, start in STARTS for k in range(6)]
# The third difference of bary:k at START is about 1e-139 for k = 3, 1e-200 for
# k = 4 and 1e-272 for k = 5; each working precision resolves it with digits to spare.
DIGITS = {4: 250, 5: 400}


# The terms of f_1, of J_11 and of J_12 = J_21, in the kernels' order; f_2 and J_22 swap u and v.
def _component(u, v):
    return [-2, -mpf("1.2") * u, 2 * v, -mpf("4.08") * u**2, mpf("3.92") * u**3, 4 * u * v**2,
            6 * u**5, 6 * u**2 * v**3, 8 * u**7, 8 * u**3 * v**4]


def _diagonal(u, v):
    return [mpf("-1.2"), -mpf("8.16") * u, mpf("11.76") * u**2, 4 * v**2,
            30 * u**4, 12 * u * v**3, 56 * u**6, 24 * u**2 * v**4]


def _cross(x, y):
    return [2, 8 * x * y, 18 * x**2 * y**2, 32 * x**3 * y**3]


def oracle_f(p):
    return mpmath.matrix([mpmath.fsum(_component(p[0], p[1])), mpmath.fsum(_component(p[1], p[0]))])


def oracle_jacobian(p):
    x, y = p[0], p[1]
    off = mpmath.fsum(_cross(x, y))
    return mpmath.matrix([[mpmath.fsum(_diagonal(x, y)), off], [off, mpmath.fsum(_diagonal(y, x))]])


def oracle_step(k, x, f=oracle_f, jacobian=oracle_jacobian):
    """One bary:k step from the mpmath column x, as orders_rows takes it."""
    fx = f(x)
    delta = mpmath.lu_solve(jacobian(x), -fx)
    for j in range(1, k + 1):
        weights = [mpf(a.numerator) / a.denominator for a in barycentric_coefficients(j).a]
        phi = sum((w * jacobian(x + i * delta) for i, w in enumerate(weights)), mpmath.zeros(len(x), len(x)))
        delta = mpmath.lu_solve(phi, -fx)
    return x + delta


@pytest.fixture
def digits():
    with mpmath.workdps(200):
        yield


def test_oracle_is_the_engine_problem(digits):
    problem, start = rutishauser(), mpmath.matrix(START)
    assert [float(v) for v in oracle_f(start)] == pytest.approx(problem.f(np.array(START)).tolist(), abs=1e-14)
    jacobian = [float(v) for v in oracle_jacobian(start)]  # row by row
    assert jacobian == pytest.approx(problem.jacobian(np.array(START)).ravel().tolist(), abs=1e-14)


# A first-order bound on the float64 kernels' error, in units of 2**-53 times the sum of the
# terms' absolute values: each term's decimal coefficient rounds once, its products round once
# each, a power v^e carries the roundings of the product chain v2 = v*v, v3 = v2*v, v4 = v2*v2,
# v5 = v4*v, v6 = v4*v2, v7 = v6*v (1, 2, 3, 4, 5 and 6), and the left-to-right sum rounds it
# once per add it passes through.  The most is 11 for f (1.2 * u: 1 + 1 + 9 adds) and 9 for J
# (8.16 * u and 11.76 * u * u).  At the test's 2000 points the chain reads at most 3.80 for f
# and 3.69 for J (means 0.54 and 0.50); libm's pow, which the kernels took before, read the same
# maxima (means 0.48 and 0.45).
ROUNDING_BOUND = {"f": 11, "jacobian": 9}


@pytest.mark.parametrize("field", ["f", "jacobian"])
def test_float64_kernels_are_within_the_rounding_bound(field):
    problem = rutishauser()
    points = np.random.default_rng(95).uniform(problem.domain.lo, problem.domain.hi, size=(2000, 2))
    got = getattr(problem, field)(points).reshape(len(points), -1)
    worst = 0.0
    with mpmath.workdps(40):
        for (x, y), row in zip(points.tolist(), got.tolist()):
            x, y = mpf(x), mpf(y)
            if field == "f":
                entries = [_component(x, y), _component(y, x)]
            else:
                entries = [_diagonal(x, y), _cross(x, y), _cross(y, x), _diagonal(y, x)]
            for terms, value in zip(entries, row):
                error = abs(value - mpmath.fsum(terms)) / mpmath.fsum(abs(t) for t in terms)
                worst = max(worst, float(error * 2**53))
    assert 0 < worst <= ROUNDING_BOUND[field]


@pytest.mark.parametrize("start, k", CASES)
def test_acoc_is_k_plus_two(start, k):
    # the ACOC of Cordero & Torregrosa (2007) needs no root: with d_n = ||x_n - x_{n-1}||,
    # ln(d_3 / d_2) / ln(d_2 / d_1) tends to the order.  Order k + 2 needs the exact
    # weights of every order up to k.
    with mpmath.workdps(DIGITS.get(k, 200)):
        iterates = [mpmath.matrix(start)]
        for _ in range(3):
            iterates.append(oracle_step(k, iterates[-1]))
        d1, d2, d3 = (mpmath.norm(b - a) for a, b in zip(iterates, iterates[1:]))
        assert abs(float(mpmath.log(d3 / d2) / mpmath.log(d2 / d1)) - (k + 2)) < 0.3


@pytest.mark.parametrize("start, k", CASES)
def test_float64_step_is_within_16_ulps_of_the_oracle(start, k):
    # the bound covers the engine's rounding and its binary coefficients (1.2, 4.08, ...);
    # at most 6 ulps were seen over these cases
    got = vector_map_step(rutishauser(), newton_barycentric(k), np.array(start))
    with mpmath.workdps(DIGITS.get(k, 200)):
        want = np.array([float(v) for v in oracle_step(k, mpmath.matrix(start))])
    assert (np.abs(got - want) <= 16 * np.spacing(want)).all(), (got - want) / np.spacing(want)


# A 3-D polynomial system with a simple root near (1.102053, 0.987377, 0.884433).  Its
# coefficients are exact in binary, so the float64 kernels and the oracle share them.  The
# largest entry of J's first column is in its last row, so the elimination swaps rows.
START_3D = [1.1, 0.99, 0.88]


def _cubic_components(x, y, z):
    return [y**5 + z * x * x + y - 3.0, z**5 + x * y * y + z - 2.5, x**5 + y * z * z + x - 3.5]


def _cubic_jacobian(x, y, z):
    return [[2 * z * x, 5 * y**4 + 1, x * x], [y * y, 2 * x * y, 5 * z**4 + 1], [5 * x**4 + 1, z * z, 2 * y * z]]


def cubic_3d():
    """The 3-D system as a VectorProblem on (..., 3) float arrays."""
    return VectorProblem(
        n=3,
        f=lambda p: np.stack(_cubic_components(*np.moveaxis(p, -1, 0)), axis=-1),
        jacobian=lambda p: np.stack([np.stack(row, axis=-1) for row in _cubic_jacobian(*np.moveaxis(p, -1, 0))],
                                    axis=-2),
    )


def oracle_cubic_f(p):
    return mpmath.matrix(_cubic_components(p[0], p[1], p[2]))


def oracle_cubic_jacobian(p):
    return mpmath.matrix(_cubic_jacobian(p[0], p[1], p[2]))


def cubic_step(k, x):
    return oracle_step(k, x, oracle_cubic_f, oracle_cubic_jacobian)


def test_cubic_oracle_is_the_engine_problem(digits):
    problem, start = cubic_3d(), mpmath.matrix(START_3D)
    assert [float(v) for v in oracle_cubic_f(start)] == pytest.approx(problem.f(np.array(START_3D)).tolist(), abs=1e-14)
    jacobian = [float(v) for v in oracle_cubic_jacobian(start)]  # row by row
    assert jacobian == pytest.approx(problem.jacobian(np.array(START_3D)).ravel().tolist(), abs=1e-14)


@pytest.mark.parametrize("k", range(4))
def test_cubic_acoc_is_k_plus_two(k, digits):
    iterates = [mpmath.matrix(START_3D)]
    for _ in range(3):
        iterates.append(cubic_step(k, iterates[-1]))
    d1, d2, d3 = (mpmath.norm(b - a) for a, b in zip(iterates, iterates[1:]))
    assert abs(float(mpmath.log(d3 / d2) / mpmath.log(d2 / d1)) - (k + 2)) < 0.3


@pytest.mark.parametrize("k", range(4))
def test_cubic_float64_step_is_within_16_ulps_of_the_oracle(k, digits):
    # at most 1 ulp was seen for k = 0..3, both with a BLAS dot and with a left-to-right
    # back-substitution; the bound is the 2-D one
    got = vector_map_step(cubic_3d(), newton_barycentric(k), np.array(START_3D))
    want = np.array([float(v) for v in cubic_step(k, mpmath.matrix(START_3D))])
    assert (np.abs(got - want) <= 16 * np.spacing(want)).all(), (got - want) / np.spacing(want)
