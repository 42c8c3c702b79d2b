import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import test_golden
from rootmaps import (
    Box,
    EvaluationError,
    GridSpec,
    VectorProblem,
    rutishauser,
    scalar_problem,
    scalar_test_set,
    vector_problem,
)
from rootmaps.capture import make_grid
from rootmaps.mapsnd import Failures, evaluate_rows
from rootmaps import problems
from rootmaps.problems import ProblemFormatError, _parse_poly_line, ackley_gradient, load_polynomial_problem

RUT = rutishauser()
ACK = ackley_gradient()


def central_difference(fn, p, axis, step=1e-6):
    e = np.zeros(len(p))
    e[axis] = step
    return (fn(p + e) - fn(p - e)) / (2.0 * step)


class TestRutishauser:
    @pytest.mark.parametrize(
        "point,g_value",
        [
            ((0.459591, 0.693716), 0.167974),
            ((0.693716, 0.459591), 0.167974),
            ((0.593976, 0.593976), 0.169389),
        ],
    )
    def test_published_stationary_points(self, point, g_value):
        p = np.array(point)
        assert np.max(np.abs(RUT.f(p))) <= 1e-3
        assert RUT.objective(p) == pytest.approx(g_value, abs=1e-5)

    def test_swap_symmetry_is_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            x, y = rng.uniform(-0.5, 1.1), rng.uniform(-0.7, 1.1)
            fwd = RUT.f(np.array([x, y]))
            swapped = RUT.f(np.array([y, x]))
            assert fwd[0] == swapped[1]
            assert fwd[1] == swapped[0]

    def test_gradient_consistency(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            p = rng.uniform([-0.4, -0.6], [1.0, 1.0])
            for axis in range(2):
                fd = central_difference(RUT.objective, p, axis)
                assert abs(fd - RUT.f(p)[axis]) <= 1e-5

    def test_jacobian_consistency(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            p = rng.uniform([-0.4, -0.6], [1.0, 1.0])
            jac = RUT.jacobian(p)
            for axis in range(2):
                fd = central_difference(RUT.f, p, axis)
                assert np.max(np.abs(fd - jac[:, axis])) <= 1e-4

    def test_domain(self):
        assert RUT.domain.lo == (-0.5, -0.7)
        assert RUT.domain.hi == (1.1, 1.1)


class TestAckley:
    def test_origin_is_global_maximum_value_zero(self):
        assert ACK.objective(np.zeros(2)) == pytest.approx(0.0, abs=1e-12)
        assert np.array_equal(ACK.f(np.zeros(2)), np.zeros(2))

    def test_origin_jacobian_undefined(self):
        assert np.isnan(ACK.jacobian(np.zeros(2))).all()

    @pytest.mark.parametrize(
        "point,g_value,g_tol",
        [
            ((-1.65185, -1.65185), -7.7843, 1e-4),
            ((1.6103, 0.0), -5.66925, 1e-5),
        ],
    )
    def test_published_extrema_values(self, point, g_value, g_tol):
        p = np.array(point)
        assert ACK.objective(p) == pytest.approx(g_value, abs=g_tol)
        # printed points are 6-decimal roundings of true critical points
        assert np.max(np.abs(ACK.f(p))) <= 1e-3

    def test_gradient_consistency_away_from_origin(self):
        rng = np.random.default_rng(34)
        count = 0
        while count < 50:
            p = rng.uniform(-4.0, 4.0, size=2)
            if np.linalg.norm(p) < 0.1:
                continue
            for axis in range(2):
                fd = central_difference(ACK.objective, p, axis)
                assert abs(fd - ACK.f(p)[axis]) <= 1e-5
            count += 1

    def test_jacobian_consistency_away_from_origin(self):
        rng = np.random.default_rng(35)
        count = 0
        while count < 50:
            p = rng.uniform(-4.0, 4.0, size=2)
            if np.linalg.norm(p) < 0.1:
                continue
            jac = ACK.jacobian(p)
            for axis in range(2):
                fd = central_difference(ACK.f, p, axis)
                assert np.max(np.abs(fd - jac[:, axis])) <= 1e-4
            count += 1

    def test_sign_symmetries_are_exact(self):
        # each built-in problem's declared mirror axes: x_a -> -x_a flips the sign of f_a and of
        # J's row and column a but (a, a), bit for bit (tobytes, so signed zeros count)
        assert (RUT.mirror_axes, ACK.mirror_axes, RUT.swap_axes, ACK.swap_axes) == ((), (0, 1), (), (0, 1))
        rng = np.random.default_rng(36)
        for name in ("rutishauser", "ackley"):
            problem = vector_problem(name)
            points = rng.uniform(problem.domain.lo, problem.domain.hi, size=(200, problem.n))
            for a in problem.mirror_axes:
                flipped = points.copy()
                flipped[:, a] = -points[:, a]
                f, jacobian = problem.f(points), problem.jacobian(points)
                f[:, a] = -f[:, a]
                jacobian[:, a] = -jacobian[:, a]
                jacobian[:, :, a] = -jacobian[:, :, a]  # (a, a) flips twice
                assert problem.f(flipped).tobytes() == f.tobytes()
                assert problem.jacobian(flipped).tobytes() == jacobian.tobytes()
                # on the axis, at +0.0 and -0.0, f_a and J's row and column a but (a, a) are
                # zeros, whose signs may not flip (a sum of zeros of opposite signs is +0.0),
                # and every other value has the same bits on both sides
                plus, minus = points.copy(), points.copy()
                plus[:, a], minus[:, a] = 0.0, -0.0
                fs, jacobians = (problem.f(plus), problem.f(minus)), (problem.jacobian(plus), problem.jacobian(minus))
                cross = np.zeros((problem.n, problem.n), dtype=bool)
                cross[a], cross[:, a], cross[a, a] = True, True, False
                for f, jacobian in zip(fs, jacobians):
                    assert (f[:, a] == 0.0).all() and (jacobian[:, cross] == 0.0).all()
                assert np.delete(fs[0], a, axis=1).tobytes() == np.delete(fs[1], a, axis=1).tobytes()
                assert jacobians[0][:, ~cross].tobytes() == jacobians[1][:, ~cross].tobytes()


# Coordinates from every range a scan can reach: signed zeros, the search box and
# magnitudes up to 1e300, whose squares and powers overflow
COORDINATES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-40.0, 40.0), st.floats(-1e300, 1e300))
SYMMETRY_POINTS = st.one_of(
    st.tuples(COORDINATES, COORDINATES),
    COORDINATES.map(lambda v: (v, v)),  # on the diagonal
    st.tuples(st.sampled_from([0.0, -0.0]), st.sampled_from([0.0, -0.0])),  # the origin
)


def agree(got, want, zeros=False):
    """Elementwise: the same bits, or both NaN (a NaN fails evaluation whatever its sign and
    payload), or both zeros of any sign where zeros is set."""
    same = got.view(np.int64) == want.view(np.int64)
    return same | (np.isnan(got) & np.isnan(want)) | (zeros & (got == 0.0) & (want == 0.0))


class TestDeclaredSymmetries:
    """Each built-in problem's declared symmetries hold for f and J bit for bit at any point:
    flipping x_a for a mirror axis a flips f_a and J's row and column a but (a, a), up to the
    sign of a zero, and exchanging the swap axes exchanges f's components and J's rows and
    columns."""

    @pytest.mark.parametrize("name", ["rutishauser", "ackley"])
    @given(points=st.lists(SYMMETRY_POINTS, min_size=1, max_size=16), seed=st.integers(0, 2**32 - 1))
    def test_mirrors_and_swap_hold_bit_for_bit(self, name, points, seed):
        problem = vector_problem(name)
        # and a seeded block of generic points: Ackley's J with x * y * c for (x * y) * c breaks
        # the swap at about 0.5 % of them, and few drawn points are that generic
        block = np.random.default_rng(seed).uniform(-40.0, 40.0, size=(256, 2))
        p = np.concatenate([np.array(points, dtype=float), block])
        f, jacobian = problem.f(p), problem.jacobian(p)
        for a in problem.mirror_axes:
            flipped, sign = p.copy(), np.ones(problem.n)
            flipped[:, a], sign[a] = -p[:, a], -1.0
            # a flipped value that is a zero, as on the axis, may keep its sign
            assert agree(problem.f(flipped), f * sign, sign < 0.0).all()
            assert agree(problem.jacobian(flipped), jacobian * np.outer(sign, sign), np.outer(sign, sign) < 0.0).all()
        if problem.swap_axes:
            order = np.arange(problem.n)
            order[list(problem.swap_axes)] = problem.swap_axes[::-1]
            assert agree(problem.f(p[:, order]), f[:, order]).all()
            assert agree(problem.jacobian(p[:, order]), jacobian[:, order][:, :, order]).all()


class TestScalarSet:
    def test_membership_and_roots(self):
        cubic, exp2, sine = scalar_test_set()
        assert cubic.f(cubic.known_root) == pytest.approx(0.0, abs=1e-14)
        assert exp2.known_root == math.log(2.0)
        assert sine.known_root == math.pi
        assert sine.domain == (2.0, 4.0)
        for problem in (cubic, exp2, sine):
            assert problem.max_derivative_order == 6

    def test_polynomial_derivatives(self):
        cubic = scalar_problem("cubic")
        assert cubic.derivatives[1](1.0) == 6.0

    def test_exponential_derivatives_all_equal(self):
        exp2 = scalar_problem("exp2")
        for d in exp2.derivatives:
            assert d(0.7) == math.exp(0.7)

    @pytest.mark.parametrize("name", ["cubic", "exp2", "sine"])
    def test_derivative_chain_consistency(self, name):
        # each listed derivative is the finite difference of the previous one
        problem = scalar_problem(name)
        chain = [problem.f] + list(problem.derivatives)
        for lower, upper in zip(chain, chain[1:]):
            for x in (2.2, 2.9, 3.6) if name == "sine" else (0.4, 0.9, 1.3):
                fd = (lower(x + 1e-6) - lower(x - 1e-6)) / 2e-6
                assert fd == pytest.approx(upper(x), abs=1e-4)

    def test_unknown_name_raises(self):
        with pytest.raises(ProblemFormatError):
            scalar_problem("quartic")


class TestPolynomialFiles:
    def test_load_affine_system(self, tmp_path):
        path = tmp_path / "affine.poly"
        path.write_text(
            "# affine test system\n"
            "domain -10 10 -10 10\n"
            "poly 2 : 3.0 1 0 ; 1.0 0 1 ; -1.0 0 0\n"
            "poly 2 : 1.0 1 0 ; 2.0 0 1 ; 1.0 0 0\n"
        )
        problem = load_polynomial_problem(str(path))
        assert problem.n == 2
        p = np.array([2.0, -1.0])
        assert problem.f(p) == pytest.approx([3.0 * 2 - 1 - 1, 2.0 - 2 + 1])
        assert np.allclose(problem.jacobian(p), [[3.0, 1.0], [1.0, 2.0]], rtol=0, atol=1e-15)
        assert problem.domain.lo == (-10.0, -10.0)

    def test_nonlinear_jacobian_matches_finite_differences(self, tmp_path):
        path = tmp_path / "cubic.poly"
        path.write_text(
            "poly 2 : 1.0 3 0 ; 2.0 1 2 ; -4.0 0 0\n"
            "poly 2 : 5.0 0 1 ; -1.0 2 1\n"
        )
        problem = load_polynomial_problem(str(path))
        p = np.array([1.2, -0.7])
        jac = problem.jacobian(p)
        for axis in range(2):
            fd = central_difference(problem.f, p, axis)
            assert np.max(np.abs(fd - jac[:, axis])) <= 1e-5

    @pytest.mark.parametrize(
        "content",
        [
            "poly 2 : 1.0 1 0\n",  # only one component for n=2
            "poly 2 : 1.0 1\npoly 2 : 1.0 0 1\n",  # wrong exponent arity
            "poly x : 1.0 1 0\npoly 2 : 1.0 0 1\n",  # bad dimension
            "poly 2 : 1.0 1 -1\npoly 2 : 1.0 0 1\n",  # negative exponent
            f"poly 2 : 1.0 {2**63} 0\npoly 2 : 1.0 0 1\n",  # exponent past int64
            "domain 0 1 0 1 5\npoly 1 : 1.0 1\n",  # bad domain line
            "wibble\n",  # unrecognized line
            "",  # empty file
        ],
    )
    def test_malformed_files_raise(self, tmp_path, content):
        path = tmp_path / "bad.poly"
        path.write_text(content)
        with pytest.raises(ProblemFormatError):
            load_polynomial_problem(str(path))

    @pytest.mark.parametrize(
        "content, message",
        [
            ("poly 0 : 1\n", "line 1: dimension must be >= 1, got 0"),
            ("poly 2 : one 1 0\npoly 2 : 1.0 0 1\n", "line 1: bad term 'one 1 0'"),
            ("poly 2 : ;\npoly 2 : 1.0 0 1\n", "line 1: component has no terms"),
            ("domain a b c d\npoly 1 : 1.0 1\n", "line 1: bad domain 'domain a b c d'"),
            ("poly 1 : 1.0 1\npoly 2 : 1.0 0 1\n", "components declare different dimensions"),
        ],
    )
    def test_malformed_files_name_the_fault(self, tmp_path, content, message):
        path = tmp_path / "bad.poly"
        path.write_text(content)
        with pytest.raises(ProblemFormatError, match=re.escape(message)):
            load_polynomial_problem(str(path))

    def test_empty_term_is_skipped(self, tmp_path):
        path = tmp_path / "gap.poly"
        path.write_text("poly 2 : 3.0 1 0 ; ; 1.0 0 1\npoly 2 : 1.0 1 0 ;; 2.0 0 1 ;\n")
        problem = load_polynomial_problem(str(path))
        assert problem.f(np.array([2.0, -1.0])).tolist() == [5.0, 0.0]

    @pytest.mark.parametrize(
        "line, message",
        [
            ("domain -inf inf -1 1", "line 2: non-finite domain bound"),
            ("domain nan 1 -1 1", "line 2: non-finite domain bound"),
            ("domain -1 1 -1 1e400", "line 2: non-finite domain bound"),
            ("poly 2 : nan 1 0 ; 1.0 0 1", "line 2: non-finite coefficient in 'nan 1 0'"),
            ("poly 2 : 1.0 1 0 ; -inf 0 1", "line 2: non-finite coefficient in '-inf 0 1'"),
            ("poly 2 : 1e400 1 0", "line 2: non-finite coefficient in '1e400 1 0'"),
        ],
    )
    def test_non_finite_numbers_raise_naming_the_line(self, tmp_path, line, message):
        path = tmp_path / "bad.poly"
        path.write_text(f"# a non-finite number\n{line}\npoly 2 : 1.0 1 0 ; 2.0 0 1\npoly 2 : 1.0 0 1\n")
        with pytest.raises(ProblemFormatError, match=re.escape(message)):
            load_polynomial_problem(str(path))

    def test_vector_problem_lookup(self, tmp_path):
        assert vector_problem("rutishauser").name == "rutishauser"
        assert vector_problem("ackley").name == "ackley"
        path = tmp_path / "ok.poly"
        path.write_text("poly 1 : 1.0 1 ; -2.0 0\n")
        assert vector_problem(str(path)).n == 1
        with pytest.raises(FileNotFoundError):
            vector_problem("nonexistent")


def write_random_gradient_file(path, seed, n=2, degree=7):
    """The gradient of a seeded random polynomial in n variables, as a poly file.

    Every monomial of total degree <= degree gets a standard normal
    coefficient; the file declares the domain [-1, 1]^2 when n is 2.
    """
    rng = np.random.default_rng(seed)
    monomials = [e for e in np.ndindex(*(degree + 1,) * n) if sum(e) <= degree]
    coeffs = rng.standard_normal(len(monomials)).tolist()
    lines = ["domain -1 1 -1 1"] if n == 2 else []
    for axis in range(n):
        terms = []
        for coeff, exponents in zip(coeffs, monomials):
            if exponents[axis] > 0:
                lowered = list(exponents)
                lowered[axis] -= 1
                terms.append(" ".join([repr(coeff * exponents[axis]), *map(str, lowered)]))
        lines.append(f"poly {n} : " + " ; ".join(terms))
    path.write_text("\n".join(lines) + "\n")
    return path


def reference_component(component, point):
    """The term-by-term loop the loader evaluated before power tables: the
    oracle of the loaded f and Jacobian."""
    total = 0.0
    for coeff, exponents in component.terms:
        value = coeff
        for x_i, e_i in zip(point, exponents):
            value *= float(x_i) ** e_i
        total += value
    return total


def reference_problem(path):
    """(f, jacobian) of a poly file, evaluated one point at a time by
    reference_component."""
    lines = [line.strip() for line in path.read_text().splitlines()]
    components = [_parse_poly_line(line, 0) for line in lines if line.startswith("poly")]
    n = len(components)
    partials = [[c.partial(j) for j in range(n)] for c in components]

    def f(p):
        return np.array([reference_component(c, p) for c in components])

    def jacobian(p):
        return np.array([[reference_component(partials[i][j], p) for j in range(n)] for i in range(n)])

    return f, jacobian


# ---------------------------------------------------------------------------
# The per-point kernels of the built-in problems, in plain Python floats: the
# oracles of the array-in problems.  The Ackley ones are as they were before the
# problems took arrays of points, and raise OverflowError or ValueError where a
# point cannot be evaluated.  The Rutishauser ones take their powers by the
# kernels' product chain, not by **, so they never raise: an overflowing power
# is a signed infinity, as in the kernels.
# ---------------------------------------------------------------------------


def _chain(v):
    """v ** e for e = 3..7 by the kernels' product chain, not pow: v2 = v*v, v3 = v2*v,
    v4 = v2*v2, v5 = v4*v, v6 = v4*v2, v7 = v6*v."""
    v2 = v * v
    v4 = v2 * v2
    v6 = v4 * v2
    return {3: v2 * v, 4: v4, 5: v4 * v, 6: v6, 7: v6 * v}


def _rutishauser_component(u, v):
    pu, pv = _chain(u), _chain(v)
    return (
        -2.0
        - 1.2 * u
        + 2.0 * v
        - 4.08 * u * u
        + 3.92 * pu[3]
        + 4.0 * u * v * v
        + 6.0 * pu[5]
        + 6.0 * u * u * pv[3]
        + 8.0 * pu[7]
        + 8.0 * pu[3] * pv[4]
    )


def _rutishauser_diag(u, v):
    pu, pv = _chain(u), _chain(v)
    return (
        -1.2
        - 8.16 * u
        + 11.76 * u * u
        + 4.0 * v * v
        + 30.0 * pu[4]
        + 12.0 * u * pv[3]
        + 56.0 * pu[6]
        + 24.0 * u * u * pv[4]
    )


def _rutishauser_cross(u, v):
    return 2.0 + 8.0 * u * v + 18.0 * u * u * v * v + 32.0 * _chain(u)[3] * _chain(v)[3]


def _rutishauser_f(p):
    x, y = float(p[0]), float(p[1])
    return np.array([_rutishauser_component(x, y), _rutishauser_component(y, x)])


def _rutishauser_jacobian(p):
    x, y = float(p[0]), float(p[1])
    cross = _rutishauser_cross(x, y)
    return np.array([[_rutishauser_diag(x, y), cross], [cross, _rutishauser_diag(y, x)]])


def _rutishauser_objective(p):
    x, y = float(p[0]), float(p[1])
    s1 = x + y - 1.0
    s2 = x * x + y * y - 0.8
    s3 = _chain(x)[3] + _chain(y)[3] - 0.68
    s4 = _chain(x)[4] + _chain(y)[4] - 0.01
    return s1 * s1 + s2 * s2 + s3 * s3 + s4 * s4


_ACKLEY_RADIAL = 2.8284271247461907
_ACKLEY_DECAY = 0.14142135623730953
_ACKLEY_WAVE = 3.141592653589793
_TWO_PI = 2.0 * math.pi


def _ackley_f(p):
    x, y = float(p[0]), float(p[1])
    r = math.sqrt(x * x + y * y)
    if r == 0.0:
        return np.zeros(2)
    e_radial = math.exp(-_ACKLEY_DECAY * r)
    e_wave = math.exp(0.5 * (math.cos(_TWO_PI * x) + math.cos(_TWO_PI * y)))
    return np.array(
        [
            -_ACKLEY_RADIAL * e_radial * x / r - _ACKLEY_WAVE * e_wave * math.sin(_TWO_PI * x),
            -_ACKLEY_RADIAL * e_radial * y / r - _ACKLEY_WAVE * e_wave * math.sin(_TWO_PI * y),
        ]
    )


def _ackley_jacobian(p):
    x, y = float(p[0]), float(p[1])
    r = math.sqrt(x * x + y * y)
    if r == 0.0:
        return np.full((2, 2), math.nan)
    e_radial = math.exp(-_ACKLEY_DECAY * r)
    sx, cx = math.sin(_TWO_PI * x), math.cos(_TWO_PI * x)
    sy, cy = math.sin(_TWO_PI * y), math.cos(_TWO_PI * y)
    e_wave = math.exp(0.5 * (cx + cy))
    r2, r3 = r * r, r * r * r
    j11 = -_ACKLEY_RADIAL * e_radial * (1.0 / r - x * x / r3 - _ACKLEY_DECAY * x * x / r2) - (
        _ACKLEY_WAVE * e_wave * (_TWO_PI * cx - math.pi * sx * sx)
    )
    j22 = -_ACKLEY_RADIAL * e_radial * (1.0 / r - y * y / r3 - _ACKLEY_DECAY * y * y / r2) - (
        _ACKLEY_WAVE * e_wave * (_TWO_PI * cy - math.pi * sy * sy)
    )
    j12 = _ACKLEY_RADIAL * e_radial * (x * y) * (_ACKLEY_DECAY / r2 + 1.0 / r3) + (
        _ACKLEY_WAVE * math.pi * e_wave * (sx * sy)
    )
    return np.array([[j11, j12], [j12, j22]])


def _ackley_objective(p):
    x, y = float(p[0]), float(p[1])
    s1 = -0.2 * math.sqrt(0.5 * (x * x + y * y))
    s2 = 0.5 * (math.cos(_TWO_PI * x) + math.cos(_TWO_PI * y))
    return 20.0 * math.exp(s1) + math.exp(s2) - 20.0 - math.e


def reference_rutishauser():
    """rutishauser() with its per-point oracle kernels."""
    return VectorProblem(
        n=2, f=_rutishauser_f, jacobian=_rutishauser_jacobian, objective=_rutishauser_objective,
        domain=RUT.domain, name="rutishauser",
    )


def reference_ackley():
    """ackley_gradient() with its per-point oracle kernels."""
    return VectorProblem(
        n=2, f=_ackley_f, jacobian=_ackley_jacobian, objective=_ackley_objective,
        domain=ACK.domain, name="ackley",
    )


def reference_outcome(fn, point):
    """The bytes of a per-point oracle's value at point, or "fails" where it
    raises because the point cannot be evaluated (a float division by zero
    included: the oracles raise it where r**3 underflows near Ackley's origin).

    NaNs compare as one value: which operand's sign and payload a NaN sum
    carries depends on the interpreter's code path, not on the operations,
    and a NaN fails evaluation whatever its bits.
    """
    try:
        value = np.asarray(fn(point), dtype=float)
    except (ArithmeticError, ValueError):
        return "fails"
    return np.where(np.isnan(value), np.nan, value).tobytes()


def outcome(value, expected):
    """value's outcome in the terms of reference_outcome, given the oracle's
    outcome expected: where the oracle raises, the array-in problems give a
    non-finite value instead, which fails evaluation the same way."""
    value = np.asarray(value, dtype=float)
    if expected == "fails" and not np.isfinite(value).all():
        return "fails"
    return np.where(np.isnan(value), np.nan, value).tobytes()


def assert_matches_oracle(fn, oracle, points):
    """fn on each point alone, as an (n,) array, on all of them as one (N, n)
    batch and as a stacked (2, N, n) one, against the per-point oracle, bit
    for bit, and on none as a (0, n) batch; the number of points that cannot
    be evaluated."""
    points = np.asarray(points, dtype=float)
    batch = fn(points)
    fails = 0
    for point, row in zip(points, batch):
        expected = reference_outcome(oracle, point)
        assert outcome(fn(point), expected) == expected, point
        assert outcome(row, expected) == expected, point
        fails += expected == "fails"
    stacked = fn(np.stack([points, points[::-1]]))
    assert stacked.shape == (2, *batch.shape)
    assert outcome(stacked, None) == outcome(np.stack([batch, batch[::-1]]), None)
    assert fn(points[:0]).shape == (0, *batch.shape[1:])
    return fails


# coordinates whose powers are exact, signed zeros, large enough to overflow
# from some power on, subnormal on squaring, or not finite
SPECIAL_COORDINATES = (
    0.0, -0.0, 1.0, -1.0, 0.5, -3.0, 1e-200, -1e-170, 1e40, -1e43, 1e44, 1e45, -1e45,
    1e52, 1e155, -1e300, math.inf, -math.inf, math.nan,
)


def oracle_points(n, seed, lo=-1.5, hi=1.5):
    """Random points, random mixes of special coordinates and every special
    coordinate on all axes."""
    rng = np.random.default_rng(seed)
    points = [rng.uniform(lo, hi, size=n) for _ in range(50)]
    points += [rng.choice(SPECIAL_COORDINATES, size=n) for _ in range(200)]
    points += [np.full(n, v) for v in SPECIAL_COORDINATES]
    return np.array(points)


def grid_points(domain, size):
    return make_grid(GridSpec(domain=domain, nx=size, ny=size))


class TestBuiltinsAgainstOracles:
    """The array-in built-in problems against their per-point kernels."""

    @pytest.mark.parametrize("name", ["rutishauser", "ackley"])
    @pytest.mark.parametrize("field", ["f", "jacobian", "objective"])
    def test_bit_for_bit(self, name, field):
        problem = RUT if name == "rutishauser" else ACK
        oracle = reference_rutishauser() if name == "rutishauser" else reference_ackley()
        lo, hi = np.array(problem.domain.lo), np.array(problem.domain.hi)
        sets = [grid_points(problem.domain, 19), grid_points(problem.domain, 41)]
        sets += [np.random.default_rng(90).uniform(lo, hi, size=(500, 2)), oracle_points(2, 91), np.zeros((1, 2))]
        fails = [assert_matches_oracle(getattr(problem, field), getattr(oracle, field), s) for s in sets]
        # the special coordinates include points no kernel can evaluate: the Ackley
        # oracle raises there, and the Rutishauser one gives the same non-finite
        # values as its kernel, compared like any others; at the origin, alone as
        # a (2,) point, Ackley's f is 0 and its J is NaN
        finite = np.isfinite(getattr(problem, field)(sets[3])).all()
        assert fails[3] > 0 if name == "ackley" else (fails[3] == 0 and not finite)
        assert fails[:3] + fails[4:] == [0, 0, 0, 0]
        if name == "ackley":
            assert ACK.f(np.zeros(2)).tolist() == [0.0, 0.0] and np.isnan(ACK.jacobian(np.zeros(2))).all()

    def test_ackley_origin_in_a_batch(self):
        # every point where the radius rounds to 0 is the origin, inside a
        # batch as alone; at radius 1e-150, r**3 underflows and J fails
        points = np.array([[0.0, 0.0], [-0.0, 0.0], [1e-200, -1e-170], [1.0, 2.0], [0.0, 1e-150]])
        assert_matches_oracle(ACK.f, _ackley_f, points)
        assert assert_matches_oracle(ACK.jacobian, _ackley_jacobian, points) == 1
        assert np.isnan(ACK.jacobian(points)[:3]).all() and np.isfinite(ACK.jacobian(points)[3]).all()

    def test_leading_batch_axes(self):
        points = grid_points(RUT.domain, 6).reshape(3, 12, 2)
        for problem in (RUT, ACK):
            assert problem.f(points).shape == (3, 12, 2)
            assert problem.jacobian(points).shape == (3, 12, 2, 2)
            assert problem.objective(points).shape == (3, 12)
            assert problem.jacobian(points).tobytes() == problem.jacobian(points.reshape(-1, 2)).tobytes()

    def test_numpy_trigonometry_matches_libm(self):
        # the Ackley kernels take np.sin and np.cos for math.sin and math.cos;
        # a numpy build whose trigonometry rounds otherwise fails here, not
        # in the scan outputs
        coordinates = np.concatenate(
            [
                grid_points(ACK.domain, 19).ravel(),
                grid_points(ACK.domain, 41).ravel(),
                np.random.default_rng(92).uniform(-32.768, 32.768, size=2000),
                [v for v in SPECIAL_COORDINATES if math.isfinite(v)],
            ]
        )
        arguments = _TWO_PI * coordinates
        for numpy_fn, math_fn in ((np.sin, math.sin), (np.cos, math.cos)):
            expected = np.array([math_fn(a) for a in arguments.tolist()])
            assert numpy_fn(arguments).tobytes() == expected.tobytes()

    def test_rutishauser_takes_no_pow(self, monkeypatch, capsys):
        # its powers are the product chain: with np.float_power raising, its
        # kernels and a whole example1 pass still give their values and bytes
        def refuse(*args, **kwargs):
            raise AssertionError("a Rutishauser kernel called np.float_power")

        points = grid_points(RUT.domain, 19)
        want = [getattr(RUT, field)(points).tobytes() for field in ("f", "jacobian", "objective")]
        monkeypatch.setattr(problems.np, "float_power", refuse)
        assert [getattr(RUT, field)(points).tobytes() for field in ("f", "jacobian", "objective")] == want
        command = "reproduce --example example1"
        test_golden.test_output_digest(command, dict(test_golden.GOLDEN)[command], capsys)

    def test_rutishauser_overflow_is_a_signed_infinity(self):
        # (-1e60)**7 overflows to -inf, the C library's pow's value, in its own row only
        values = RUT.f(np.array([[0.5, 0.5], [-1e60, 0.5]]))
        assert values[1, 0] == -math.inf and values[0].tobytes() == RUT.f(np.array([0.5, 0.5])).tobytes()

    def test_numpy_float_power_matches_python_pow(self):
        # the loader's power tables take np.float_power (libm pow) for Python's
        # float ** int; a numpy build whose float_power rounds otherwise
        # fails here, not in the scan outputs
        square = Box(lo=(-1.0, -1.0), hi=(1.0, 1.0))
        coordinates = np.concatenate(
            [
                grid_points(RUT.domain, 19).ravel(),
                grid_points(square, 19).ravel(),
                grid_points(square, 41).ravel(),
                np.random.default_rng(93).uniform(-1.5, 1.5, size=2000),
                [v for v in SPECIAL_COORDINATES if math.isfinite(v)],
            ]
        )
        for e in (*range(8), 2**20):
            with np.errstate(over="ignore"):
                table = np.float_power(coordinates, float(e))
            expected = []
            for v, entry in zip(coordinates.tolist(), table.tolist()):
                try:
                    expected.append(v**e)
                except OverflowError:
                    assert math.isinf(entry), (v, e)
                    expected.append(entry)
            assert table.tobytes() == np.array(expected).tobytes(), e

    def test_complex_exp_matches_libm_exp(self):
        # the Ackley kernels take numpy's complex exp for math.exp; a numpy
        # build that computes it otherwise fails here, not in the scan outputs
        points = np.concatenate([grid_points(ACK.domain, 19), grid_points(ACK.domain, 41)])
        x, y = points.T
        r = np.sqrt(x * x + y * y)
        special = [v for v in SPECIAL_COORDINATES if math.isfinite(v)]
        exponents = np.concatenate(
            [
                -_ACKLEY_DECAY * r,
                0.5 * (np.cos(_TWO_PI * x) + np.cos(_TWO_PI * y)),
                -0.2 * np.sqrt(0.5 * (x * x + y * y)),
                np.random.default_rng(94).uniform(-745.0, 1.0, size=2000),
                # the helper's exponents are at most 1 (above about 709 cexp rescales)
                [sign * v for v in special for sign in (1.0, -1.0) if sign * v <= 1.0],
                [0.0, -0.0, math.nan, -math.inf],
            ]
        )
        with np.errstate(all="ignore"):  # as in the kernels: results below the normal range
            values = problems._exp(exponents)
        expected = np.array([math.exp(v) for v in exponents.tolist()])
        assert values.tobytes() == expected.tobytes()


class TestPowerTables:
    @pytest.mark.parametrize("n,seed", [(1, 40), (2, 41), (2, 42), (2, 43), (3, 44)])
    def test_matches_term_loop_bit_for_bit(self, tmp_path, n, seed):
        path = write_random_gradient_file(tmp_path / "random.poly", seed, n=n)
        problem = load_polynomial_problem(str(path))
        ref_f, ref_jacobian = reference_problem(path)
        points = oracle_points(n, seed)
        fails = assert_matches_oracle(problem.f, ref_f, points)
        assert_matches_oracle(problem.jacobian, ref_jacobian, points)
        assert 0 < fails < len(points)
        if n == 2:
            for size in (19, 41):
                points = grid_points(Box(lo=(-1.0, -1.0), hi=(1.0, 1.0)), size)
                assert assert_matches_oracle(problem.f, ref_f, points) == 0
                assert assert_matches_oracle(problem.jacobian, ref_jacobian, points) == 0

    def test_signed_zero_sums(self, tmp_path):
        # -0.0 terms sum to +0.0 from the 0.0 start, as in the term loop
        path = tmp_path / "zeros.poly"
        path.write_text("poly 2 : -1.0 1 0 ; 1.0 0 1\npoly 2 : 1.0 1 1\n")
        problem = load_polynomial_problem(str(path))
        points = np.array([[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]])
        for value in (*problem.f(points), *map(problem.f, points)):
            assert value.tobytes() == np.array([0.0, 0.0]).tobytes()
        for point in points:
            assert problem.f(point).tobytes() == reference_problem(path)[0](point).tobytes()

    def test_unused_power_does_not_overflow(self, tmp_path):
        # f needs x**7, which overflows at x = 1e45; every partial needs at
        # most x**6 (1e270), so the Jacobian stays finite
        path = tmp_path / "seventh.poly"
        path.write_text("poly 2 : 1.0 7 0 ; 1.0 0 1\npoly 2 : 1.0 1 0 ; 1.0 0 1\n")
        problem = load_polynomial_problem(str(path))
        ref_f, ref_jacobian = reference_problem(path)
        point = np.array([1e45, 0.5])
        assert reference_outcome(ref_f, point) == "fails"
        assert outcome(problem.f(point), "fails") == "fails"
        failures = Failures(1)
        evaluate_rows(problem.f, (2,), point[None], failures)
        assert isinstance(failures.errors[0], EvaluationError)
        failures = Failures(1)
        jacobian = evaluate_rows(problem.jacobian, (2, 2), point[None], failures)[0]
        assert failures.errors.tolist() == [None]
        assert jacobian.tobytes() == ref_jacobian(point).tobytes()
        assert jacobian[0, 0] == 7.0 * 1e45**6

    def test_overflow_stays_in_its_row(self, tmp_path):
        path = write_random_gradient_file(tmp_path / "random.poly", 45)
        problem = load_polynomial_problem(str(path))
        points = np.array([[0.5, -0.25], [1e60, 0.5], [0.25, 0.75]])
        values = problem.f(points)
        assert np.isfinite(values[[0, 2]]).all() and not np.isfinite(values[1]).all()
        assert values[[0, 2]].tobytes() == problem.f(points[[0, 2]]).tobytes()

    def test_tables_hold_only_the_exponents_used(self, tmp_path, monkeypatch):
        # one term x**(2**20): a table up to the highest exponent would build
        # 2**20 + 1 rows per evaluation
        path = tmp_path / "huge.poly"
        path.write_text(f"poly 2 : 1.0 {2**20} 0 ; 2.0 0 1 ; -1.0 3 0\npoly 2 : 1.0 1 1 ; 0.5 0 2\n")
        problem = load_polynomial_problem(str(path))
        ref_f, ref_jacobian = reference_problem(path)
        rows = []
        build = problems._power_table
        monkeypatch.setattr(problems, "_power_table", lambda v, e: rows.append(list(e)) or build(v, e))
        point = np.array([0.9999999, 0.5])
        assert problem.f(point).tobytes() == ref_f(point).tobytes()
        assert rows == [[0, 1, 3, 2**20], [0, 1, 2]]
        rows.clear()
        assert problem.jacobian(point).tobytes() == ref_jacobian(point).tobytes()
        assert rows == [[0, 1, 2, 2**20 - 1], [0, 1]]
        assert 0.9 < problem.f(point)[0] < 1.0

    def test_overflowing_odd_power_keeps_its_row_fate(self, tmp_path):
        # (-1e60)**7 overflows to -inf in the table where Python raises; the
        # row fails either way, and the row beside it is the oracle's
        path = tmp_path / "odd.poly"
        path.write_text("poly 2 : 1.0 7 0 ; 1.0 0 1\npoly 2 : 1.0 1 0 ; 1.0 0 1\n")
        problem = load_polynomial_problem(str(path))
        ref_f, _ = reference_problem(path)
        points = np.array([[0.5, 0.5], [-1e60, 0.5]])
        assert problems._power_table(points[:, 0], [7]).tolist() == [[0.5**7, -math.inf]]
        assert reference_outcome(ref_f, points[1]) == "fails"
        failures = Failures(2)
        values = evaluate_rows(problem.f, (2,), points, failures)
        assert failures.errors[0] is None and isinstance(failures.errors[1], EvaluationError)
        assert values[0].tobytes() == ref_f(points[0]).tobytes()

    def test_constant_system_has_zero_jacobian(self, tmp_path):
        path = tmp_path / "constant.poly"
        path.write_text("poly 1 : 2.5 0 ; -1.0 0\n")
        problem = load_polynomial_problem(str(path))
        assert problem.f(np.array([3.0])).tolist() == [1.5]
        assert problem.jacobian(np.array([3.0])).tolist() == [[0.0]]
        assert problem.jacobian(np.array([[3.0], [4.0]])).tolist() == [[[0.0]], [[0.0]]]


# Systems whose components have unequal term counts, so that a shorter component
# is padded with +0.0 past its last term.  A 1-D system has one component and one
# partial, and no pad.  The n = 2 partials hold 1, 0, 4 and 4 terms;
# x**7 and x**8 overflow at 1e45, and a -0.0 coordinate gives -0.0 products.
UNEVEN_SYSTEMS = {
    1: "poly 1 : 2.0 7 ; -1.0 0 ; 0.5 1 ; -3.0 2\n",
    2: "poly 2 : -1.5 7 0\npoly 2 : 1.0 1 0 ; -1.0 0 1 ; 2.0 3 2 ; 0.25 0 0 ; -3.0 2 5 ; 1.0 1 1\n",
    3: (
        "poly 3 : 1.0 0 0 1 ; -2.0 2 0 0\n"
        "poly 3 : 3.0 1 1 1\n"
        "poly 3 : 1.0 8 0 0 ; -0.5 0 1 0 ; 2.0 1 2 3 ; -1.0 0 0 0 ; 4.0 3 0 1 ; 0.125 0 4 0 ; -2.0 1 1 0\n"
    ),
}


def uneven_points(n):
    """oracle_points, and the special coordinates where a component of one term meets -0.0."""
    signed = [np.array(p, dtype=float) for p in ([-0.0] * n, [1.0] + [-0.0] * (n - 1), [-0.0] + [2.0] * (n - 1))]
    return np.concatenate([oracle_points(n, 60 + n), signed])


class TestTermPositions:
    """The components of a loaded system sum together, one add per term position, a
    shorter one padded with +0.0, in slabs of term positions: the term loop's values,
    bit for bit, whatever the slab."""

    @pytest.mark.parametrize("slab", [1, 7, problems._SLAB_VALUES])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_uneven_term_counts_match_term_loop(self, tmp_path, monkeypatch, n, slab):
        # slabs of 1 value take one term position at a time, slabs of 7 a few at a
        # time for one point, and the default ones all positions of a small batch
        monkeypatch.setattr(problems, "_SLAB_VALUES", slab)
        path = tmp_path / "uneven.poly"
        path.write_text(UNEVEN_SYSTEMS[n])
        problem = load_polynomial_problem(str(path))
        ref_f, ref_jacobian = reference_problem(path)
        points = uneven_points(n)
        fails = assert_matches_oracle(problem.f, ref_f, points)
        assert 0 < fails < len(points)
        assert 0 < assert_matches_oracle(problem.jacobian, ref_jacobian, points) < len(points)

    def test_a_short_component_keeps_a_negative_zero_sum_positive(self, tmp_path):
        # at x = 0.0 the one-term component's product is -1.5 * 0.0 = -0.0, its sum
        # from 0.0 is +0.0, and its +0.0 pads, while the long one sums on, keep it
        path = tmp_path / "uneven.poly"
        path.write_text(UNEVEN_SYSTEMS[2])
        problem = load_polynomial_problem(str(path))
        points = np.array([[0.0, 1.0], [0.0, -0.0]])
        assert np.signbit(-1.5 * points[:, 0] ** 7).all()
        for values in (problem.f(points), [problem.f(p) for p in points]):
            assert [v.tobytes() for v in np.asarray(values)[:, 0]] == [np.float64(0.0).tobytes()] * 2
        assert problem.f(np.array([1e45, 0.5]))[0] == -math.inf


def term_systems():
    """A random system: n = 1..3, 1..12 terms per component, exponents 0..9 and
    coefficients that include signed zeros and +-1e300."""
    coefficient = st.one_of(st.sampled_from([0.0, -0.0, 1e300, -1e300]), st.floats(-4.0, 4.0))
    return st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(st.tuples(coefficient, st.lists(st.integers(0, 9), min_size=n, max_size=n)), min_size=1, max_size=12),
        min_size=n, max_size=n,
    ))


def points_for(n):
    coordinate = st.one_of(st.sampled_from(SPECIAL_COORDINATES), st.floats(-2.0, 2.0))
    return st.lists(st.lists(coordinate, min_size=n, max_size=n), min_size=1, max_size=8)


class TestTermPositionProperties:
    @given(st.data())
    def test_batch_matches_term_loop(self, data):
        system = data.draw(term_systems())
        n = len(system)
        points = np.array(data.draw(points_for(n)), dtype=float)
        slab = data.draw(st.sampled_from([1, 2 * n, 5 * n * n, problems._SLAB_VALUES]))
        text = "".join(f"poly {n} : " + " ; ".join(" ".join(map(repr, (c, *e))) for c, e in terms) + "\n"
                       for terms in system)
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "random.poly"
            path.write_text(text)
            problem = load_polynomial_problem(str(path))
            ref_f, ref_jacobian = reference_problem(path)
        for fn, oracle in ((problem.f, ref_f), (problem.jacobian, ref_jacobian)):
            with mock.patch.object(problems, "_SLAB_VALUES", slab):
                batch = fn(points)
            for point, row in zip(points, batch):
                expected = reference_outcome(oracle, point)
                assert outcome(row, expected) == expected, point
