import math

import numpy as np
import pytest

from rootmaps import (
    EvaluationError,
    ackley_gradient,
    load_polynomial_problem,
    rutishauser,
    scalar_test_set,
)
from rootmaps.mapsnd import evaluate_rows
from rootmaps.problems import ProblemFormatError, _parse_poly_line, scalar_problem, vector_problem

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
        rng = np.random.default_rng(36)
        for _ in range(50):
            x, y = rng.uniform(-20.0, 20.0, size=2)
            f = ACK.f(np.array([x, y]))
            f_neg = ACK.f(np.array([-x, y]))
            assert f_neg[0] == -f[0] and f_neg[1] == f[1]


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
    """(f, jacobian) of a poly file, evaluated by reference_component."""
    lines = [line.strip() for line in path.read_text().splitlines()]
    components = [_parse_poly_line(line, 0) for line in lines if line.startswith("poly")]
    n = len(components)
    partials = [[c.partial(j) for j in range(n)] for c in components]

    def f(p):
        return np.array([reference_component(c, p) for c in components])

    def jacobian(p):
        return np.array([[reference_component(partials[i][j], p) for j in range(n)] for i in range(n)])

    return f, jacobian


def outcome(fn, point):
    """The bytes of fn(point), or the name of the exception it raised.

    NaNs compare as one value: which operand's sign and payload a NaN sum
    carries depends on the interpreter's code path, not on the operations,
    and a NaN fails evaluation whatever its bits.
    """
    try:
        value = np.asarray(fn(point))
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__
    return np.where(np.isnan(value), np.nan, value).tobytes()


# coordinates whose powers are exact, signed zeros, large enough to overflow
# from some power on, subnormal on squaring, or not finite
SPECIAL_COORDINATES = (
    0.0, -0.0, 1.0, -1.0, 0.5, -3.0, 1e-200, -1e-170, 1e40, -1e43, 1e44, 1e45, -1e45,
    1e52, 1e155, -1e300, math.inf, -math.inf, math.nan,
)


class TestPowerTables:
    @pytest.mark.parametrize("n,seed", [(1, 40), (2, 41), (2, 42), (2, 43), (3, 44)])
    def test_matches_term_loop_bit_for_bit(self, tmp_path, n, seed):
        path = write_random_gradient_file(tmp_path / "random.poly", seed, n=n)
        problem = load_polynomial_problem(str(path))
        ref_f, ref_jacobian = reference_problem(path)
        rng = np.random.default_rng(seed)
        points = [rng.uniform(-1.5, 1.5, size=n) for _ in range(50)]
        points += [rng.choice(SPECIAL_COORDINATES, size=n) for _ in range(200)]
        points += [np.full(n, v) for v in SPECIAL_COORDINATES]
        raised = 0
        for point in points:
            assert outcome(problem.f, point) == outcome(ref_f, point), point
            assert outcome(problem.jacobian, point) == outcome(ref_jacobian, point), point
            raised += outcome(problem.f, point) == "OverflowError"
        assert 0 < raised < len(points)

    def test_signed_zero_sums(self, tmp_path):
        # -0.0 terms sum to +0.0 from the 0.0 start, as in the term loop
        path = tmp_path / "zeros.poly"
        path.write_text("poly 2 : -1.0 1 0 ; 1.0 0 1\npoly 2 : 1.0 1 1\n")
        problem = load_polynomial_problem(str(path))
        for point in ([0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]):
            value = problem.f(np.array(point))
            assert value.tobytes() == np.array([0.0, 0.0]).tobytes()
            assert value.tobytes() == reference_problem(path)[0](np.array(point)).tobytes()

    def test_unused_power_does_not_overflow(self, tmp_path):
        # f needs x**7, which overflows at x = 1e45; every partial needs at
        # most x**6 (1e270), so the Jacobian stays finite
        path = tmp_path / "seventh.poly"
        path.write_text("poly 2 : 1.0 7 0 ; 1.0 0 1\npoly 2 : 1.0 1 0 ; 1.0 0 1\n")
        problem = load_polynomial_problem(str(path))
        ref_f, ref_jacobian = reference_problem(path)
        point = np.array([1e45, 0.5])
        assert outcome(problem.f, point) == outcome(ref_f, point) == "OverflowError"
        failures = [None]
        evaluate_rows(problem.f, (2,), point[None], failures)
        assert isinstance(failures[0], EvaluationError)
        failures = [None]
        jacobian = evaluate_rows(problem.jacobian, (2, 2), point[None], failures)[0]
        assert failures == [None]
        assert jacobian.tobytes() == ref_jacobian(point).tobytes()
        assert jacobian[0, 0] == 7.0 * 1e45**6

    def test_constant_system_has_zero_jacobian(self, tmp_path):
        path = tmp_path / "constant.poly"
        path.write_text("poly 1 : 2.5 0 ; -1.0 0\n")
        problem = load_polynomial_problem(str(path))
        assert problem.f(np.array([3.0])).tolist() == [1.5]
        assert problem.jacobian(np.array([3.0])).tolist() == [[0.0]]
