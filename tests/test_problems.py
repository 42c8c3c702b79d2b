import math

import numpy as np
import pytest

from rootmaps import ackley_gradient, load_polynomial_problem, rutishauser, scalar_test_set
from rootmaps.problems import ProblemFormatError, scalar_problem, vector_problem

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
