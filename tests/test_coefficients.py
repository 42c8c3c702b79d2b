import math
from fractions import Fraction

import pytest

from rootmaps import barycentric_coefficients
from rootmaps.coefficients import solve_coefficients


def alternating_binomial_sum(m: int) -> Fraction:
    """Term-by-term exact value of sum_{i=0}^{m} (-1)^i C(m,i)/(i+1).

    Closed form is 1/(m+1); computing it termwise gives the property tests an
    implementation to check the identity against.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    total = Fraction(0)
    for i in range(m + 1):
        total += Fraction((-1) ** i * math.comb(m, i), i + 1)
    return total


def paper_system(k: int) -> tuple[list[list[Fraction]], list[Fraction]]:
    """The paper's order-k weight system, which the closed form must solve.

    Row 0 is all ones (the weights sum to 1); row i for i >= 1 has entries
    (1 - j)**i, j = 0..k.  The right-hand side is (1, 1/2, ..., 1/(k+1)).
    """
    matrix = [[Fraction(1 - j) ** i for j in range(k + 1)] for i in range(k + 1)]
    return matrix, [Fraction(1, i + 1) for i in range(k + 1)]


# Published weight tables for the first five barycentric maps.
TABLE_WEIGHTS = {
    1: [Fraction(1, 2), Fraction(1, 2)],
    2: [Fraction(5, 12), Fraction(8, 12), Fraction(-1, 12)],
    3: [Fraction(9, 24), Fraction(19, 24), Fraction(-5, 24), Fraction(1, 24)],
    4: [
        Fraction(251, 720),
        Fraction(646, 720),
        Fraction(-264, 720),
        Fraction(106, 720),
        Fraction(-19, 720),
    ],
    5: [
        Fraction(475, 1440),
        Fraction(1427, 1440),
        Fraction(-798, 1440),
        Fraction(482, 1440),
        Fraction(-173, 1440),
        Fraction(27, 1440),
    ],
}


def test_build_system_k0():
    # the paper's system, built by the test-local paper_system
    assert paper_system(0) == ([[1]], [1])


def test_build_system_k2_matches_displayed_matrix():
    matrix, rhs = paper_system(2)
    assert matrix == [
        [1, 1, 1],
        [1, 0, -1],
        [1, 0, 1],
    ]
    assert rhs == [Fraction(1), Fraction(1, 2), Fraction(1, 3)]


def test_build_system_k3_last_row():
    # (1-j)^3 for j = 0..3 by hand: 1, 0, -1, -8.
    matrix, _ = paper_system(3)
    assert matrix[3] == [1, 0, -1, -8]


def test_solve_rejects_negative_k():
    with pytest.raises(ValueError, match=r"^order index must be >= 0, got -1$"):
        solve_coefficients(-1)


@pytest.mark.parametrize("k", sorted(TABLE_WEIGHTS))
def test_solve_matches_published_table(k):
    coeffs = solve_coefficients(k)
    assert coeffs.k == k
    assert list(coeffs.a) == TABLE_WEIGHTS[k]


@pytest.mark.parametrize("k", range(21))
def test_weights_sum_to_one_and_residual_vanishes(k):
    matrix, rhs = paper_system(k)
    coeffs = solve_coefficients(k)
    assert sum(coeffs.a) == 1
    for row, b in zip(matrix, rhs):
        assert sum(r * a for r, a in zip(row, coeffs.a)) == b


def test_solve_is_deterministic():
    assert solve_coefficients(6) == solve_coefficients(6)


def test_cached_lookup_validates_index():
    assert barycentric_coefficients(2).a == tuple(TABLE_WEIGHTS[2])
    with pytest.raises(ValueError):
        barycentric_coefficients(21)
    with pytest.raises(ValueError):
        barycentric_coefficients(-1)
    # the uncapped solve still works, and still solves the paper's system
    matrix, rhs = paper_system(25)
    assert [sum(r * a for r, a in zip(row, solve_coefficients(25).a)) for row in matrix] == rhs


def test_alternating_binomial_sum_small_cases():
    assert alternating_binomial_sum(1) == Fraction(1, 2)
    assert alternating_binomial_sum(3) == Fraction(1, 4)


def test_alternating_binomial_sum_m10_brute_force():
    # independent brute force over the 11 exact terms
    expected = sum(
        Fraction((-1) ** i * (math.factorial(10) // (math.factorial(i) * math.factorial(10 - i))), i + 1)
        for i in range(11)
    )
    assert expected == Fraction(1, 11)
    assert alternating_binomial_sum(10) == expected


@pytest.mark.parametrize("m", range(1, 31))
def test_alternating_binomial_sum_closed_form(m):
    assert alternating_binomial_sum(m) == Fraction(1, m + 1)


def test_alternating_binomial_sum_rejects_zero():
    with pytest.raises(ValueError):
        alternating_binomial_sum(0)
