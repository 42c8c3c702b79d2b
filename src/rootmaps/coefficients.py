"""Exact barycentric coefficient systems.

The order-k barycentric model function averages first derivatives sampled at
x + i*h with weights a_0..a_k.  The weights are the unique solution of a
(k+1)x(k+1) linear system with integer matrix entries and harmonic right-hand
side, solved here in exact rational arithmetic so the published coefficient
tables are reproduced digit for digit.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

# Beyond this index the maps are limited by floating-point evaluation noise,
# not coefficient accuracy.
MAX_ORDER_INDEX = 20


class SingularSystemError(ArithmeticError):
    """Exact elimination found no usable pivot (corrupted system)."""


@dataclass(frozen=True)
class BarycentricSystem:
    """The linear system whose solution is the weight vector for order k."""

    k: int
    matrix: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]


@dataclass(frozen=True)
class BarycentricCoefficients:
    """Weights a_0..a_k of the order-k barycentric model function."""

    k: int
    a: tuple[Fraction, ...]

    @cached_property
    def floats(self) -> tuple[float, ...]:
        """The weights rounded to float once, for model evaluation."""
        return tuple(float(v) for v in self.a)


def build_system(k: int) -> BarycentricSystem:
    """Build the order-k weight system.

    Row 0 is all ones (the weights are barycentric: they sum to 1); row i
    for i >= 1 has entries (1 - j)**i, j = 0..k.  The right-hand side is
    (1, 1/2, ..., 1/(k+1)).
    """
    if k < 0:
        raise ValueError(f"order index must be >= 0, got {k}")
    rows = [tuple(Fraction(1) for _ in range(k + 1))]
    for i in range(1, k + 1):
        rows.append(tuple(Fraction(1 - j) ** i for j in range(k + 1)))
    rhs = tuple(Fraction(1, i + 1) for i in range(k + 1))
    return BarycentricSystem(k=k, matrix=tuple(rows), rhs=rhs)


def solve_coefficients(system: BarycentricSystem) -> BarycentricCoefficients:
    """Solve the system exactly by fractional Gaussian elimination.

    Partial (max-magnitude) pivoting; raises SingularSystemError if a pivot
    column is identically zero, which cannot happen for systems produced by
    build_system.
    """
    n = system.k + 1
    a = [list(row) for row in system.matrix]
    b = list(system.rhs)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            raise SingularSystemError(f"zero pivot in column {col}")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
        for r in range(col + 1, n):
            if a[r][col] == 0:
                continue
            factor = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
            b[r] -= factor * b[col]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = b[r]
        for c in range(r + 1, n):
            acc -= a[r][c] * x[c]
        x[r] = acc / a[r][r]
    return BarycentricCoefficients(k=system.k, a=tuple(x))


@lru_cache(maxsize=None)
def barycentric_coefficients(k: int) -> BarycentricCoefficients:
    """Cached exact weights for order index k, 0 <= k <= MAX_ORDER_INDEX (build_system
    rejects k < 0; a raised error is not cached)."""
    if k > MAX_ORDER_INDEX:
        raise ValueError(f"order index {k} exceeds the supported maximum {MAX_ORDER_INDEX}")
    return solve_coefficients(build_system(k))

