"""Exact barycentric weights.

The order-k barycentric model function averages first derivatives sampled at
x + i*h with weights a_0..a_k.  The paper defines them by a (k+1)x(k+1)
system: row 0 is all ones, row i has entries (1 - j)**i, j = 0..k, and the
right-hand side is 1/(i+1).  It is a Vandermonde system in the nodes
s_j = 1 - j, so a_j is the integral over [0, 1] of the j-th Lagrange basis
polynomial on them: the Adams-Moulton weights (k = 2: 5/12, 8/12, -1/12),
exact in rational arithmetic, as the published tables give them.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

# Beyond this index the maps are limited by floating-point evaluation noise,
# not coefficient accuracy.
MAX_ORDER_INDEX = 20


@dataclass(frozen=True)
class BarycentricCoefficients:
    """Weights a_0..a_k of the order-k barycentric model function."""

    k: int
    a: tuple[Fraction, ...]

    @cached_property
    def floats(self) -> tuple[float, ...]:
        """The weights rounded to float once, for model evaluation."""
        return tuple(float(v) for v in self.a)


def solve_coefficients(k: int) -> BarycentricCoefficients:
    """The order-k weights in closed form: a_j integrates prod_{m != j} (s - s_m) / (s_j - s_m),
    s_m = 1 - m, over [0, 1], term by term from the numerator's integer coefficients."""
    if k < 0:
        raise ValueError(f"order index must be >= 0, got {k}")
    weights = []
    for j in range(k + 1):
        poly, scale = [1], 1  # prod_{m != j} (s - s_m), lowest power first, and its value at s_j
        for m in range(k + 1):
            if m != j:
                poly = [c * (m - 1) + lower for c, lower in zip(poly + [0], [0] + poly)]
                scale *= m - j
        weights.append(sum(Fraction(c, p + 1) for p, c in enumerate(poly)) / scale)
    return BarycentricCoefficients(k=k, a=tuple(weights))


@lru_cache(maxsize=None)
def barycentric_coefficients(k: int) -> BarycentricCoefficients:
    """Cached exact weights for order index k, 0 <= k <= MAX_ORDER_INDEX (solve_coefficients
    rejects k < 0; a raised error is not cached)."""
    if k > MAX_ORDER_INDEX:
        raise ValueError(f"order index {k} exceeds the supported maximum {MAX_ORDER_INDEX}")
    return solve_coefficients(k)
