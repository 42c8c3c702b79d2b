"""Built-in test problems and the polynomial-system file loader."""

import math
from dataclasses import dataclass

import numpy as np

from .maps1d import ScalarProblem
from .mapsnd import Box, VectorProblem


class ProblemFormatError(ValueError):
    """A problem could not be defined: an unknown name or a malformed file."""


# ---------------------------------------------------------------------------
# Rutishauser least-squares system
#
# Objective g = s1^2 + s2^2 + s3^2 + s4^2 with residuals
#   s1 = x + y - 1,  s2 = x^2 + y^2 - 0.8,
#   s3 = x^3 + y^3 - 0.68,  s4 = x^4 + y^4 - 0.01,
# and f = grad g.  Both gradient components come from the same helper with
# the arguments swapped, so f1(x, y) == f2(y, x) holds exactly in floating
# point.
# ---------------------------------------------------------------------------


def _rutishauser_component(u: float, v: float) -> float:
    return (
        -2.0
        - 1.2 * u
        + 2.0 * v
        - 4.08 * u * u
        + 3.92 * u**3
        + 4.0 * u * v * v
        + 6.0 * u**5
        + 6.0 * u * u * v**3
        + 8.0 * u**7
        + 8.0 * u**3 * v**4
    )


def _rutishauser_diag(u: float, v: float) -> float:
    return (
        -1.2
        - 8.16 * u
        + 11.76 * u * u
        + 4.0 * v * v
        + 30.0 * u**4
        + 12.0 * u * v**3
        + 56.0 * u**6
        + 24.0 * u * u * v**4
    )


def _rutishauser_cross(u: float, v: float) -> float:
    return 2.0 + 8.0 * u * v + 18.0 * u * u * v * v + 32.0 * u**3 * v**3


def _rutishauser_f(p: np.ndarray) -> np.ndarray:
    x, y = float(p[0]), float(p[1])
    return np.array([_rutishauser_component(x, y), _rutishauser_component(y, x)])


def _rutishauser_jacobian(p: np.ndarray) -> np.ndarray:
    x, y = float(p[0]), float(p[1])
    cross = _rutishauser_cross(x, y)
    return np.array([[_rutishauser_diag(x, y), cross], [cross, _rutishauser_diag(y, x)]])


def _rutishauser_objective(p: np.ndarray) -> float:
    x, y = float(p[0]), float(p[1])
    s1 = x + y - 1.0
    s2 = x * x + y * y - 0.8
    s3 = x**3 + y**3 - 0.68
    s4 = x**4 + y**4 - 0.01
    return s1 * s1 + s2 * s2 + s3 * s3 + s4 * s4


def rutishauser() -> VectorProblem:
    """Gradient system of the four-residual least-squares objective."""
    return VectorProblem(
        n=2,
        f=_rutishauser_f,
        jacobian=_rutishauser_jacobian,
        objective=_rutishauser_objective,
        domain=Box(lo=(-0.5, -0.7), hi=(1.1, 1.1)),
        name="rutishauser",
    )


# ---------------------------------------------------------------------------
# Negated Ackley function and its gradient
#
# g(x, y) = 20*exp(-0.2*sqrt(0.5*(x^2+y^2))) + exp(0.5*(cos 2pi x + cos 2pi y))
#           - 20 - e
# has a global maximum g(0, 0) = 0 and a lattice of local extrema.  f = grad g
# extends continuously to the origin with f(0, 0) = (0, 0), but g is not
# differentiable there, so the Jacobian is undefined at the origin (returned
# as NaN).
# ---------------------------------------------------------------------------

_ACKLEY_RADIAL = 2.8284271247461907
_ACKLEY_DECAY = 0.14142135623730953
_ACKLEY_WAVE = 3.141592653589793
_TWO_PI = 2.0 * math.pi


def _ackley_f(p: np.ndarray) -> np.ndarray:
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


def _ackley_jacobian(p: np.ndarray) -> np.ndarray:
    x, y = float(p[0]), float(p[1])
    r = math.sqrt(x * x + y * y)
    if r == 0.0:
        return np.full((2, 2), math.nan)
    e_radial = math.exp(-_ACKLEY_DECAY * r)
    e_wave = math.exp(0.5 * (math.cos(_TWO_PI * x) + math.cos(_TWO_PI * y)))
    sx, cx = math.sin(_TWO_PI * x), math.cos(_TWO_PI * x)
    sy, cy = math.sin(_TWO_PI * y), math.cos(_TWO_PI * y)
    r2, r3 = r * r, r * r * r
    j11 = -_ACKLEY_RADIAL * e_radial * (1.0 / r - x * x / r3 - _ACKLEY_DECAY * x * x / r2) - (
        _ACKLEY_WAVE * e_wave * (_TWO_PI * cx - math.pi * sx * sx)
    )
    j22 = -_ACKLEY_RADIAL * e_radial * (1.0 / r - y * y / r3 - _ACKLEY_DECAY * y * y / r2) - (
        _ACKLEY_WAVE * e_wave * (_TWO_PI * cy - math.pi * sy * sy)
    )
    j12 = _ACKLEY_RADIAL * e_radial * x * y * (_ACKLEY_DECAY / r2 + 1.0 / r3) + (
        _ACKLEY_WAVE * math.pi * e_wave * sx * sy
    )
    return np.array([[j11, j12], [j12, j22]])


def _ackley_objective(p: np.ndarray) -> float:
    x, y = float(p[0]), float(p[1])
    s1 = -0.2 * math.sqrt(0.5 * (x * x + y * y))
    s2 = 0.5 * (math.cos(_TWO_PI * x) + math.cos(_TWO_PI * y))
    return 20.0 * math.exp(s1) + math.exp(s2) - 20.0 - math.e


def ackley_gradient() -> VectorProblem:
    """Gradient of the negated Ackley function on the standard search box."""
    return VectorProblem(
        n=2,
        f=_ackley_f,
        jacobian=_ackley_jacobian,
        objective=_ackley_objective,
        domain=Box(lo=(-32.768, -32.768), hi=(32.768, 32.768)),
        name="ackley",
    )


# ---------------------------------------------------------------------------
# Scalar test set for order measurement (derivatives through order 6)
# ---------------------------------------------------------------------------


def scalar_test_set() -> list[ScalarProblem]:
    cubic = ScalarProblem(
        f=lambda x: x**3 - 2.0,
        derivatives=(
            lambda x: 3.0 * x * x,
            lambda x: 6.0 * x,
            lambda x: 6.0,
            lambda x: 0.0,
            lambda x: 0.0,
            lambda x: 0.0,
        ),
        known_root=2.0 ** (1.0 / 3.0),
        name="cubic",
    )
    exp2 = ScalarProblem(
        f=lambda x: math.exp(x) - 2.0,
        derivatives=tuple(lambda x: math.exp(x) for _ in range(6)),
        known_root=math.log(2.0),
        name="exp2",
    )
    sine = ScalarProblem(
        f=math.sin,
        derivatives=(
            math.cos,
            lambda x: -math.sin(x),
            lambda x: -math.cos(x),
            math.sin,
            math.cos,
            lambda x: -math.sin(x),
        ),
        known_root=math.pi,
        domain=(2.0, 4.0),
        name="sine",
    )
    return [cubic, exp2, sine]


def scalar_problem(name: str) -> ScalarProblem:
    for problem in scalar_test_set():
        if problem.name == name:
            return problem
    known = ", ".join(p.name for p in scalar_test_set())
    raise ProblemFormatError(f"unknown scalar problem {name!r} (known: {known})")


# ---------------------------------------------------------------------------
# Polynomial-system files
#
# Plain text, one `poly` line per component:
#
#     # optional comments and blank lines
#     domain <x_min> <x_max> <y_min> <y_max>        (optional, 2-D only)
#     poly <n> : <coeff> <e_1> ... <e_n> ; <coeff> <e_1> ... <e_n> ; ...
#
# Every component must declare the same dimension n, and a system needs
# exactly n components.  The Jacobian is differentiated term by term.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolynomialComponent:
    """One component as a sum of coeff * prod_i x_i^e_i terms."""

    n: int
    terms: tuple[tuple[float, tuple[int, ...]], ...]

    def __call__(self, point) -> float:
        total = 0.0
        for coeff, exponents in self.terms:
            value = coeff
            for x_i, e_i in zip(point, exponents):
                value *= float(x_i) ** e_i
            total += value
        return total

    def partial(self, axis: int) -> "PolynomialComponent":
        terms = []
        for coeff, exponents in self.terms:
            e = exponents[axis]
            if e == 0:
                continue
            lowered = list(exponents)
            lowered[axis] = e - 1
            terms.append((coeff * e, tuple(lowered)))
        return PolynomialComponent(n=self.n, terms=tuple(terms))


def _parse_poly_line(line: str, lineno: int) -> PolynomialComponent:
    body = line[len("poly") :].strip()
    head, _, rest = body.partition(":")
    try:
        n = int(head.strip())
    except ValueError as exc:
        raise ProblemFormatError(f"line {lineno}: bad dimension {head.strip()!r}") from exc
    if n < 1:
        raise ProblemFormatError(f"line {lineno}: dimension must be >= 1, got {n}")
    terms = []
    for chunk in rest.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        fields = chunk.split()
        if len(fields) != n + 1:
            raise ProblemFormatError(
                f"line {lineno}: term {chunk!r} needs a coefficient and {n} exponents"
            )
        try:
            coeff = float(fields[0])
            exponents = tuple(int(v) for v in fields[1:])
        except ValueError as exc:
            raise ProblemFormatError(f"line {lineno}: bad term {chunk!r}") from exc
        if any(e < 0 for e in exponents):
            raise ProblemFormatError(f"line {lineno}: negative exponent in {chunk!r}")
        terms.append((coeff, exponents))
    if not terms:
        raise ProblemFormatError(f"line {lineno}: component has no terms")
    return PolynomialComponent(n=n, terms=tuple(terms))


def load_polynomial_problem(path: str, name: str = "") -> VectorProblem:
    """Load a polynomial system (and optional domain) from a text file."""
    components: list[PolynomialComponent] = []
    domain: Box | None = None
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("domain"):
                fields = line.split()[1:]
                if len(fields) != 4:
                    raise ProblemFormatError(f"line {lineno}: domain needs 4 numbers")
                try:
                    x_min, x_max, y_min, y_max = (float(v) for v in fields)
                except ValueError as exc:
                    raise ProblemFormatError(f"line {lineno}: bad domain {line!r}") from exc
                domain = Box(lo=(x_min, y_min), hi=(x_max, y_max))
            elif line.startswith("poly"):
                components.append(_parse_poly_line(line, lineno))
            else:
                raise ProblemFormatError(f"line {lineno}: unrecognized line {line!r}")
    if not components:
        raise ProblemFormatError("file defines no components")
    n = components[0].n
    if any(c.n != n for c in components):
        raise ProblemFormatError("components declare different dimensions")
    if len(components) != n:
        raise ProblemFormatError(f"{n}-dimensional system needs {n} components, got {len(components)}")
    if domain is not None and domain.dim != n:
        raise ProblemFormatError("domain dimension does not match the system")
    partials = [[c.partial(j) for j in range(n)] for c in components]

    def f(p: np.ndarray) -> np.ndarray:
        return np.array([c(p) for c in components])

    def jacobian(p: np.ndarray) -> np.ndarray:
        return np.array([[partials[i][j](p) for j in range(n)] for i in range(n)])

    return VectorProblem(n=n, f=f, jacobian=jacobian, domain=domain, name=name or path)


def vector_problem(name: str) -> VectorProblem:
    """Look up a built-in vector problem, or load `name` as a file path."""
    builtins = {"rutishauser": rutishauser, "ackley": ackley_gradient}
    if name in builtins:
        return builtins[name]()
    return load_polynomial_problem(name)
