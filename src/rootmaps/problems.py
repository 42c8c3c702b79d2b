"""Built-in test problems and the polynomial-system file loader."""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .maps1d import ScalarProblem
from .mapsnd import Box, VectorProblem


class ProblemFormatError(ValueError):
    """A problem could not be defined: an unknown name or a malformed file."""


# ---------------------------------------------------------------------------
# Every VectorProblem callable below maps a (..., n) array of points with the
# operations, in the same order, of evaluating one point in Python floats.
# Products, sums, np.sqrt, np.sin and np.cos are vectorised, as numpy rounds them as
# libm does, and the Rutishauser powers are products (_Powers).  The loader alone keeps
# libm's pow: np.float_power loops over it as Python's float ** int does (numpy's **
# rounds otherwise).  numpy's complex exp calls libm's cexp, which gives exp's bits
# (np.exp rounds otherwise).  The tests guard pow, sin, cos and exp.  An overflowing
# power is an infinite element, so only the rows using it are not finite; no batch raises.
# ---------------------------------------------------------------------------

_quiet = np.errstate(all="ignore")


def _exp(values: np.ndarray) -> np.ndarray:
    """math.exp's bits at each element (glibc's cexp(v + 0i) is exp(v) * 1.0) up to about 709,
    where cexp starts to rescale; every caller's exponents are at most 1 or NaN."""
    return np.exp(values + 0j).real


def _power_table(values: np.ndarray, exponents) -> np.ndarray:
    """The loader's v ** e (libm pow, as Python float ** int; ±inf where a finite base overflows) at
    every element v of values, one row per e in exponents: shape (len(exponents), *values.shape)."""
    column = np.asarray(exponents, dtype=float).reshape(-1, *(1,) * values.ndim)
    with np.errstate(over="ignore"):
        return np.float_power(values, column)


class _Powers(dict):
    """{e: v ** e} from v = self[1], each power made on its first read by one fixed chain of IEEE
    products, not libm pow: v2 = v*v, v3 = v2*v, v4 = v2*v2, v5 = v4*v, v6 = v4*v2, v7 = v6*v."""

    def __missing__(self, e: int) -> np.ndarray:
        a, b = {2: (1, 1), 3: (2, 1), 4: (2, 2), 5: (4, 1), 6: (4, 2), 7: (6, 1)}[e]
        return self.setdefault(e, self[a] * self[b])


def _coordinates(points: np.ndarray) -> tuple:
    """x and y, as views of a (..., 2) array, and their _Powers: the Rutishauser kernels' product chain."""
    points = np.asarray(points, dtype=float)
    return points[..., 0], points[..., 1], *(_Powers({1: points[..., a]}) for a in (0, 1))


# ---------------------------------------------------------------------------
# Rutishauser least-squares system
#
# Objective g = s1^2 + s2^2 + s3^2 + s4^2 with residuals
#   s1 = x + y - 1,  s2 = x^2 + y^2 - 0.8,
#   s3 = x^3 + y^3 - 0.68,  s4 = x^4 + y^4 - 0.01,
# and f = grad g.  Both gradient components come from the same helper with
# the arguments swapped, so f1(x, y) == f2(y, x) holds exactly.
# ---------------------------------------------------------------------------


def _rutishauser_component(u, v, pu, pv):
    return (
        -2.0 - 1.2 * u + 2.0 * v - 4.08 * u * u + 3.92 * pu[3] + 4.0 * u * v * v
        + 6.0 * pu[5] + 6.0 * u * u * pv[3] + 8.0 * pu[7] + 8.0 * pu[3] * pv[4]
    )


def _rutishauser_diag(u, v, pu, pv):
    return (
        -1.2 - 8.16 * u + 11.76 * u * u + 4.0 * v * v
        + 30.0 * pu[4] + 12.0 * u * pv[3] + 56.0 * pu[6] + 24.0 * u * u * pv[4]
    )


@_quiet
def _rutishauser_f(p: np.ndarray) -> np.ndarray:
    x, y, px, py = _coordinates(p)
    f = np.empty((*x.shape, 2))
    f[..., 0], f[..., 1] = _rutishauser_component(x, y, px, py), _rutishauser_component(y, x, py, px)
    return f


@_quiet
def _rutishauser_jacobian(p: np.ndarray) -> np.ndarray:
    x, y, px, py = _coordinates(p)
    jacobian = np.empty((*x.shape, 2, 2))
    jacobian[..., 0, 1] = jacobian[..., 1, 0] = 2.0 + 8.0 * x * y + 18.0 * x * x * y * y + 32.0 * px[3] * py[3]
    jacobian[..., 0, 0], jacobian[..., 1, 1] = _rutishauser_diag(x, y, px, py), _rutishauser_diag(y, x, py, px)
    return jacobian


@_quiet
def _rutishauser_objective(p: np.ndarray) -> np.ndarray:
    x, y, px, py = _coordinates(p)
    s1 = x + y - 1.0
    s2 = x * x + y * y - 0.8
    s3 = px[3] + py[3] - 0.68
    s4 = px[4] + py[4] - 0.01
    return s1 * s1 + s2 * s2 + s3 * s3 + s4 * s4


def rutishauser() -> VectorProblem:
    """Gradient system of the four-residual least-squares objective."""
    f, jacobian, objective = _rutishauser_f, _rutishauser_jacobian, _rutishauser_objective
    return VectorProblem(2, f, jacobian, objective, Box(lo=(-0.5, -0.7), hi=(1.1, 1.1)), "rutishauser")


# ---------------------------------------------------------------------------
# Negated Ackley function and its gradient
#
# g(x, y) = 20*exp(-0.2*sqrt(0.5*(x^2+y^2))) + exp(0.5*(cos 2pi x + cos 2pi y))
#           - 20 - e
# has a global maximum g(0, 0) = 0 and a lattice of local extrema.  f = grad g
# extends continuously to the origin with f(0, 0) = (0, 0), but g is not
# differentiable there: the Jacobian is NaN wherever sqrt(x^2 + y^2) is 0.
# ---------------------------------------------------------------------------

_ACKLEY_RADIAL = 2.8284271247461907
_ACKLEY_DECAY = 0.14142135623730953
_ACKLEY_WAVE = 3.141592653589793
_TWO_PI = 2.0 * math.pi


def _polar(p: np.ndarray) -> tuple:
    p = np.asarray(p, dtype=float)
    x, y = p[..., 0], p[..., 1]
    return x, y, np.sqrt(x * x + y * y)


@_quiet
def _ackley_f(p: np.ndarray) -> np.ndarray:
    x, y, r = _polar(p)
    e_radial = _exp(-_ACKLEY_DECAY * r)
    e_wave = _exp(0.5 * (np.cos(_TWO_PI * x) + np.cos(_TWO_PI * y)))
    f = np.empty((*r.shape, 2))
    for axis, v in enumerate((x, y)):
        f[..., axis] = -_ACKLEY_RADIAL * e_radial * v / r - _ACKLEY_WAVE * e_wave * np.sin(_TWO_PI * v)
    f[r == 0.0] = 0.0
    return f


@_quiet
def _ackley_jacobian(p: np.ndarray) -> np.ndarray:
    x, y, r = _polar(p)
    e_radial = _exp(-_ACKLEY_DECAY * r)
    sx, cx = np.sin(_TWO_PI * x), np.cos(_TWO_PI * x)
    sy, cy = np.sin(_TWO_PI * y), np.cos(_TWO_PI * y)
    e_wave = _exp(0.5 * (cx + cy))
    r2, r3 = r * r, r * r * r
    jacobian = np.empty((*r.shape, 2, 2))
    for axis, (v, s, c) in enumerate(((x, sx, cx), (y, sy, cy))):
        jacobian[..., axis, axis] = (
            -_ACKLEY_RADIAL * e_radial * (1.0 / r - v * v / r3 - _ACKLEY_DECAY * v * v / r2)
            - (_ACKLEY_WAVE * e_wave * (_TWO_PI * c - math.pi * s * s))
        )
    # (x * y) and (sx * sy) first: IEEE products commute, so J(y, x) is J(x, y) swapped, bit for bit
    j12 = _ACKLEY_RADIAL * e_radial * (x * y) * (_ACKLEY_DECAY / r2 + 1.0 / r3)
    jacobian[..., 0, 1] = jacobian[..., 1, 0] = j12 + _ACKLEY_WAVE * math.pi * e_wave * (sx * sy)
    jacobian[r == 0.0] = math.nan
    return jacobian


@_quiet
def _ackley_objective(p: np.ndarray) -> np.ndarray:
    x, y, _ = _polar(p)
    s1 = -0.2 * np.sqrt(0.5 * (x * x + y * y))
    s2 = 0.5 * (np.cos(_TWO_PI * x) + np.cos(_TWO_PI * y))
    return 20.0 * _exp(s1) + _exp(s2) - 20.0 - math.e


def ackley_gradient() -> VectorProblem:
    """Gradient of the negated Ackley function on the standard search box."""
    domain = Box(lo=(-32.768, -32.768), hi=(32.768, 32.768))
    return VectorProblem(2, _ackley_f, _ackley_jacobian, _ackley_objective, domain, "ackley",
                         mirror_axes=(0, 1), swap_axes=(0, 1))


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


# Loaded systems make their products in slabs of at most this many values (64 KiB), which malloc keeps (README)
_SLAB_VALUES = 2**13


def _polynomial_map(components: list[PolynomialComponent], shape: tuple[int, ...]) -> Callable:
    """The callable mapping a (..., n) array of points to the components' values, shape (..., *shape).

    Each axis has one power table with a row per exponent used on it.  A term is
    coeff * t_0[e_0] * t_1[e_1] * ..., and each component sums its terms left to
    right from 0.0, as evaluating one point term by term does, bit for bit.  All
    components sum together, one add per term position, and a component with
    fewer terms adds +0.0s: a sum from 0.0 is never -0.0 in round-to-nearest,
    and any other v + 0.0 is v, inf and NaN included.
    """
    longest = max(components, key=lambda c: len(c.terms))
    # term t of component c is row t * C + c, or a pad with the longest one's first exponents: no table grows
    laid = [c.terms[t] if t < len(c.terms) else None for t in range(len(longest.terms)) for c in components]
    pads = np.array([term is None for term in laid], dtype=bool)
    terms = [term or (0.0, longest.terms[0][1]) for term in laid]
    coeffs = np.array([coeff for coeff, _ in terms])
    exponents = np.array([[e[axis] for _, e in terms] for axis in range(components[0].n)], dtype=int)
    # per axis: the distinct exponents, and each term's row among them
    tables = [((used := np.unique(e)).astype(float), np.searchsorted(used, e)) for e in exponents]

    @_quiet
    def values_at(points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        batch = points.shape[:-1]
        powers = [_power_table(points[..., axis], used) for axis, (used, _) in enumerate(tables)]
        values = np.zeros((len(components), *batch))
        step = max(1, _SLAB_VALUES // (values.size or 1)) * len(components)  # rows: whole term positions
        for first in range(0, len(terms), step):
            rows = slice(first, first + step)
            products = coeffs[rows].reshape(-1, *(1,) * len(batch)) * powers[0][tables[0][1][rows]]
            for power, (_, at) in zip(powers[1:], tables[1:]):
                products *= power[at[rows]]
            products[pads[rows]] = 0.0
            for row in products.reshape(len(products) // len(components), *values.shape):
                values += row  # not sum() or np.sum: they do not add term by term from 0.0
        return np.moveaxis(values, 0, -1).reshape(*batch, *shape)

    return values_at


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
        if not math.isfinite(coeff):
            raise ProblemFormatError(f"line {lineno}: non-finite coefficient in {chunk!r}")
        if not all(0 <= e < 2**63 for e in exponents):
            raise ProblemFormatError(f"line {lineno}: exponent outside 0 .. 2**63 - 1 in {chunk!r}")
        terms.append((coeff, exponents))
    if not terms:
        raise ProblemFormatError(f"line {lineno}: component has no terms")
    return PolynomialComponent(n=n, terms=tuple(terms))


def load_polynomial_problem(path: str) -> VectorProblem:
    """Load a polynomial system (and optional domain) from a text file."""
    components: list[PolynomialComponent] = []
    domain: Box | None = None
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ProblemFormatError(f"{path}: not UTF-8 text ({exc})") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        keyword, *fields = line.split()
        if keyword == "domain":
            if domain is not None:
                raise ProblemFormatError(f"line {lineno}: second domain line {line!r}")
            if len(fields) != 4:
                raise ProblemFormatError(f"line {lineno}: domain needs 4 numbers")
            try:
                x_min, x_max, y_min, y_max = (float(v) for v in fields)
            except ValueError as exc:
                raise ProblemFormatError(f"line {lineno}: bad domain {line!r}") from exc
            if not all(map(math.isfinite, (x_max - x_min, y_max - y_min))):  # or a span that overflows
                raise ProblemFormatError(f"line {lineno}: non-finite domain bound or span in {line!r}")
            if x_min > x_max or y_min > y_max:
                raise ProblemFormatError(f"line {lineno}: domain has lo > hi in {line!r}")
            domain, domain_line = Box(lo=(x_min, y_min), hi=(x_max, y_max)), lineno
        elif keyword == "poly":
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
        raise ProblemFormatError(f"line {domain_line}: the domain is 2-D but the system is {n}-dimensional")
    f = _polynomial_map(components, (n,))
    jacobian = _polynomial_map([c.partial(j) for c in components for j in range(n)], (n, n))
    return VectorProblem(n=n, f=f, jacobian=jacobian, domain=domain, name=path)


def vector_problem(name: str) -> VectorProblem:
    """Look up a built-in vector problem, or load `name` as a file path."""
    builtins = {"rutishauser": rutishauser, "ackley": ackley_gradient}
    if name in builtins:
        return builtins[name]()
    return load_polynomial_problem(name)
