"""The benchmark's workloads: their inputs, made from a seed, and their output checks.

Three workloads are grid scans run through the `rootmaps` command line inside
the benchmark process; one runs scalar orbits through the library.  Every
check here uses only the program's outputs and the benchmark's own copy of
the inputs.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Scan:
    """A grid scan driven by one `rootmaps` command line per pass."""

    args: tuple[str, ...]
    maps: tuple[str, ...]
    problem: str
    grid: tuple[int, int]
    captured: tuple[int, ...] | None = None
    clusters: tuple[int, ...] | None = None
    mirror_symmetric: bool = False


EXAMPLE1_MAPS = (
    "bary:0",
    "bary:1",
    "bary:2",
    "bary:3",
    "bary:4",
    "bary:5",
    "compose:bary:2,bary:1",
    "compose:bary:3,bary:2",
)
POLY_DEGREE = 7
POLY_EPS = 1e-3
POLY_MAP = "compose:bary:3,bary:2"
# Stands for the generated file in Scan.args and Scan.problem.
POLY_FILE = "{poly_file}"

SCANS = {
    "reproduce-example1": Scan(
        args=("reproduce", "--example", "example1"),
        maps=EXAMPLE1_MAPS,
        problem="rutishauser",
        grid=(19, 19),
        captured=(1, 4, 9, 14, 28, 32, 128, 156),
    ),
    "reproduce-example2-fine": Scan(
        args=("reproduce", "--example", "example2-fine"),
        maps=("compose:bary:5,bary:4",),
        problem="ackley",
        grid=(41, 41),
        captured=(1600,),
        clusters=(1588,),
        mirror_symmetric=True,
    ),
    # The command line's default grid, 19x19: a pass takes about 2 s, so a
    # run holds a dozen passes.
    "capture-polyfile": Scan(
        args=("capture", "--problem", POLY_FILE, "--map", POLY_MAP, "--eps", repr(POLY_EPS)),
        maps=(POLY_MAP,),
        problem=POLY_FILE,
        grid=(19, 19),
    ),
}
SCALAR_WORKLOAD = "order-scalar"
WORKLOADS = (*SCANS, SCALAR_WORKLOAD)

# The benchmark's own copy of the roots of rootmaps' scalar test problems.
KNOWN_ROOTS = {"cubic": 2.0 ** (1.0 / 3.0), "exp2": math.log(2.0), "sine": math.pi}
SCALAR_MAPS = ("newton", *(f"taylor:{k}" for k in range(6)), *(f"bary:{k}" for k in range(6)))
SCALAR_STARTS_PER_PROBLEM = 40
SCALAR_START_SPREAD = 0.3
# iterate stops at |f(x)| <= 1e-12, and |f'| >= 1 at every known root.
ROOT_TOLERANCE = 1e-10


def scan_argv(scan, out_path, poly_file):
    """The command line of one pass; `--out` sends every output to out_path."""
    args = [poly_file if a == POLY_FILE else a for a in scan.args]
    return [*args, "--out", str(out_path)]


def map_indices(spec):
    """Order indices k of every barycentric map in a map spec."""
    return [int(part) for part in spec.replace(",", ":").split(":") if part.isdigit()]


# ---------------------------------------------------------------------------
# capture-polyfile: the gradient of a random degree-7 bivariate polynomial
# ---------------------------------------------------------------------------


def poly_coefficients(seed):
    """coeffs[a, b] multiplies x^a y^b, for a + b <= POLY_DEGREE.

    The coefficients are standard normal, except that the linear ones are
    shifted so that the gradient vanishes at a seeded point of [-0.5, 0.5]^2:
    every seed then has a zero for the scan to capture.
    """
    rng = np.random.default_rng(seed)
    coeffs = np.zeros((POLY_DEGREE + 1, POLY_DEGREE + 1))
    for a in range(POLY_DEGREE + 1):
        for b in range(POLY_DEGREE + 1 - a):
            coeffs[a, b] = rng.standard_normal()
    x, y = rng.uniform(-0.5, 0.5, size=2)
    gx, gy = poly_gradient(coeffs, [(x, y)])[0]
    coeffs[1, 0] -= gx
    coeffs[0, 1] -= gy
    return coeffs


def write_poly_file(coeffs, path):
    """Write the gradient of the polynomial in the `poly` file format."""
    lines = ["# gradient of a random degree-7 polynomial", "domain -1 1 -1 1"]
    for axis in (0, 1):
        terms = []
        for (a, b), c in np.ndenumerate(coeffs):
            exponents = [a, b]
            if c == 0.0 or exponents[axis] == 0:
                continue
            coeff = float(c) * exponents[axis]
            exponents[axis] -= 1
            terms.append(f"{coeff!r} {exponents[0]} {exponents[1]}")
        lines.append("poly 2 : " + " ; ".join(terms))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def poly_gradient(coeffs, points):
    """The gradient at each point, evaluated with numpy: shape (N, 2)."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    poly = np.polynomial.polynomial
    return np.stack(
        [poly.polyval2d(points[:, 0], points[:, 1], poly.polyder(coeffs, axis=axis)) for axis in (0, 1)],
        axis=1,
    )


# ---------------------------------------------------------------------------
# order-scalar
# ---------------------------------------------------------------------------


def scalar_starts(seed):
    """(problem name, x0) pairs around each problem's known root.

    Stratified: one start in each of SCALAR_STARTS_PER_PROBLEM equal slices of
    root +- SCALAR_START_SPREAD, placed within its slice by the seed, so the
    mix of orbit lengths, and with it the cost of a pass, hardly depends on
    the seed.
    """
    rng = np.random.default_rng(seed)
    n = SCALAR_STARTS_PER_PROBLEM
    starts = []
    for name, root in KNOWN_ROOTS.items():
        offsets = (np.arange(n) + rng.uniform(size=n)) / n * 2.0 - 1.0
        starts += [(name, float(root + SCALAR_START_SPREAD * u)) for u in offsets]
    return starts


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of messages; an empty list passes.
# ---------------------------------------------------------------------------


def check_scan(scan, results, poly_coeffs=None):
    """Check the CaptureResults of one pass, in scan order."""
    errors = []
    if len(results) != len(scan.maps):
        return [f"expected {len(scan.maps)} scans, observed {len(results)}"]
    nx, ny = scan.grid
    for spec, result in zip(scan.maps, results):
        c = result.counts
        tally = c.skipped_singular + c.step_failures + c.skipped_outside + c.rejected_tolerance + c.captured
        if c.seeded != nx * ny or tally != c.seeded:
            errors.append(f"{spec}: filter tallies {tally} and seeds {c.seeded} != grid {nx * ny}")
        if c.captured != len(result.captured):
            errors.append(f"{spec}: counted {c.captured} captured, listed {len(result.captured)}")
    if scan.captured is not None:
        got = tuple(r.counts.captured for r in results)
        if got != scan.captured:
            errors.append(f"captured {got}, expected {scan.captured}")
    if scan.clusters is not None:
        got = tuple(len(r.clusters) for r in results)
        if got != scan.clusters:
            errors.append(f"clusters {got}, expected {scan.clusters}")
    if scan.mirror_symmetric:
        for spec, result in zip(scan.maps, results):
            errors.extend(f"{spec}: {e}" for e in _mirror_errors(result, nx, ny))
    if poly_coeffs is not None:
        for spec, result in zip(scan.maps, results):
            if result.captured:
                worst = float(np.abs(poly_gradient(poly_coeffs, [p.point for p in result.captured])).max())
                # numpy sums the terms in another order than the file loader
                if worst > POLY_EPS * (1 + 1e-9):
                    errors.append(f"{spec}: captured point has residual {worst:.3e} > eps {POLY_EPS}")
    return errors


def _mirror_errors(result, nx, ny, swap_tolerance=1e-6):
    """The Ackley problem and a grid symmetric about the origin give a captured
    set that maps onto itself under x -> -x and y -> -y bit for bit.  Under the
    swap of x and y the images agree only to about 2e-8 (measured on
    example2-fine), so that check has a tolerance."""
    by_vertex = {(c.grid_i, c.grid_j): (float(c.point[0]), float(c.point[1])) for c in result.captured}
    for (i, j), (x, y) in by_vertex.items():
        if by_vertex.get((nx - 1 - i, j)) != (-x, y) or by_vertex.get((i, ny - 1 - j)) != (x, -y):
            return [f"vertex {(i, j)} -> {(x, y)} has no exact mirror image"]
        swapped = by_vertex.get((j, i))
        if swapped is None or max(abs(swapped[0] - y), abs(swapped[1] - x)) > swap_tolerance:
            return [f"vertex {(i, j)} -> {(x, y)} has no swapped image at {(j, i)}"]
    return []


def check_orbit(label, name, outcome):
    """An orbit that counts as converged must end next to its known root."""
    known_root = KNOWN_ROOTS[name]
    if isinstance(outcome, Exception):
        return [f"{label}: {type(outcome).__name__}: {outcome}"]
    run, _order = outcome
    if run.status.value == "converged" and not abs(run.points[-1] - known_root) <= ROOT_TOLERANCE:
        return [f"{label}: converged to {run.points[-1]!r}, known root {known_root!r}"]
    return []
