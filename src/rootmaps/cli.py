"""Command-line front end: coeffs, order, capture, and reproduce subcommands."""

import argparse
import errno
import json
import math
import os
import platform
import stat
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .capture import (DEFAULT_CLUSTER_RADIUS, CaptureConfig, CaptureResult, GridSpec,
                      objectives, run_capture, two_steps)
from .coefficients import MAX_ORDER_INDEX, barycentric_coefficients
from .maps1d import (InsufficientDataError, IterativeMap, compose, estimate_order, iterate, newton_barycentric,
                     newton_map, newton_taylor)
from .mapsnd import step_orders
from .problems import ProblemFormatError, scalar_problem, scalar_test_set, vector_problem


class MapSpecError(ValueError):
    """A --map specification could not be parsed."""


def parse_map_spec(text: str) -> IterativeMap:
    """Parse `newton`, `taylor:<k>`, `bary:<k>`, or `compose:<spec>,<spec>`.

    In a composition the right-most spec is applied first, so
    `compose:bary:3,bary:2` is the order-5 map applied after the order-4 one.
    """
    spec, pos = _parse_spec(text, 0)
    if pos != len(text):
        raise MapSpecError(f"trailing text {text[pos:]!r} in map spec {text!r}")
    return spec


def _parse_spec(s: str, pos: int) -> tuple[IterativeMap, int]:
    if s.startswith("newton", pos):
        return newton_map(), pos + len("newton")
    if s.startswith("taylor:", pos):
        k, pos = _parse_index(s, pos + len("taylor:"))
        return newton_taylor(k), pos
    if s.startswith("bary:", pos):
        k, pos = _parse_index(s, pos + len("bary:"))
        return newton_barycentric(k), pos
    if s.startswith("compose:", pos):
        outer, pos = _parse_spec(s, pos + len("compose:"))
        if pos >= len(s) or s[pos] != ",":
            raise MapSpecError(f"compose needs two comma-separated specs in {s!r}")
        inner, pos = _parse_spec(s, pos + 1)
        return compose(outer, inner), pos
    raise MapSpecError(f"unrecognized map spec at {s[pos:]!r}")


def _parse_index(s: str, pos: int) -> tuple[int, int]:
    end = pos
    while end < len(s) and "0" <= s[end] <= "9":  # str.isdigit also accepts digits int() rejects
        end += 1
    if end == pos:
        raise MapSpecError(f"expected an order index at {s[pos:]!r}")
    k = int(s[pos:end])
    if k > MAX_ORDER_INDEX:
        raise MapSpecError(f"order index {k} exceeds the supported maximum {MAX_ORDER_INDEX}")
    return k, end


def _write_outputs(files: dict[str, str], manifest_path: str, args, start: float) -> None:
    """Write each file's text, then a manifest of the parsed arguments, the command
    line and the environment it ran with, and the files, so that a run can be
    repeated and two runs diffed."""
    for path, text in files.items():
        Path(path).write_text(text, encoding="utf-8", newline="")
    manifest = {
        "subcommand": args.subcommand,
        "config": {key: value for key, value in vars(args).items() if key not in ("subcommand", "argv")},
        "version": __version__,
        "duration_seconds": time.perf_counter() - start,
        "outputs": list(files),
        "argv": args.argv,
        "environment": {
            "python": platform.python_version(), "numpy": np.__version__, "cpu_count": os.cpu_count()
        },
    }
    Path(manifest_path).write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8", newline="")


def _check_out(path: str) -> None:
    """Raise an OSError with the errno that opening path for writing would give if
    its directory is missing or not a directory, or path is a directory, so a
    command can fail before its work; path is not touched.  Write permission is
    not checked."""
    directory = os.path.dirname(path) or (path and os.curdir)  # an empty path has no directory
    if not stat.S_ISDIR(os.stat(directory).st_mode):
        raise OSError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), directory)
    if os.path.isdir(path):
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _emit(text: str, args, start: float) -> None:
    """Write text to stdout, or to args.out with its manifest beside it."""
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_outputs({args.out: text}, args.out + ".manifest.json", args, start)


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------


COEFF_COLUMNS = ("index", "numerator", "denominator", "fraction", "value")


def _render_coeffs(k: int, fmt: str) -> str:
    rows = [(i, a.numerator, a.denominator, str(a), float(a)) for i, a in enumerate(barycentric_coefficients(k).a)]
    if fmt == "json":
        coefficients = [dict(zip(COEFF_COLUMNS, row)) for row in rows]
        return json.dumps({"k": k, "coefficients": coefficients}, indent=2) + "\n"
    if fmt == "csv":  # no field holds a comma, and str(float) is repr(float)
        lines = [",".join(map(str, row)) for row in [COEFF_COLUMNS, *rows]]
    else:
        lines = [f"k = {k}", *(f"a_{i} = {fraction} = {value!r}" for i, _, _, fraction, value in rows)]
    return "\n".join(lines) + "\n"


def _cmd_coeffs(args, parser: argparse.ArgumentParser) -> int:
    start = time.perf_counter()
    _emit(_render_coeffs(args.k, args.format), args, start)
    return 0


# ---------------------------------------------------------------------------
# order
# ---------------------------------------------------------------------------


def _cmd_order(args, parser: argparse.ArgumentParser) -> int:
    start = time.perf_counter()
    problem = scalar_problem(args.problem)
    if args.family == "newton" and args.k != 0:
        parser.error(f"argument --k: newton takes no order index, got {args.k}")
    if args.family == "taylor" and args.k + 1 > problem.max_derivative_order:
        parser.error(f"argument --k: taylor:{args.k} needs derivatives up to order {args.k + 1}; "
                     f"problem {args.problem!r} supplies {problem.max_derivative_order}")
    spec = parse_map_spec("newton" if args.family == "newton" else f"{args.family}:{args.k}")
    result = iterate(problem, spec, args.x0, max_iter=args.max_iter, tol=args.tol)
    payload = {
        "problem": args.problem,
        "map": spec.describe(),
        "x0": args.x0,
        "tol": args.tol,
        "trajectory": list(result.points),
        "status": result.status.value,
        "estimated_order": None,
    }
    try:
        payload["estimated_order"] = estimate_order(result.points, problem.known_root)
    except InsufficientDataError as exc:
        payload["order_estimate_note"] = str(exc)
    _emit(json.dumps(payload, indent=2) + "\n", args, start)
    return 0


# ---------------------------------------------------------------------------
# capture
# ---------------------------------------------------------------------------


CAPTURE_COLUMNS = ("grid_i", "grid_j", "x0", "y0", "x2", "y2", "fnorm", "g")


def _captured_columns(result: CaptureResult) -> list:
    """The captured points as the columns of CAPTURE_COLUMNS: ints and floats, and None for no objective."""
    g = [None] * len(result.fnorms) if result.objectives is None else result.objectives.tolist()
    return [c.tolist() for c in (result.grid_i, result.grid_j, *result.seeds.T, *result.points.T, result.fnorms)] + [g]


def _cluster_rows(result: CaptureResult, top: int | None = None) -> list[dict]:
    """x, y and count of each cluster, counted from the labels: of all in cluster order, each with its
    members (the captured indices in order), or of the top largest, by size and then cluster order."""
    sizes = np.bincount(result.labels, minlength=len(result.clusters))
    if top is not None:
        pick = np.argsort(-sizes, kind="stable")[:top]
        return [{"x": x, "y": y, "count": n} for (x, y), n in zip(result.clusters[pick].tolist(), sizes[pick].tolist())]
    members, ends = np.argsort(result.labels, kind="stable").tolist(), np.cumsum(sizes).tolist()
    rows = zip(result.clusters.tolist(), sizes.tolist(), [0, *ends], ends)
    return [{"x": x, "y": y, "count": count, "members": members[start:end]} for (x, y), count, start, end in rows]


def _texts(values: np.ndarray, fmt: str) -> np.ndarray:
    """fmt % v for each of values (float64 or int64), in an object array of their shape; each distinct value,
    keyed by its bits, is formatted once, so -0.0 and 0.0 keep their own texts."""
    bits, at = np.unique(values.view(np.int64), return_inverse=True)
    return np.array([fmt % v for v in bits.view(values.dtype).tolist()], dtype=object)[at.reshape(values.shape)]


def render_capture_csv(result: CaptureResult) -> str:
    """CSV rows for captured points: grid indices as %d, coordinates and g as %.6f (g empty for a problem with
    no objective), fnorm as %.9e.  Each distinct value of a column group is formatted once, keyed by its bits,
    so the bytes are those of formatting each row.  No field holds a comma, a quote or a newline, so none is quoted."""
    g = () if result.objectives is None else (result.objectives,)
    decimals = _texts(np.column_stack([result.seeds, result.points, *g]), "%.6f").T.tolist()
    columns = [*_texts(np.column_stack([result.grid_i, result.grid_j]), "%d").T.tolist(), *decimals[:4],
               _texts(result.fnorms, "%.9e").tolist(), decimals[4] if g else [""] * len(result.fnorms)]
    lines = [",".join(CAPTURE_COLUMNS), *map(",".join, zip(*columns))]
    return "\n".join(lines) + "\n"


def capture_result_to_dict(result: CaptureResult) -> dict:
    """JSON-ready mirror of a CaptureResult (full float precision)."""
    return {
        "counts": asdict(result.counts),
        "captured": [dict(zip(CAPTURE_COLUMNS, row)) for row in zip(*_captured_columns(result))],
        "clusters": _cluster_rows(result),
    }


def _scans(problem, config: CaptureConfig, maps: list[IterativeMap]) -> list[CaptureResult]:
    """One run_capture per map, in order, of one two_steps walk of every map on config.grid."""
    return [run_capture(problem, config, steps) for steps in two_steps(problem, config.grid, maps)]


def _cmd_capture(args, parser: argparse.ArgumentParser) -> int:
    start = time.perf_counter()
    try:
        map_spec = parse_map_spec(args.map)
        step_orders(map_spec)  # grid scans take the maps defined on R^n
    except ValueError as exc:
        parser.error(f"argument --map: {exc}")
    try:
        problem = vector_problem(args.problem)
    except OSError as exc:  # a --problem file that cannot be read
        raise ProblemFormatError(str(exc)) from exc
    if problem.n != 2:
        raise ProblemFormatError(f"grid scans are 2-D; problem {args.problem!r} is {problem.n}-dimensional")
    if problem.domain is None:
        raise ProblemFormatError(f"problem {args.problem!r} declares no domain; add a `domain` line")
    scan = CaptureConfig(grid=GridSpec(domain=problem.domain, nx=args.nx, ny=args.ny), tolerance=args.eps,
                         cluster_radius=args.cluster_radius, norm=args.norm)
    [result] = _scans(problem, scan, [map_spec])
    if args.format == "json":
        payload = capture_result_to_dict(result)
        payload["problem"] = args.problem
        payload["map"] = map_spec.describe()
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = render_capture_csv(result)
    _emit(text, args, start)
    return 0


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

# Published capture counts for the two worked examples; grid construction in
# the source is ambiguous for the first one, so these are comparison targets,
# not assertions.
EXAMPLE1_MAPS = [
    ("t_0", "bary:0", 1),
    ("t_1", "bary:1", 50),
    ("t_2", "bary:2", 8),
    ("t_3", "bary:3", 89),
    ("t_4", "bary:4", 4),
    ("t_5", "bary:5", 77),
    ("t_21", "compose:bary:2,bary:1", 6),
    ("t_32", "compose:bary:3,bary:2", 18),
]
EXAMPLE2_COARSE_MAPS = [
    ("t_0", "bary:0", 12),
    ("t_1", "bary:1", 28),
    ("t_2", "bary:2", 60),
    ("t_3", "bary:3", 64),
    ("t_4", "bary:4", 52),
    ("t_54", "compose:bary:5,bary:4", 208),
]
EXAMPLE2_FINE_MAPS = [("t_54", "compose:bary:5,bary:4", 664)]

REPRODUCE_SETUPS = {
    "example1": ("rutishauser", 19, 19, 0.001, EXAMPLE1_MAPS),
    "example2-coarse": ("ackley", 19, 19, 0.001, EXAMPLE2_COARSE_MAPS),
    "example2-fine": ("ackley", 41, 41, 0.1, EXAMPLE2_FINE_MAPS),
}


def _reproduce_report(example: str, cluster_radius: float) -> tuple[dict, dict]:
    problem_name, nx, ny, eps, map_table = REPRODUCE_SETUPS[example]
    problem = vector_problem(problem_name)
    grid = GridSpec(domain=problem.domain, nx=nx, ny=ny)
    scans = _scans(problem, CaptureConfig(grid=grid, tolerance=eps, cluster_radius=cluster_radius),
                   [parse_map_spec(spec_text) for _, spec_text, _ in map_table])
    results = {label: result for (label, _, _), result in zip(map_table, scans)}
    tops = [_cluster_rows(result, top=8) for result in scans]
    # one objective call on every map's stacked top representatives; the kernels do not depend on batch size
    g = iter(objectives(problem, np.array([[cl["x"], cl["y"]] for clusters in tops for cl in clusters])).tolist())
    maps = [{
        "label": label, "map": spec_text, "captured": result.counts.captured, "reference_count": reference_count,
        "counts": asdict(result.counts), "clusters": [{**cl, "g": next(g)} for cl in clusters],
        "total_clusters": len(result.clusters),
    } for (label, spec_text, reference_count), result, clusters in zip(map_table, scans, tops)]
    report = {"example": example, "problem": problem_name, "nx": nx, "ny": ny, "dx": grid.dx, "dy": grid.dy,
              "eps": eps, "cluster_radius": cluster_radius, "maps": maps}
    return report, results


def _render_report_text(report: dict) -> str:
    lines = [
        f"example {report['example']}: problem={report['problem']} "
        f"grid={report['nx']}x{report['ny']} (dx={report['dx']:.6g}, dy={report['dy']:.6g}) "
        f"eps={report['eps']:g}",
        "",
        f"{'map':<8} {'captured':>8} {'reference':>8}",
    ]
    for row in report["maps"]:
        lines.append(f"{row['label']:<8} {row['captured']:>8} {row['reference_count']:>8}")
    lines += ["", "reference counts: " + ", ".join(str(r["reference_count"]) for r in report["maps"]),
              "our counts:       " + ", ".join(str(r["captured"]) for r in report["maps"])]
    if report["example"] == "example2-fine":
        lines.append("(the source text reports 664 captured points; its figure caption says 1458)")
    for row in report["maps"]:
        lines += ["", f"{row['label']} clusters (top {len(row['clusters'])} of {row['total_clusters']} by size):",
                  f"  {'x':>12} {'y':>12} {'count':>6} {'g':>12}"]
        lines += [f"  {cl['x']:>12.6f} {cl['y']:>12.6f} {cl['count']:>6} {cl['g']:>12.6f}" for cl in row["clusters"]]
    return "\n".join(lines) + "\n"


def _cmd_reproduce(args, parser: argparse.ArgumentParser) -> int:
    start = time.perf_counter()
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
    report, results = _reproduce_report(args.example, args.cluster_radius)
    report_json = json.dumps(report, indent=2) + "\n" if args.format == "json" or args.out is not None else None
    sys.stdout.write(report_json if args.format == "json" else _render_report_text(report))
    if args.out is not None:
        prefix = os.path.join(args.out, args.example)
        files = {f"{prefix}-report.json": report_json}
        files.update({f"{prefix}-{label}.csv": render_capture_csv(result) for label, result in results.items()})
        _write_outputs(files, f"{prefix}-manifest.json", args, start)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _checked(name: str, parse, valid, message: str):
    """The argparse type called name: parse(text), rejected with message.format(text)
    unless valid(value)."""

    def convert(text: str):
        value = parse(text)
        if not valid(value):
            raise argparse.ArgumentTypeError(message.format(text))
        return value

    convert.__name__ = name
    return convert


_finite_float = _checked("_finite_float", float, math.isfinite, "must be finite, got {}")
_positive_float = _checked(
    "_positive_float", float, lambda v: 0 < v < math.inf, "must be positive and finite, got {}"
)
_order_index = _checked(
    "_order_index", int, lambda v: 0 <= v <= MAX_ORDER_INDEX, f"must be in 0..{MAX_ORDER_INDEX}, got {{}}"
)
_vertices = _checked("_vertices", int, lambda v: v >= 2, "need at least 2 vertices per axis, got {}")
_positive_int = _checked("_positive_int", int, lambda v: v >= 1, "must be >= 1, got {}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootmaps",
        description="Higher-order iterative maps: coefficients, order measurement, grid scans.",
    )
    parser.add_argument("--version", action="version", version=f"rootmaps {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_coeffs = sub.add_parser("coeffs", help="print barycentric weights for an order index")
    p_coeffs.add_argument("--k", type=_order_index, required=True, help=f"order index (0..{MAX_ORDER_INDEX})")
    p_coeffs.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_coeffs.add_argument("--out", help="write output to this path instead of stdout")

    names = ", ".join(p.name for p in scalar_test_set())
    p_order = sub.add_parser("order", help="iterate a scalar map and estimate its order")
    p_order.add_argument("--problem", required=True, help=f"scalar problem name ({names})")
    p_order.add_argument("--family", choices=["newton", "taylor", "bary"], required=True)
    p_order.add_argument("--k", type=_order_index, default=0, help="order index for taylor/bary (newton is k = 0)")
    p_order.add_argument("--x0", type=_finite_float, required=True, help="starting point")
    p_order.add_argument("--max-iter", type=_positive_int, default=30)
    p_order.add_argument("--tol", type=_positive_float, default=1e-12)
    p_order.add_argument("--out", help="write JSON to this path instead of stdout")

    p_capture = sub.add_parser("capture", help="two-iteration grid scan for zeros")
    p_capture.add_argument(
        "--problem", required=True, help="rutishauser, ackley, or a polynomial-system file path"
    )
    p_capture.add_argument("--map", required=True, help="newton | bary:<k> | compose:<spec>,<spec>")
    p_capture.add_argument("--nx", type=_vertices, default=19, help="vertices along x (default 19)")
    p_capture.add_argument("--ny", type=_vertices, default=19, help="vertices along y (default 19)")
    p_capture.add_argument("--eps", type=_positive_float, required=True, help="capture tolerance")
    p_capture.add_argument("--cluster-radius", type=_positive_float, default=DEFAULT_CLUSTER_RADIUS)
    p_capture.add_argument("--norm", choices=["max", "euclidean"], default="max")
    p_capture.add_argument("--format", choices=["csv", "json"], default="csv")
    p_capture.add_argument("--out", help="write output to this path instead of stdout")

    p_repro = sub.add_parser("reproduce", help="re-run a published example end to end")
    p_repro.add_argument("--example", choices=sorted(REPRODUCE_SETUPS), required=True)
    p_repro.add_argument("--cluster-radius", type=_positive_float, default=DEFAULT_CLUSTER_RADIUS)
    p_repro.add_argument("--format", choices=["text", "json"], default="text")
    p_repro.add_argument("--out", help="directory for per-map CSVs, report, and manifest")
    return parser


_parser: argparse.ArgumentParser | None = None  # the parser main reuses, built on its first call


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    parser = _parser
    args = parser.parse_args(argv)
    args.argv = list(sys.argv[1:] if argv is None else argv)
    commands = {"coeffs": _cmd_coeffs, "order": _cmd_order, "capture": _cmd_capture, "reproduce": _cmd_reproduce}
    try:
        if args.out is not None and args.subcommand != "reproduce":  # reproduce's --out is a directory
            _check_out(args.out)
        return commands[args.subcommand](args, parser)
    except ProblemFormatError as exc:
        print(f"rootmaps: problem definition error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # only writing --out is left to raise it
        parser.error(f"argument --out: {exc}")


if __name__ == "__main__":
    sys.exit(main())
