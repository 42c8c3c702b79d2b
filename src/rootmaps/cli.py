"""Command-line front end: coeffs, order, capture, and reproduce subcommands."""

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass

from . import __version__
from .capture import CaptureConfig, CaptureResult, GridSpec, run_capture
from .coefficients import MAX_ORDER_INDEX, barycentric_coefficients
from .maps1d import (
    InsufficientDataError,
    IterativeMap,
    MapFamily,
    compose,
    estimate_order,
    iterate,
    newton_barycentric,
    newton_map,
    newton_taylor,
)
from .mapsnd import VectorProblem
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
    while end < len(s) and s[end].isdigit():
        end += 1
    if end == pos:
        raise MapSpecError(f"expected an order index at {s[pos:]!r}")
    k = int(s[pos:end])
    if k > MAX_ORDER_INDEX:
        raise MapSpecError(f"order index {k} exceeds the supported maximum {MAX_ORDER_INDEX}")
    return k, end


def _map_uses_taylor(spec: IterativeMap) -> bool:
    if spec.components is not None:
        return any(_map_uses_taylor(c) for c in spec.components)
    return spec.family is MapFamily.NEWTON_TAYLOR


@dataclass
class RunManifest:
    """Enough resolved configuration to re-run a command exactly."""

    subcommand: str
    config: dict
    version: str
    duration_seconds: float
    outputs: list[str]


def _write_manifest(path: str, manifest: RunManifest) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(manifest), fh, indent=2)
        fh.write("\n")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------


def _render_coeffs(k: int, fmt: str) -> str:
    coeffs = barycentric_coefficients(k)
    if fmt == "json":
        payload = {
            "k": k,
            "coefficients": [
                {
                    "index": i,
                    "numerator": a.numerator,
                    "denominator": a.denominator,
                    "fraction": str(a),
                    "value": float(a),
                }
                for i, a in enumerate(coeffs.a)
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["index", "numerator", "denominator", "fraction", "value"])
        for i, a in enumerate(coeffs.a):
            writer.writerow([i, a.numerator, a.denominator, str(a), repr(float(a))])
        return buf.getvalue()
    lines = [f"k = {k}"]
    for i, a in enumerate(coeffs.a):
        lines.append(f"a_{i} = {a} = {float(a)!r}")
    return "\n".join(lines) + "\n"


def _cmd_coeffs(args) -> int:
    start = time.perf_counter()
    text = _render_coeffs(args.k, args.format)
    _emit(text, args.out)
    if args.out:
        manifest = RunManifest(
            subcommand="coeffs",
            config={"k": args.k, "format": args.format, "out": args.out},
            version=__version__,
            duration_seconds=time.perf_counter() - start,
            outputs=[args.out],
        )
        _write_manifest(args.out + ".manifest.json", manifest)
    return 0


# ---------------------------------------------------------------------------
# order
# ---------------------------------------------------------------------------


def _cmd_order(args) -> int:
    start = time.perf_counter()
    problem = scalar_problem(args.problem)
    if args.family == "newton":
        spec = newton_map()
    elif args.family == "taylor":
        spec = newton_taylor(args.k)
    else:
        spec = newton_barycentric(args.k)
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
    text = json.dumps(payload, indent=2) + "\n"
    _emit(text, args.out)
    if args.out:
        manifest = RunManifest(
            subcommand="order",
            config={
                "problem": args.problem,
                "family": args.family,
                "k": args.k,
                "x0": args.x0,
                "max_iter": args.max_iter,
                "tol": args.tol,
                "out": args.out,
            },
            version=__version__,
            duration_seconds=time.perf_counter() - start,
            outputs=[args.out],
        )
        _write_manifest(args.out + ".manifest.json", manifest)
    return 0


# ---------------------------------------------------------------------------
# capture
# ---------------------------------------------------------------------------


def render_capture_csv(result: CaptureResult) -> str:
    """CSV rows for captured points; coordinates carry 6 decimals."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["grid_i", "grid_j", "x0", "y0", "x2", "y2", "fnorm", "g"])
    for c in result.captured:
        writer.writerow(
            [
                c.grid_i,
                c.grid_j,
                f"{c.seed[0]:.6f}",
                f"{c.seed[1]:.6f}",
                f"{c.point[0]:.6f}",
                f"{c.point[1]:.6f}",
                f"{c.fnorm:.9e}",
                "" if c.objective is None else f"{c.objective:.6f}",
            ]
        )
    return buf.getvalue()


def capture_result_to_dict(result: CaptureResult) -> dict:
    """JSON-ready mirror of a CaptureResult (full float precision)."""
    return {
        "counts": asdict(result.counts),
        "captured": [
            {
                "grid_i": c.grid_i,
                "grid_j": c.grid_j,
                "x0": float(c.seed[0]),
                "y0": float(c.seed[1]),
                "x2": float(c.point[0]),
                "y2": float(c.point[1]),
                "fnorm": c.fnorm,
                "g": c.objective,
            }
            for c in result.captured
        ],
        "clusters": [
            {
                "x": float(cl.representative[0]),
                "y": float(cl.representative[1]),
                "count": cl.count,
                "members": list(cl.members),
            }
            for cl in result.clusters
        ],
    }


def _capture_once(problem: VectorProblem, args, map_spec: IterativeMap) -> CaptureResult:
    grid = GridSpec(domain=problem.domain, nx=args.nx, ny=args.ny)
    config = CaptureConfig(
        grid=grid,
        tolerance=args.eps,
        map=map_spec,
        cluster_radius=args.cluster_radius,
        norm=args.norm,
    )
    return run_capture(problem, config, threads=args.threads)


def _cmd_capture(args, parser: argparse.ArgumentParser) -> int:
    start = time.perf_counter()
    try:
        map_spec = parse_map_spec(args.map)
    except (MapSpecError, ValueError) as exc:
        parser.error(f"argument --map: {exc}")
    if _map_uses_taylor(map_spec):
        parser.error("argument --map: taylor maps are scalar-only; grid scans need newton/bary maps")
    problem = vector_problem(args.problem)
    if problem.domain is None:
        raise ProblemFormatError(f"problem {args.problem!r} declares no domain; add a `domain` line")
    result = _capture_once(problem, args, map_spec)
    if args.format == "json":
        payload = capture_result_to_dict(result)
        payload["problem"] = args.problem
        payload["map"] = map_spec.describe()
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = render_capture_csv(result)
    _emit(text, args.out)
    if args.out:
        manifest = RunManifest(
            subcommand="capture",
            config={
                "problem": args.problem,
                "map": map_spec.describe(),
                "nx": args.nx,
                "ny": args.ny,
                "eps": args.eps,
                "cluster_radius": args.cluster_radius,
                "norm": args.norm,
                "threads": args.threads,
                "format": args.format,
                "out": args.out,
            },
            version=__version__,
            duration_seconds=time.perf_counter() - start,
            outputs=[args.out],
        )
        _write_manifest(args.out + ".manifest.json", manifest)
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

_MAX_CLUSTER_ROWS = 8


def _reproduce_report(example: str, threads: int, cluster_radius: float) -> tuple[dict, dict]:
    problem_name, nx, ny, eps, map_rows = REPRODUCE_SETUPS[example]
    problem = vector_problem(problem_name)
    grid = GridSpec(domain=problem.domain, nx=nx, ny=ny)
    maps = []
    results = {}
    for label, spec_text, reference_count in map_rows:
        map_spec = parse_map_spec(spec_text)
        config = CaptureConfig(grid=grid, tolerance=eps, map=map_spec, cluster_radius=cluster_radius)
        result = run_capture(problem, config, threads=threads)
        results[label] = result
        clusters = sorted(result.clusters, key=lambda c: -c.count)[:_MAX_CLUSTER_ROWS]
        maps.append(
            {
                "label": label,
                "map": spec_text,
                "captured": result.counts.captured,
                "reference_count": reference_count,
                "counts": asdict(result.counts),
                "clusters": [
                    {
                        "x": float(cl.representative[0]),
                        "y": float(cl.representative[1]),
                        "count": cl.count,
                        "g": None
                        if problem.objective is None
                        else float(problem.objective(cl.representative)),
                    }
                    for cl in clusters
                ],
                "total_clusters": len(result.clusters),
            }
        )
    report = {
        "example": example,
        "problem": problem_name,
        "nx": nx,
        "ny": ny,
        "dx": grid.dx,
        "dy": grid.dy,
        "eps": eps,
        "cluster_radius": cluster_radius,
        "maps": maps,
    }
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
    lines.append("")
    lines.append("reference counts: " + ", ".join(str(r["reference_count"]) for r in report["maps"]))
    lines.append("our counts:       " + ", ".join(str(r["captured"]) for r in report["maps"]))
    if report["example"] == "example2-fine":
        lines.append("(the source text reports 664 captured points; its figure caption says 1458)")
    for row in report["maps"]:
        lines.append("")
        lines.append(
            f"{row['label']} clusters (top {len(row['clusters'])} of {row['total_clusters']} by size):"
        )
        lines.append(f"  {'x':>12} {'y':>12} {'count':>6} {'g':>12}")
        for cl in row["clusters"]:
            g_text = "" if cl["g"] is None else f"{cl['g']:.6f}"
            lines.append(f"  {cl['x']:>12.6f} {cl['y']:>12.6f} {cl['count']:>6} {g_text:>12}")
    return "\n".join(lines) + "\n"


def _cmd_reproduce(args) -> int:
    start = time.perf_counter()
    report, results = _reproduce_report(args.example, args.threads, args.cluster_radius)
    text = json.dumps(report, indent=2) + "\n" if args.format == "json" else _render_report_text(report)
    sys.stdout.write(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        outputs = []
        report_path = os.path.join(args.out, f"{args.example}-report.json")
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        outputs.append(report_path)
        for label, result in results.items():
            csv_path = os.path.join(args.out, f"{args.example}-{label}.csv")
            with open(csv_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(render_capture_csv(result))
            outputs.append(csv_path)
        manifest = RunManifest(
            subcommand="reproduce",
            config={
                "example": args.example,
                "threads": args.threads,
                "cluster_radius": args.cluster_radius,
                "format": args.format,
                "out": args.out,
            },
            version=__version__,
            duration_seconds=time.perf_counter() - start,
            outputs=outputs,
        )
        _write_manifest(os.path.join(args.out, f"{args.example}-manifest.json"), manifest)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _order_index(text: str) -> int:
    value = int(text)
    if value < 0 or value > MAX_ORDER_INDEX:
        raise argparse.ArgumentTypeError(f"must be in 0..{MAX_ORDER_INDEX}, got {text}")
    return value


def _vertices(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 vertices per axis, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


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
    p_order.add_argument("--k", type=_order_index, default=0, help="order index for taylor/bary")
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
    p_capture.add_argument("--cluster-radius", type=_positive_float, default=1e-3)
    p_capture.add_argument("--norm", choices=["max", "euclidean"], default="max")
    p_capture.add_argument("--threads", type=_nonnegative_int, default=1, help="0 = auto")
    p_capture.add_argument("--format", choices=["csv", "json"], default="csv")
    p_capture.add_argument("--out", help="write output to this path instead of stdout")

    p_repro = sub.add_parser("reproduce", help="re-run a published example end to end")
    p_repro.add_argument("--example", choices=sorted(REPRODUCE_SETUPS), required=True)
    p_repro.add_argument("--cluster-radius", type=_positive_float, default=1e-3)
    p_repro.add_argument("--threads", type=_nonnegative_int, default=1, help="0 = auto")
    p_repro.add_argument("--format", choices=["text", "json"], default="text")
    p_repro.add_argument("--out", help="directory for per-map CSVs, report, and manifest")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "coeffs":
            return _cmd_coeffs(args)
        if args.subcommand == "order":
            return _cmd_order(args)
        if args.subcommand == "capture":
            return _cmd_capture(args, parser)
        return _cmd_reproduce(args)
    except (ProblemFormatError, OSError) as exc:
        print(f"rootmaps: problem definition error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
