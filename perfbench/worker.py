"""One benchmark process: set up a workload, run passes until time is up, check them.

run.py starts this script once per measurement, single-threaded, with the
checkout's `src` on PYTHONPATH.  Set-up covers importing rootmaps, building
or loading the problem, parsing the map specs and the first exact
coefficient solves.  With --setup-only the process stops there and prints the
monotonic clock, so its parent can time set-up from process start, and the
host-speed scale (see REFERENCE_LOOP_S).  With
--trace 1 every layer boundary is wrapped by tracing.Tracer before set-up.
The result is one JSON object on the last line of standard output.
"""

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import statistics
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

import tracing
import workloads

CHECKOUT = Path(__file__).resolve().parent.parent
MAX_REPORTED_FAILURES = 5
# Task latencies are kept as a uniform sample of at most this many, so the
# benchmark's own memory does not grow with the length of the run.
LATENCY_SAMPLE_SIZE = 1 << 16
# Host speed on a shared machine drifts by up to 1.7x within a minute.  A
# fixed pure-Python loop is timed between passes, for about 5 % of the last
# pass's time and at least 5 runs; every reported time is scaled by
# REFERENCE_LOOP_S over the loop's median time in the run, i.e. to the speed
# at which the loop takes 2 ms (a quiet phase of a 2.1 GHz Xeon).
REFERENCE_LOOP_ITERATIONS = 40_000
REFERENCE_LOOP_S = 0.002
REFERENCE_SHARE = 0.05
# A traced process stops starting passes beyond this many spans, which bounds
# its memory and the size of the span file (about 70 MB and 25 MB).
SPAN_LIMIT = 400_000


def import_rootmaps():
    import rootmaps
    import rootmaps.cli

    source = Path(rootmaps.__file__).resolve()
    if CHECKOUT / "src" not in source.parents:
        raise SystemExit(f"imported rootmaps from {source}, not from this checkout's src")
    return rootmaps


def solve_coefficients_for(rootmaps, specs):
    for spec in specs:
        for k in workloads.map_indices(spec):
            for j in range(k + 1):
                rootmaps.barycentric_coefficients(j)


class ScanWorkload:
    """Runs `rootmaps <args> --out <dir>` through cli.main in this process."""

    def __init__(self, name, seed, work_dir, poly_file):
        self.scan = workloads.SCANS[name]
        self.out_dir = Path(work_dir) / "out"
        self.poly_file = poly_file
        self.poly_coeffs = workloads.poly_coefficients(seed) if poly_file else None
        self.results = []
        self.signature = None

    def setup(self):
        rootmaps = import_rootmaps()
        problem_name = self.poly_file if self.scan.problem == workloads.POLY_FILE else self.scan.problem
        rootmaps.problems.vector_problem(problem_name)
        for spec in self.scan.maps:
            rootmaps.cli.parse_map_spec(spec)
        solve_coefficients_for(rootmaps, self.scan.maps)

    def prepare(self):
        """Observe run_capture's results, so every pass can be checked in full."""
        import rootmaps.cli

        run_capture = rootmaps.cli.run_capture

        def observed(*args, **kwargs):
            result = run_capture(*args, **kwargs)
            self.results.append(result)
            return result

        rootmaps.cli.run_capture = observed
        # reproduce writes a directory; capture writes a CSV and its manifest
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.csv = self.out_dir / "captured.csv"
        out = self.out_dir if self.scan.args[0] == "reproduce" else self.csv
        self.argv = workloads.scan_argv(self.scan, out, self.poly_file)

    def run_pass(self, index):
        """Returns (wall_s, cpu_s, tasks, failures, bytes_written) of one pass."""
        import rootmaps.cli

        self.results.clear()
        stdout = io.StringIO()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(stdout):
                code = rootmaps.cli.main(self.argv)
        except (Exception, SystemExit) as exc:  # a failed task, not a failed benchmark
            code = exc
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        latencies = [wall]
        if code != 0:
            return wall, cpu, latencies, [f"pass {index}: rootmaps exited with {code!r}"], 0
        outputs = {path.name: path.read_bytes() for path in sorted(self.out_dir.iterdir())}
        outputs["<stdout>"] = stdout.getvalue().encode()
        errors = workloads.check_scan(self.scan, self.results, self.poly_coeffs)
        if not errors and self.scan.args[0] == "capture":
            rows = outputs[self.csv.name].count(b"\n") - 1
            if rows != self.results[0].counts.captured:
                errors.append(f"CSV has {rows} rows, {self.results[0].counts.captured} captured")
        signature = hashlib.sha256(
            b"".join(name.encode() + data for name, data in sorted(outputs.items()) if "manifest" not in name)
        ).hexdigest()
        if self.signature is None:
            self.signature = signature
        elif signature != self.signature:
            errors.append("output bytes differ from the first pass")
        failures = [f"pass {index}: {e}" for e in errors[:1]]
        return wall, cpu, latencies, failures, sum(len(data) for data in outputs.values())

    def layer_counts(self):
        """Filter tallies and cluster sizes of the last pass."""
        totals = Counter()
        for result in self.results:
            c = result.counts
            totals.update(
                seeded=c.seeded, singular=c.skipped_singular, step_failures=c.step_failures,
                outside=c.skipped_outside, rejected=c.rejected_tolerance, captured=c.captured,
                cluster_in=len(result.captured), clusters_out=len(result.clusters),
            )
        return totals


class ScalarWorkload:
    """Runs every map in SCALAR_MAPS from every seeded start: iterate, then estimate_order."""

    def __init__(self, seed, tracer):
        self.seed = seed
        self.tracer = tracer
        self.signature = None
        self.last = []

    def setup(self):
        rootmaps = import_rootmaps()
        problems = {p.name: p for p in rootmaps.scalar_test_set()}
        self.maps = [rootmaps.cli.parse_map_spec(spec) for spec in workloads.SCALAR_MAPS]
        solve_coefficients_for(rootmaps, workloads.SCALAR_MAPS)
        self.problems = problems

    def prepare(self):
        from rootmaps.maps1d import InsufficientDataError, estimate_order, iterate

        self.no_estimate = InsufficientDataError
        self.iterate, self.estimate_order = iterate, estimate_order
        if self.tracer is not None:
            self.iterate = self.tracer.wrap("maps1d.iterate", iterate)
            self.estimate_order = self.tracer.wrap("maps1d.estimate", estimate_order)
            self.problems = {
                name: self.tracer.trace_problem(p, "maps1d.f", "maps1d.deriv", "derivatives")
                for name, p in self.problems.items()
            }
        self.orbits = [
            (name, x0, workloads.KNOWN_ROOTS[name], spec, m)
            for name, x0 in workloads.scalar_starts(self.seed)
            for spec, m in zip(workloads.SCALAR_MAPS, self.maps)
        ]

    def run_pass(self, index):
        iterate, estimate_order, no_estimate = self.iterate, self.estimate_order, self.no_estimate
        problems, tracer, clock = self.problems, self.tracer, time.perf_counter
        latencies = array("d")
        outcomes = []
        wall0, cpu0 = clock(), time.process_time()
        for task, (name, x0, root, _spec, iter_map) in enumerate(self.orbits):
            if tracer is not None:
                tracer.task = index * len(self.orbits) + task
            start = clock()
            try:
                problem = problems[name]
                run = iterate(problem, iter_map, x0)
                try:
                    order = estimate_order(run.points, root)
                except no_estimate:
                    order = None
                outcome = (run, order)
            except Exception as exc:  # a failed orbit, not a failed benchmark
                outcome = exc
            latencies.append(clock() - start)
            outcomes.append(outcome)
        wall, cpu = clock() - wall0, time.process_time() - cpu0
        failures = []
        for (name, x0, _root, spec, _map), outcome in zip(self.orbits, outcomes):
            failures += workloads.check_orbit(f"{name} {spec} x0={x0!r}", name, outcome)
        signature = repr([o if isinstance(o, Exception) else (o[0].points, o[0].status, o[1]) for o in outcomes])
        if self.signature is None:
            self.signature = signature
        elif signature != self.signature:
            failures.append("orbits differ from the first pass")
        self.last = outcomes
        return wall, cpu, latencies, [f"pass {index}: {f}" for f in failures], 0

    def layer_counts(self):
        runs = [o[0] for o in self.last if not isinstance(o, Exception)]
        return Counter(
            orbits=len(self.last),
            steps=sum(len(r.points) - 1 for r in runs),
            converged=sum(r.status.value == "converged" for r in runs),
        )


def time_reference_loop(samples, repeats):
    """Append the times of `repeats` runs of the fixed reference loop to samples."""
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0.0
        for i in range(REFERENCE_LOOP_ITERATIONS):
            total += i * 0.5
        samples.append(time.perf_counter() - start)


class LatencySample:
    """A uniform random sample of at most LATENCY_SAMPLE_SIZE values (reservoir sampling)."""

    def __init__(self, seed):
        self.values = array("d")
        self.seen = 0
        self._rng = random.Random(seed)

    def extend(self, values):
        for value in values:
            self.seen += 1
            if len(self.values) < LATENCY_SAMPLE_SIZE:
                self.values.append(value)
            else:
                slot = self._rng.randrange(self.seen)
                if slot < LATENCY_SAMPLE_SIZE:
                    self.values[slot] = value


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


def timing_summary(values):
    """Median, p99, and the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    summary = {"samples": n, "p50": percentile(values, 50), "p99": percentile(values, 99), "tail": None}
    if n >= 20:
        summary["tail"] = {"percentile": 100.0 * (n - 10) / n, "value": values[n - 11]}
    return summary


def layer_metrics(tracer, workload, passes):
    """Per-pass layer metrics from the spans of the traced passes."""
    per_pass = tracing.totals(tracer.spans, passes_only=True)
    whole_run = tracing.totals(tracer.spans)
    calls, incl, self_time = per_pass.calls, per_pass.inclusive, per_pass.self_time
    counts = workload.layer_counts()
    seeded, orbits = counts["seeded"], counts["orbits"]

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {
        "capture.run_s": incl["capture.run"] / passes,
        "capture.grid_s": incl["capture.grid"] / passes,
        "capture.classify_s": self_time["capture.run"] / passes,
        "capture.cluster_s": incl["capture.cluster"] / passes,
        "capture.cluster_in": counts["cluster_in"],
        "capture.clusters_out": counts["clusters_out"],
        "capture.singular": counts["singular"],
        "capture.step_failures": counts["step_failures"],
        "capture.outside": counts["outside"],
        "capture.rejected": counts["rejected"],
        "capture.captured": counts["captured"],
        "capture.capture_ratio": ratio(counts["captured"], seeded),
        "mapsnd.step_calls": calls["mapsnd.step"] / passes,
        "mapsnd.step_s": incl["mapsnd.step"] / passes,
        "mapsnd.step_self_s": self_time["mapsnd.step"] / passes,
        "mapsnd.solve_calls": calls["mapsnd.solve"] / passes,
        "mapsnd.solves_per_seed": ratio(calls["mapsnd.solve"] / passes, seeded),
        "mapsnd.solve_s": incl["mapsnd.solve"] / passes,
        "mapsnd.singular_check_s": self_time["mapsnd.singular_check"] / passes,
        "problems.f_calls": calls["problems.f"] / passes,
        "problems.jac_calls": calls["problems.jac"] / passes,
        "problems.f_calls_per_seed": ratio(calls["problems.f"] / passes, seeded),
        "problems.jac_calls_per_seed": ratio(calls["problems.jac"] / passes, seeded),
        "problems.f_s": incl["problems.f"] / passes,
        "problems.jac_s": incl["problems.jac"] / passes,
        "problems.load_s": incl["problems.load"] / passes,
        "maps1d.iterate_s": incl["maps1d.iterate"] / passes,
        "maps1d.estimate_s": incl["maps1d.estimate"] / passes,
        "maps1d.steps": counts["steps"],
        "maps1d.f_calls": calls["maps1d.f"] / passes,
        "maps1d.deriv_calls": calls["maps1d.deriv"] / passes,
        "maps1d.converged_ratio": ratio(counts["converged"], orbits),
        "coefficients.solve_s": whole_run.inclusive["coefficients.solve"],
        "cli.parse_s": incl["cli.parse"] / passes,
        "cli.render_s": incl["cli.render"] / passes,
    }
    scan_spans = tracing.counts_per_scan(tracer.spans)
    last_pass = scan_spans[len(scan_spans) - len(getattr(workload, "results", [])):]
    scans = [
        {
            "map": spec,
            "seeds": result.counts.seeded,
            "f_calls": c["problems.f"],
            "jac_calls": c["problems.jac"],
            "solve_calls": c["mapsnd.solve"],
            "step_calls": c["mapsnd.step"],
        }
        for spec, result, c in zip(workload.scan.maps, workload.results, last_pass)
    ] if hasattr(workload, "scan") else []
    return metrics, scans


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--poly-file", default="")
    parser.add_argument("--spans-out", default="")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        import_rootmaps()
        tracer.install()
    if args.workload == workloads.SCALAR_WORKLOAD:
        workload = ScalarWorkload(args.seed, tracer)
    else:
        workload = ScanWorkload(args.workload, args.seed, args.work_dir, args.poly_file)
    workload.setup()
    if args.setup_only:
        setup_end = time.perf_counter()
        reference = array("d")
        time_reference_loop(reference, 10)
        print(json.dumps({"setup_end": setup_end, "scale": REFERENCE_LOOP_S / statistics.median(reference)}))
        return 0
    workload.prepare()

    walls, cpus, reference, failures = [], [], array("d"), []
    latencies = LatencySample(args.seed)
    attempted = bytes_written = 0
    failed = 0
    start = time.perf_counter()
    time_reference_loop(reference, 5)
    while True:
        if tracer is not None:
            tracer.task = len(walls)
        wall, cpu, tasks, errors, written = workload.run_pass(len(walls))
        time_reference_loop(reference, max(5, round(REFERENCE_SHARE * wall / REFERENCE_LOOP_S)))
        walls.append(wall)
        cpus.append(cpu)
        latencies.extend(tasks)
        attempted += len(tasks)
        failed += min(len(errors), len(tasks))
        failures.extend(errors)
        bytes_written = written
        if time.perf_counter() - start >= args.seconds:
            break
        if tracer is not None and len(tracer.spans) >= SPAN_LIMIT:
            break

    reference_s = statistics.median(reference)
    scale = REFERENCE_LOOP_S / reference_s
    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:MAX_REPORTED_FAILURES],
        "wall_s": timing_summary([w * scale for w in walls]),
        "cpu_s": timing_summary([c * scale for c in cpus]),
        "task_s": dict(timing_summary([t * scale for t in latencies.values]), tasks=latencies.seen),
        "unscaled_wall_s": timing_summary(walls),
        "reference_loop_s": {"median": reference_s, "runs": len(reference)},
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bytes_written": bytes_written,
        "numpy": np.__version__,
    }
    if tracer is not None:
        result["layers"], result["scans"] = layer_metrics(tracer, workload, len(walls))
        result["layers"]["cli.bytes_written"] = bytes_written
        result["unmeasured"] = tracer.unmeasured
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
