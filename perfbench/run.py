"""rootmaps benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up is timed in SETUP_PROBES fresh
processes; the workload then runs in its own single-threaded process for S
seconds.  With --trace 0 the last line of output holds the end-to-end
metrics.  With --trace 1 an untraced and a traced process share the S
seconds; the last line holds the per-layer metrics from the traced one and
the tracing overhead measured against the untraced one.  Every pass is
checked; a wrong output makes the run fail.  Times are scaled to a
reference host speed (see worker.REFERENCE_LOOP_S and README.md).
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
WORK_ROOT = CHECKOUT / ".perfbench"
# Names and units of the metrics each kind of run prints.
SPEC = CHECKOUT / "BENCHMARK.json"
SETUP_PROBES = 7
# Every process this run starts must have ended this long after it began.
RUN_TIMEOUT_S = 170
# Keep numeric libraries to one thread: the workloads measure one core.
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

class BenchmarkError(Exception):
    """The benchmark itself could not run: no result is printed."""


def python_env():
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(CHECKOUT / "src"), env.get("PYTHONPATH")]))
    return env


def run_worker(args, work_dir, extra=()):
    """Run worker.py to completion and return (start clock, its last JSON line).

    A worker still running at the run's deadline is killed and waited for.
    """
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--work-dir", str(work_dir),
        *extra,
    ]
    if args.workload == "capture-polyfile":
        command += ["--poly-file", str(work_dir / "problem.poly")]
    start = time.perf_counter()
    timeout = max(args.deadline - start, 1.0)
    try:
        proc = subprocess.run(command, env=python_env(), cwd=CHECKOUT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"the run passed its {RUN_TIMEOUT_S} s limit in: {' '.join(command)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return start, json.loads(lines[-1])


def measure_setup(args, work_dir):
    """Median set-up time over fresh processes, each timed from its start and
    scaled to the reference speed measured in that process."""
    samples = []
    for _ in range(SETUP_PROBES):
        start, reply = run_worker(args, work_dir, ["--setup-only"])
        samples.append({"unscaled_s": reply["setup_end"] - start, "scale": reply["scale"]})
    return statistics.median(s["unscaled_s"] * s["scale"] for s in samples), samples


def measure(args, work_dir, seconds, trace):
    extra = ["--seconds", repr(seconds), "--trace", str(trace)]
    if trace:
        extra += ["--spans-out", str(WORK_ROOT / f"spans-{args.workload}.csv")]
    return run_worker(args, work_dir, extra)[1]


def git_commit():
    """The checked-out commit, read from .git without running git; None outside a clone."""
    head = CHECKOUT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        ref_file = CHECKOUT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (CHECKOUT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args, numpy_version):
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(affinity) if affinity else os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "seed": args.seed,
        "argv": sys.argv,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def parse_args():
    parser = argparse.ArgumentParser(description="rootmaps benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    args.deadline = time.perf_counter() + RUN_TIMEOUT_S
    return args


def run(args, work_dir):
    spec = json.loads(SPEC.read_text())
    if args.workload == "capture-polyfile":
        workloads.write_poly_file(workloads.poly_coefficients(args.seed), work_dir / "problem.poly")
    setup_samples = []
    if args.trace:
        plain = measure(args, work_dir, args.seconds / 2, trace=0)
        traced = measure(args, work_dir, args.seconds / 2, trace=1)
        results = [plain, traced]
        layers = dict(traced["layers"])
        layers["trace.overhead_ratio"] = traced["wall_s"]["p50"] / plain["wall_s"]["p50"]
        layers["trace.unmeasured_hooks"] = len(traced["unmeasured"])
        metrics = {m["name"]: metric(layers[m["name"]], m["unit"]) for m in spec["per_layer"]}
    else:
        setup_s, setup_samples = measure_setup(args, work_dir)
        plain = measure(args, work_dir, args.seconds, trace=0)
        results = [plain]
        values = {
            "setup_s": setup_s,
            "wall_s": plain["wall_s"]["p50"],
            "cpu_s": plain["cpu_s"]["p50"],
            "peak_rss_mib": plain["peak_rss_mib"],
            "task_s_p50": plain["task_s"]["p50"],
        }
        metrics = {m["name"]: metric(values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    report = {
        "workload": args.workload,
        "environment": environment(args, plain["numpy"]),
        "setup_s_samples": setup_samples,
        "runs": [{k: v for k, v in r.items() if k not in ("layers", "numpy")} for r in results],
        "failed_ratio": failed / attempted,
    }
    return report, {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    args = parse_args()
    if not (CHECKOUT / "src" / "rootmaps" / "__init__.py").is_file():
        print(f"no rootmaps sources under {CHECKOUT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        report, result = run(args, work_dir)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
