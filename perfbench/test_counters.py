"""The benchmark's exact work counters repeat across runs and match the
reference commit (ea3f494).

    python3 -m pytest perfbench/test_counters.py

Each run is a traced worker process making one pass (about 15 s in all).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

# (workload, map) -> (seeds, Jacobian calls) at the reference commit.
REFERENCE_JACOBIAN_CALLS = {
    ("reproduce-example1", "compose:bary:3,bary:2"): (361, 11913),
    ("reproduce-example2-fine", "compose:bary:5,bary:4"): (1681, 122641),
}


def traced_pass(workload, work_dir):
    command = [
        sys.executable, str(run.HERE / "worker.py"), "--workload", workload, "--seed", "0",
        "--seconds", "0", "--trace", "1", "--work-dir", str(work_dir),
    ]
    proc = subprocess.run(command, env=run.python_env(), capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted({w for w, _ in REFERENCE_JACOBIAN_CALLS}))
def test_counters_repeat_and_match_reference(workload, tmp_path):
    first, second = (traced_pass(workload, tmp_path / str(i)) for i in range(2))
    assert first["failed"] == second["failed"] == 0
    assert first["scans"] == second["scans"]
    by_map = {scan["map"]: scan for scan in first["scans"]}
    for (name, spec), (seeds, jac_calls) in REFERENCE_JACOBIAN_CALLS.items():
        if name == workload:
            assert (by_map[spec]["seeds"], by_map[spec]["jac_calls"]) == (seeds, jac_calls)
    if workload == "reproduce-example2-fine":
        assert first["layers"]["problems.jac_calls_per_seed"] == 122641 / 1681
