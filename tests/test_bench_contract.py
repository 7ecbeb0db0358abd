"""The benchmark runs on the program as it stands.

``bench/run.py`` calls the program's public functions and, with
``--trace 1``, wraps by name the functions its ``TRACED`` table lists, so
a renamed or deleted function, or a changed signature, breaks it.  Each
workload runs a short smoke pass, traced and untraced, and must exit 0
with its correctness checks met.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    return [w["name"] for w in
            json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", _workloads())
def test_bench_smoke_run_is_correct(workload, trace):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         "0", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, last
