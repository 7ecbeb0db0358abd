"""The benchmark runs on the program as it stands.

``bench/run.py`` calls the program's public functions and, with
``--trace 1``, wraps by name the functions its ``TRACED`` table lists, so
a renamed or deleted function, or a changed signature, breaks it.  Each
workload runs a short smoke pass, traced and untraced, and must exit 0
with its correctness checks met.  The traced pass must also see the cut
integrals and, on the optimizer, the slerp rotation under their traced
names: a second path that bypasses one of them would leave its span, and
the acceptance ratio counted from the slerp calls, at 0.  A short
full-size pass per workload also runs the checks against the reference
outputs, which a smoke pass skips: a roundoff-level change that moves the
seed-0 cost ratio out of its gate fails here.
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


def _bench(workload, trace, *extra):
    """Run the benchmark for one second at seed 0; returns the report and
    the last line, both parsed."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         "0", "--seconds", "1", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    *_, report, last = done.stdout.strip().splitlines()
    assert report.startswith("report ")
    return json.loads(report[len("report "):]), json.loads(last)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", _workloads())
def test_bench_smoke_run_is_correct(workload, trace):
    _, last = _bench(workload, trace, "--smoke")
    assert last["correct"] is True, last
    if trace:
        metrics = {name: m["value"] for name, m in last["metrics"].items()}
        assert metrics["levelset.negative_region_integrals.calls"] > 0
        if workload.startswith("optimize"):
            assert metrics["optimize.slerp_update.calls"] > 0
            assert 0.0 < metrics["optimize.accept_ratio"] <= 1.0


@pytest.mark.parametrize("workload", _workloads())
def test_bench_run_meets_the_reference_gates(workload):
    report, last = _bench(workload, 0)
    assert last["correct"] is True, last
    if workload.startswith("optimize"):
        gate = report["checks"]["j_matches_reference"]
        assert gate["total"] >= 1 and gate["passed"] == gate["total"], gate
