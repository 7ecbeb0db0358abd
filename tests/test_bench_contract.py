"""The benchmark runs on the program as it stands.

``bench/run.py`` calls the program's public functions and, with
``--trace 1``, wraps by name the functions its ``TRACED`` table lists, so
a renamed or deleted function, or a changed signature, breaks it.  Each
workload runs a short smoke pass, traced and untraced, and must exit 0
with its correctness checks met: the checks its kind requires ran and
passed, no operation failed, and the metrics are the ones BENCHMARK.json
names, with their units, beside the environment of the run.  The traced
pass must also see the cut integrals, the ldlt factor and, on the
optimizer, the slerp rotation under their traced names: a second path that
bypasses one of them would leave its span, and the acceptance ratio counted
from the slerp calls, at 0.  A short full-size pass per workload also runs
the checks against the reference outputs, which a smoke pass skips: a
roundoff-level change that moves the seed-0 cost ratio out of its gate
fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# the checks every smoke run of a workload kind must run and pass; a traced
# run also checks that its call counts repeat
CHECKS = {
    "optimize": {"completed", "j_non_increasing", "j_repeats",
                 "target_reached"},
    "verify": {"pass_completed", "hd_agreement", "estimates_repeat"},
}
ENVIRONMENT_KEYS = {"nproc", "cpu_model", "python", "numpy", "scipy",
                    "commit", "src_lines"}


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
@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_smoke_run_is_correct(workload, trace):
    report, last = _bench(workload, trace, "--smoke")
    assert last["correct"] is True, last
    assert last["attempted"] >= 1 and last["failed"] == 0
    assert report["ops"] == last["attempted"]
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in last["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], float)
               for m in last["metrics"].values())
    kind = workload.split("-")[0]
    assert CHECKS[kind] | ({"calls_repeat"} if trace else set()) \
        <= set(report["checks"])
    assert all(c["total"] > 0 and c["passed"] == c["total"]
               for c in report["checks"].values()), report["checks"]
    assert ENVIRONMENT_KEYS <= set(report["environment"])
    if trace:
        metrics = {name: m["value"] for name, m in last["metrics"].items()}
        assert metrics["levelset.negative_region_integrals.calls"] > 0
        # every real, complex and hyper-dual system is factored by ldlt
        assert metrics["ldlt.ldlt_factor.calls"] > 0
        if kind == "optimize":
            assert metrics["optimize.slerp_update.calls"] > 0
            assert 0.0 < metrics["optimize.accept_ratio"] <= 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_run_meets_the_reference_gates(workload):
    report, last = _bench(workload, 0)
    assert last["correct"] is True, last
    if workload.startswith("optimize"):
        gate = report["checks"]["j_matches_reference"]
        assert gate["total"] >= 1 and gate["passed"] == gate["total"], gate
