"""Smoke test of the benchmark: every workload in ``--smoke`` mode emits
every metric that BENCHMARK.json names, with its unit, and runs its checks.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
CHECKS = {
    "optimize": {"completed", "j_non_increasing", "j_repeats",
                 "target_reached"},
    "verify": {"pass_completed", "hd_agreement", "estimates_repeat"},
}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170)


def smoke(workload, seed=0, trace=0):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert lines[-2].startswith("report ")
    return result, json.loads(lines[-2][len("report "):])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_and_runs_checks(workload, trace):
    result, report = smoke(workload, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
    kind = workload.split("-")[0]
    required = CHECKS[kind] | ({"calls_repeat"} if trace else set())
    assert required <= set(report["checks"])
    assert all(c["total"] > 0 and c["passed"] == c["total"]
               for c in report["checks"].values())
    assert report["ops"] == result["attempted"]
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "commit",
                "src_lines"):
        assert key in report["environment"]
    if trace:
        assert result["metrics"]["fem.assemble.calls"]["value"] > 0
        ldlt = result["metrics"]["ldlt.ldlt_factor.calls"]["value"]
        assert (ldlt > 0) == (kind == "verify")


def test_same_seed_repeats_and_other_seed_differs():
    _, first = smoke("verify-l8", seed=3, trace=1)
    _, again = smoke("verify-l8", seed=3, trace=1)
    _, other = smoke("verify-l8", seed=4, trace=1)
    assert first["fingerprint"] == again["fingerprint"]
    assert first["fingerprint"]["outputs"] != other["fingerprint"]["outputs"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
