"""Reduced-size smoke test of the benchmark.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at smoke size, untraced and traced, and checks that
each metric BENCHMARK.json names is printed with its unit, that every
answer passed its check, and that the traced and untraced solves agreed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, seed=3):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_prints_end_to_end_metrics(workload):
    result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["solved_frac"]["value"] == 1.0
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_prints_per_layer_metrics(workload):
    result = _run(workload, 1)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["fail_frac"]["value"] == 0.0
    assert result["metrics"]["qp.iters"]["value"] > 0
    record = json.loads((HERE / "results" / f"{workload}_seed3_trace1_smoke.json").read_text())
    assert record["determinism_mismatches"] == []
    assert record["machine"]["nproc"] >= 1


def test_counts_repeat_across_runs():
    a = _run("corpus-sweep", 1, seed=4)["metrics"]
    b = _run("corpus-sweep", 1, seed=5)["metrics"]
    for key in ("qp.iters", "qp.calls", "normal_step.backtracks", "problem.f_calls"):
        assert a[key]["value"] == b[key]["value"], key
