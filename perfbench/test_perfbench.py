"""Smoke test of the benchmark harness at toy scale.

    python3 -m pytest perfbench

Runs every workload shape untraced and traced on the L=8, K=2, N=16
grid and checks the printed result against BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_toy_run_meets_contract(workload, trace):
    proc = _run(ROOT, "--toy", "--workload", workload, "--seed", "7",
                "--seconds", "0.2", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "ber-curves", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_missing_hook_target_is_an_absent_layer():
    tracer = tracing.Tracer()
    ghost = ("afbm.metrics", "_no_such_helper", "metrics.ghost",
             None, None, ("metrics.ghost.count",))
    tracing.install(tracer, hooks=(ghost,))
    assert tracer.absent == ["afbm.metrics._no_such_helper"]
    assert tracing.absent_layers(tracer, hooks=(ghost,)) == \
        ["metrics.ghost", "metrics.ghost.count"]


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans = [["outer", 0.0, 10.0, None, 0],
                    ["inner", 2.0, 5.0, 0, 0],
                    ["inner", 6.0, 7.0, 0, 0],
                    ["leaf", 3.0, 4.0, 1, 0]]
    assert tracer.self_times() == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}
    assert tracer.self_times(first=1) == {"inner": 3.0, "leaf": 1.0}
