"""Smoke test of the benchmark: each workload at tiny sizes, untraced and
traced, must emit every metric that BENCHMARK.json names, with its unit.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_every_metric_has_a_unit_and_a_direction():
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["unit"]
        assert metric["better"] in ("lower", "higher")
    assert next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")["unit"] == "s"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1

    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], (int, float)), metric["name"]
        if not trace:
            assert emitted["value"] > 0, metric["name"]

    assert lines[-2].startswith("# run ")
    record = json.loads(lines[-2][len("# run "):])
    for key in ("nproc", "threads", "blas", "python", "numpy", "scipy", "commit",
                "seed", "traced"):
        assert key in record
    assert record["traced"] is bool(trace) and record["seed"] == 7


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert done.stdout == ""
