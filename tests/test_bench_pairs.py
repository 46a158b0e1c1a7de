"""tools/bench_pairs.py: two smoke pairs write every field and alternate
which side runs first; a bad BASE exits 2."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"


def in_git_checkout() -> bool:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.returncode == 0


needs_git = pytest.mark.skipif(not in_git_checkout(),
                               reason="bench_pairs exports BASE with git archive")


@needs_git
def test_smoke_pairs_write_every_field_and_alternate(tmp_path):
    done = subprocess.run(
        [sys.executable, str(TOOL), "HEAD", "--workload", "bounds-direct",
         "--pairs", "2", "--seconds", "0.2", "--smoke", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    (path,) = tmp_path.glob("BENCH_*.json")
    assert done.stdout.strip() == str(path)
    report = json.loads(path.read_text())
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                          capture_output=True).stdout.strip()
    assert path.name == f"BENCH_{head[:7]}.json"
    assert report["base"] == report["head"] == head
    assert {"head_dirty", "pairs", "seconds", "smoke"} <= report.keys()
    assert report["pairs"] == 2 and report["smoke"] is True
    (workload,) = report["workloads"].values()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in bench["end_to_end"]} <= workload["metrics"].keys()
    for name, metric in workload["metrics"].items():
        assert metric.keys() == {"unit", "better", "base", "head", "ratios",
                                 "median_ratio", "wins", "pairs"}, name
        for side in ("base", "head"):
            assert metric[side].keys() == {"median", "q1", "q3"}
        assert len(metric["ratios"]) == metric["pairs"] == 2
        assert metric["wins"] in (0, 1, 2)
    first, second = workload["runs"]
    assert sorted(first["order"]) == ["base", "head"]
    assert second["order"] == first["order"][::-1]
    for run in (first, second):
        for side in ("base", "head"):
            assert run[side]["record"]["workload"] == "bounds-direct"
            assert run[side]["record"]["seed"] == run["seed"]
            assert run[side]["result"]["correct"] is True


@needs_git
def test_an_unknown_base_exits_2(tmp_path):
    done = subprocess.run([sys.executable, str(TOOL), "no-such-revision", "--smoke",
                           "--out", str(tmp_path)], capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == ("bench_pairs: 'no-such-revision' is not a commit of "
                           "this repository\n")
    assert not list(tmp_path.iterdir())
