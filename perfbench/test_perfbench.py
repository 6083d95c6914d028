"""Smoke tests of the benchmark at its tiny size.

Each run prints every metric BENCHMARK.json names, with its unit, and
passes its own output checks.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_smoke(workload: str, trace: int, run_py: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, timeout=170,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout[-3000:]
    assert result["attempted"] >= 1
    return result


def test_end_to_end_metrics_are_printed():
    result = result_of(run_smoke("short-docs", 0))
    named = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == named
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_are_printed(workload):
    result = result_of(run_smoke(workload, 1))
    named = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == named
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if re.search(r"_s(\.|$)", name):  # every traced layer runs on every workload
            assert metric["value"] > 0, name


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_smoke("short-docs", 0, tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
