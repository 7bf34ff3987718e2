"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Runs every workload for two measured seconds (set-up still compiles from
a cold cache, so the whole file takes a few minutes) and checks the
benchmark's output contract, not its numbers.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--seconds", "2", "--seed", "7", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in CONFIG["workloads"]])
def test_workload_prints_every_end_to_end_metric_and_checks_outputs(workload):
    proc = run_benchmark("--workload", workload)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in CONFIG["end_to_end"]}
    for metric in CONFIG["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert entry["value"] > 0, metric["name"]
        assert metric["name"] in proc.stdout  # the human-readable line


def test_traced_run_reports_every_layer_metric_and_writes_spans(tmp_path):
    spans = tmp_path / "spans.json"
    proc = run_benchmark("--workload", "bulk-prefix1024", "--trace", "1",
                         "--spans", str(spans))
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in CONFIG["per_layer"]}
    for metric in CONFIG["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["metrics"]["bulk.pack_ms"]["value"] > 0
    window = json.loads(spans.read_text())["bulk-prefix1024"]["window"]
    names = {row[window["fields"].index("name")] for row in window["spans"]}
    assert {"bulk.run", "bulk.pack", "bulk.unpack", "bulk.fused_execute"} <= names


def test_fails_without_printing_a_result_when_the_library_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("--workload", "bulk-prefix1024", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
