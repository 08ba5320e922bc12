"""Smoke test of the benchmark: every workload at toy size, untraced and
traced, prints every metric BENCHMARK.json names, with its unit."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, script: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(script), "--workload", workload, "--seed", "1", "--seconds", "0.2"]
    argv += ["--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_reports_every_metric(workload, trace):
    proc = _run(ROOT, HERE / "run.py", workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for m in expected:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"], m["name"]
        assert isinstance(entry["value"], (int, float)), m["name"]


def test_refuses_to_run_without_the_package(tmp_path):
    """Beside BENCHMARK.json alone the benchmark fails and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, tmp_path / HERE.name / "run.py", SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
