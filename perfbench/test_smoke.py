"""Smoke test of the benchmark harness on tiny inputs (2+2 only, about a
second per run). It checks that every workload runs, passes its own
correctness oracle and prints the metrics ``spec.py`` promises; it says
nothing about speed. Run with ``python -m pytest -q perfbench/test_smoke.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_workload_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    promised = spec.PER_LAYER if trace else spec.END_TO_END
    assert list(result["metrics"]) == [m[0] for m in promised]
    units = {m[0]: m[1] for m in promised}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
    if trace:
        assert result["metrics"]["bench.span_coverage"]["value"] >= 0.9
    else:
        assert all(result["metrics"][m[0]]["value"] > 0 for m in promised)


def test_fails_without_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "sp_verify", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_matches_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()
