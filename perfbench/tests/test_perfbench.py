"""The benchmark's own tests: every workload at the smallest size, traced and untraced.

Run with `python3 -m pytest -q perfbench/tests` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "1", "--seconds", "1"]
    return subprocess.run(cmd + ["--trace", str(trace)], cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    text = {line.split()[0]: line.split()[1:] for line in lines[:-1] if line.split()}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float)) and value >= 0
        assert text[m["name"]][1] == m["unit"]
    assert text["failed_ratio"][:2] == ["0", "ratio"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
