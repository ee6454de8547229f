"""scripts/profile_jobs.py times golden CLI cases as child processes."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_cli_golden_cases_are_timed_as_children():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "profile_jobs.py"), "--workload", "cli_golden", "--jobs", "2", "--repeats", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "cli_golden seed 7: 2 cases, median wall time of 1 runs each"
    assert lines[1].startswith("start-up: interpreter ") and " imports " in lines[1]
    assert lines[2].split() == ["case", "wall", "ms", "cli", "ms", "all", "ms", "intdiffops", "modules"]
    rows = [line.split() for line in lines[3:]]
    # seed 7 starts the cycle at the ideal tests, two operator commands
    assert [row[0] for row in rows] == ["13_ideal_d", "14_ideal_H"]
    for row in rows:
        wall, cli, total = map(float, row[1:4])
        assert wall > 0 and 0 < cli <= total
        assert row[4:] == ["cli", "operators", "parser", "poly", "scalars", "serialize"]


def test_stratum_prefix_times_and_profiles_only_its_jobs():
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "profile_jobs.py"),
            "--workload",
            "weight_modules",
            "--stratum",
            "decompose3",
            "--jobs",
            "5",
            "--rows",
            "5",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("weight_modules seed 7: 5 jobs in ")
    assert lines[1].split() == ["stratum", "jobs", "mean", "ms", "max", "ms"]
    # the cycle holds two decompose3_2 and two decompose3_3 places
    rows = [line.split() for line in lines[2:4]]
    assert [row[0] for row in rows] == ["decompose3_2", "decompose3_3"]
    assert sum(int(row[1]) for row in rows) == 5 and lines[4] == ""
    assert "decompose_weight" in proc.stdout
    # a prefix no stratum has names the strata and runs nothing
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "profile_jobs.py"), "--workload", "weight_modules", "--stratum", "iso9"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 1 and "no stratum starts with 'iso9'" in proc.stderr and "decompose3_3" in proc.stderr
