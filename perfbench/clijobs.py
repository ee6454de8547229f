"""The `cli_golden` workload: the 25 golden CLI invocations, one child process at a time."""

from __future__ import annotations

import os
import random
import runpy
import subprocess
import sys
import tempfile

import speed
from jobs import ROOT, Job, Workload, child_env

HERE = os.path.dirname(os.path.abspath(__file__))

# what the installed `intdiff` console script runs
CLI_CODE = "import sys; from intdiffops.cli import main; sys.exit(main(sys.argv[1:]))"


def golden_cases():
    """The (name, argv) list of tests/golden_cases.py, read without importing the tests."""
    return runpy.run_path(str(ROOT / "tests" / "golden_cases.py"))["GOLDEN_CASES"]


class CliGolden(Workload):
    name = "cli_golden"
    warmup = (0,)
    # every invocation costs about the same, so a block need not span the 25 cases
    block = 5

    def __init__(self, seed: int):
        super().__init__(seed)
        cases = golden_cases()
        # the seed only rotates the starting case
        start = random.Random(f"{self.name}:{seed}").randrange(len(cases))
        self.cycle = tuple(cases[start:] + cases[:start])
        self.expected = {name: (ROOT / "tests" / "golden" / f"{name}.txt").read_bytes() for name, _ in cases}
        self.env = child_env()
        # while importtime is set, each new job's child reports its import of intdiffops.cli
        self.importtime = False
        self.import_s = []
        # largest ru_maxrss of a CLI child, in KiB; the speed reference's children do not count
        self.child_rss_kb = 0

    def slowness(self) -> float:
        return speed.child_tick(self.env) / speed.NOMINAL_CHILD_S

    def peak_rss_mb(self) -> float:
        return self.child_rss_kb / 1024

    def make(self, spec, rng):
        name, argv = spec
        flags = ["-X", "importtime"] if self.importtime else []
        cmd = [sys.executable, *flags, "-c", CLI_CODE, *argv]

        def run():
            # output goes to unlinked files, so the child can be reaped with wait4 for its peak memory
            with tempfile.TemporaryFile(dir=HERE) as out, tempfile.TemporaryFile(dir=HERE) as err:
                proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
                out.seek(0)
                err.seek(0)
                return subprocess.CompletedProcess(cmd, proc.returncode, out.read(), err.read())

        def check(proc):
            if flags:
                self.import_s.append(cli_import_seconds(proc.stderr))
            return proc.returncode == 0 and proc.stdout == self.expected[name]

        return Job(name, run, check)


def cli_import_seconds(stderr: bytes):
    """Cumulative import time of intdiffops.cli from `-X importtime`, or None."""
    for line in stderr.decode(errors="replace").splitlines():
        parts = [x.strip() for x in line.split("|")]
        if len(parts) == 3 and parts[2] == "intdiffops.cli":
            return int(parts[1]) / 1e6
    return None
