#!/usr/bin/env python3
"""Time and profile the jobs of one benchmark workload.

    python3 scripts/profile_jobs.py --workload weight_modules --seed 7 --jobs 100
    python3 scripts/profile_jobs.py --workload weight_modules --stratum decompose3 --jobs 40
    python3 scripts/profile_jobs.py --workload cli_golden --seed 7 --repeats 5

Builds the first K jobs of the workload exactly as `perfbench/run.py` does
(same seed, same inputs), runs the workload's warm-up jobs once, and then
runs the K jobs twice: first timed, then under cProfile.  With `--stratum
PREFIX` the K jobs are the first ones whose stratum name starts with PREFIX,
so one stratum, or one family such as every arity-3 decomposition, is timed
and profiled alone.  It prints the mean time per job of each stratum in ms,
each job's check having passed, and then the top cProfile rows by
cumulative time.

A `cli_golden` job is a child process, so a profile of this process would
show nothing of it.  For that workload the script compiles `src/` as
`perfbench/run.py` does and splits a CLI start into interpreter, imports
and command (medians over the repeats of a bare interpreter, of `import
intdiffops.cli` and of `intdiff normalize d_1*int_1`, run in turn as
children).  Then it runs each golden argv (the first K of the 25, or of
those `--stratum` selects) as the benchmark's child and prints per case
the median wall time over the repeats and, from one more run under
`-X importtime`, the cumulative import time of `intdiffops.cli`, that of
every `intdiffops` import the child made (the CLI's and those its command
made later), and the `intdiffops` modules it loaded.

Files under `perfbench/` are imported and never written; only the standard
library is used.
"""

from __future__ import annotations

import argparse
import compileall
import cProfile
import pstats
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY_WORKLOADS = ("operator_algebra", "weight_modules", "classification_qi")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=LIBRARY_WORKLOADS + ("cli_golden",))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--jobs", type=int, default=100)
    ap.add_argument("--stratum", default="", metavar="PREFIX", help="only the jobs whose stratum starts with PREFIX")
    ap.add_argument("--rows", type=int, default=25, help="cProfile rows to print")
    ap.add_argument("--repeats", type=int, default=5, help="timed runs of each cli_golden case")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    if args.workload == "cli_golden":
        return profile_cli(args)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    for job in workload.warmup_jobs():
        job.run()
    jobs = [workload.job(i) for i in job_indices(workload, args.stratum, args.jobs)]

    times = defaultdict(list)
    for job in jobs:
        start = time.perf_counter()
        out = job.run()
        times[job.stratum].append(time.perf_counter() - start)
        if not job.check(out):
            print(f"check failed on a {job.stratum} job", file=sys.stderr)
            return 1
    total = sum(map(sum, times.values()))
    print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs in {total:.3f} s")
    print(f"{'stratum':<24} {'jobs':>5} {'mean ms':>9} {'max ms':>9}")
    for stratum in sorted(times):
        ts = times[stratum]
        print(f"{stratum:<24} {len(ts):>5} {1000 * statistics.fmean(ts):>9.3f} {1000 * max(ts):>9.3f}")

    profiler = cProfile.Profile()
    profiler.enable()
    for job in jobs:
        job.run()
    profiler.disable()
    print()
    pstats.Stats(profiler).sort_stats("cumulative").print_stats(args.rows)
    return 0


def job_indices(workload, prefix: str, k: int):
    """The indices of the first k jobs whose stratum starts with prefix.  A
    job's stratum is fixed by its place in the cycle, so one cycle of jobs
    is built to read them; SystemExit when none matches."""
    strata = [workload.job(i).stratum for i in range(len(workload.cycle))]
    places = [i for i, name in enumerate(strata) if name.startswith(prefix)]
    if not places:
        raise SystemExit(f"no stratum starts with {prefix!r}; the strata are {', '.join(sorted(set(strata)))}")
    return [c * len(strata) + i for c in range(k // len(places) + 1) for i in places][:k]


def profile_cli(args) -> int:
    """Per golden case: median wall time as a child, import time of the CLI, modules loaded."""
    from clijobs import CLI_CODE, CliGolden, cli_import_seconds

    compileall.compile_dir(str(ROOT / "src" / "intdiffops"), quiet=1)
    workload = CliGolden(args.seed)
    for job in workload.warmup_jobs():
        job.run()
    # each golden case once
    indices = [i for i in job_indices(workload, args.stratum, args.jobs) if i < len(workload.cycle)]
    print(f"cli_golden seed {args.seed}: {len(indices)} cases, median wall time of {args.repeats} runs each")
    # the three stages' children run in turn, so drift in machine speed falls on all alike
    stages = (["-c", "pass"], ["-c", "import intdiffops.cli"], ["-c", CLI_CODE, "normalize", "d_1*int_1"])
    stage_s = [[] for _ in stages]
    for _ in range(args.repeats):
        for stage, ts in zip(stages, stage_s):
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, *stage], env=workload.env, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, check=True
            )
            ts.append(time.perf_counter() - start)
    interpreter, imported, normalized = (1000 * statistics.median(ts) for ts in stage_s)
    print(
        f"start-up: interpreter {interpreter:.1f} ms, imports {imported - interpreter:.1f} ms, "
        f"normalize d_1*int_1 {normalized - imported:.1f} ms"
    )
    times = defaultdict(list)
    for _ in range(args.repeats):
        for i in indices:
            job = workload.job(i)
            start = time.perf_counter()
            out = job.run()
            times[job.stratum].append(time.perf_counter() - start)
            _check(job, out)
    # jobs made from here on run their child under -X importtime
    workload.importtime = True
    print(f"{'case':<24} {'wall ms':>8} {'cli ms':>7} {'all ms':>7}  intdiffops modules")
    for i in indices:
        job = workload.job(i)
        out = job.run()
        _check(job, out)
        loaded, total = _imported(out.stderr)
        print(
            f"{job.stratum:<24} {1000 * statistics.median(times[job.stratum]):>8.1f} "
            f"{1000 * cli_import_seconds(out.stderr):>7.1f} {1000 * total:>7.1f}  "
            + " ".join(m.split(".", 1)[1] for m in sorted(loaded - {"intdiffops"}))
        )
    return 0


def _check(job, out) -> None:
    if not job.check(out):
        raise SystemExit(f"check failed on case {job.stratum}")


def _imported(stderr: bytes):
    """The intdiffops modules named in `-X importtime` output, and the
    seconds of the outermost intdiffops imports, each cumulative."""
    names, total = set(), 0
    for line in stderr.decode(errors="replace").splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[2].strip().startswith("intdiffops"):
            continue
        names.add(parts[2].strip())
        # nested imports are indented past the one blank after the bar
        if not parts[2].startswith("  "):
            total += int(parts[1])
    return names, total / 1e6


if __name__ == "__main__":
    sys.exit(main())
