#!/usr/bin/env python3
"""Time and profile the jobs of one benchmark workload in this process.

    python3 scripts/profile_jobs.py --workload weight_modules --seed 7 --jobs 100

Builds jobs 0..K-1 of the workload exactly as `perfbench/run.py` does (same
seed, same inputs), runs the workload's warm-up jobs once, and then runs the
K jobs twice: first timed, then under cProfile.  It prints the mean time per
job of each stratum in ms, each job's check having passed, and then the top
cProfile rows by cumulative time.  `perfbench/workloads.py` is imported and
never written; only the standard library is used.  The `cli_golden`
workload runs child processes, so profiling it here shows nothing of the
library and it is refused.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY_WORKLOADS = ("operator_algebra", "weight_modules", "classification_qi")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=LIBRARY_WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--jobs", type=int, default=100)
    ap.add_argument("--rows", type=int, default=25, help="cProfile rows to print")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    for job in workload.warmup_jobs():
        job.run()
    jobs = [workload.job(i) for i in range(args.jobs)]

    times = defaultdict(list)
    for job in jobs:
        start = time.perf_counter()
        out = job.run()
        times[job.stratum].append(time.perf_counter() - start)
        if not job.check(out):
            print(f"check failed on a {job.stratum} job", file=sys.stderr)
            return 1
    total = sum(map(sum, times.values()))
    print(f"{args.workload} seed {args.seed}: {args.jobs} jobs in {total:.3f} s")
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


if __name__ == "__main__":
    sys.exit(main())
