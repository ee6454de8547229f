"""Machine-speed references, timed after every job.

On a shared host the speed of a core drifts by 10-20% over seconds, in CPU
time as much as in wall time, because other tenants load the same caches and
cores.  Timing a fixed reference after each job tracks that drift: the
reference and the job slow down together.  A job's slowness is its
reference time over the reference's nominal time, and `normalized` divides
each job's latency by the median slowness around that job, so the figures
read as times on a machine where the references take their nominal times.
A change to the library moves the job times and not the references, which
need nothing beyond the standard library.

Library jobs use `tick`, a pure-Python computation in the benchmark's own
process.  CLI jobs are fresh processes, whose cost is mostly interpreter
start-up, imports and page faults; a computation in the parent does not
track them, so they use `child_tick`, a fresh interpreter importing part of
the standard library.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# median reference time on the 2-vCPU Linux host (CPython 3.11) the
# benchmark was written on; it only fixes the scale of the normalised figures
NOMINAL_TICK_S = 0.008
# the same for `child_tick`
NOMINAL_CHILD_S = 0.14
# the slowness of the jobs up to WINDOW before and after a job give its speed
WINDOW = 8
CHILD_CODE = "import json, decimal, fractions, email.parser, http.client, unittest, argparse, inspect, dataclasses, typing"
# terms of the warm-up and of the timed part of one reference tick
_WARM_TERMS = 300
_TIMED_TERMS = 1000


def _work(terms: int):
    """Exact rational arithmetic and small containers, like the library's inner loops."""
    s = Fraction(0)
    seen = {}
    for k in range(1, terms):
        s += Fraction(1, k) * Fraction(k + 1, 3)
        seen[k % 97] = (s, k)
    return s


def tick() -> float:
    """Seconds taken by the timed part of the reference, with the collector off
    so that the heap the library left behind does not change its cost.  An
    untimed warm-up first brings back caches that a job, or the child process
    of a CLI job, displaced."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work(_WARM_TERMS)
        t0 = time.perf_counter()
        _work(_TIMED_TERMS)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def child_tick(env: dict) -> float:
    """Seconds from start to exit of a fresh interpreter running CHILD_CODE."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", CHILD_CODE], env=env, stdin=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


def normalized(latencies, slowness):
    """Each latency divided by the median slowness around it."""
    n = len(latencies)
    return [
        x / statistics.median(slowness[max(0, i - WINDOW) : min(n, i + WINDOW + 1)])
        for i, x in enumerate(latencies)
    ]
