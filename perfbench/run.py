#!/usr/bin/env python3
"""Benchmark of intdiffops: seeded workloads, end-to-end metrics, traced per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: operator_algebra, weight_modules, classification_qi, cli_golden.
Each runs as a closed loop, one client and one job at a time: library jobs in
this process, CLI jobs as one child process at a time.  Every job is checked
exactly outside its timed region (see workloads.py and clijobs.py).

Every job is followed by a fixed reference (a computation, or for CLI jobs a
fresh interpreter), and job times are reported at the nominal machine speed
that speed.py defines.

--trace 0 prints the end-to-end metrics; --trace 1 spends half the time
untraced and half traced, then prints the per-layer metrics, the tracing
overhead and the fixed probes, and runs the layer-isolation self-check.
Human-readable lines come first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 only when
every job and check passed.  Run it from anywhere inside a checkout of the
repository; it reads `src/` and `tests/golden*` and writes only bytecode
caches there.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("operator_algebra", "weight_modules", "classification_qi", "cli_golden")
SETUP_SAMPLES = 3
# warm-up ticks of the speed reference at the end of set-up; the last half are timed
SETUP_TICKS = 10

# per-layer metrics reported by a traced run, with units; see README.md
SPAN_METRICS = {
    "operators.mul": ("calls", "self_s", "term_pairs", "out_terms"),
    "operators.ideal_membership": ("calls", "self_s"),
    "action.to_matrix": ("calls", "self_s", "cells"),
    "action.is_zero_by_action": ("calls", "self_s"),
    "action.act_monomial": ("calls", "self_s"),
    "linalg.rref": ("calls", "self_s", "cells", "small_share"),
    "linalg.rref_qi": ("calls", "self_s", "cells"),
    "linalg.rank": ("calls", "self_s"),
    "linalg.solve_linear": ("calls", "self_s"),
    "linalg.kernel_basis": ("calls", "self_s"),
    "linalg.invert": ("calls", "self_s"),
    "linalg.matmul": ("calls", "self_s"),
    "linalg.blocksystem_solve": ("calls", "self_s", "unknowns"),
    "local_ideals.quotient_basis": ("calls", "self_s"),
    "modules.build": ("calls", "self_s"),
    "modules.decompose_weight": ("calls", "self_s"),
    "modules.block_decompose": ("calls", "self_s"),
    "modules.hom_basis": ("calls", "self_s"),
    "modules.window_isomorphism": ("calls", "self_s"),
    "modules.split_extension": ("calls", "self_s"),
    "classify.kronecker_decompose_with_iso": ("calls", "self_s"),
    "classify.contains_regular_summand": ("calls", "self_s"),
    "classify.is_indecomposable": ("calls", "self_s"),
    "classify.modules_isomorphic": ("calls", "self_s"),
    "classify.min_poly": ("calls", "self_s"),
    "classify.factor_unipoly": ("calls", "self_s"),
    "parser.parse_expression": ("calls", "self_s"),
    "serialize.dumps": ("calls", "self_s"),
    "cli.main": ("self_s",),
}
FIELD_UNITS = {
    "calls": "count/job",
    "self_s": "s/job",
    "term_pairs": "count/job",
    "out_terms": "count/job",
    "cells": "cells/job",
    "unknowns": "count/job",
    "small_share": "ratio",
}
OTHER_METRICS = {
    "scalars.mul_q_us": "us",
    "scalars.mul_qi_us": "us",
    "scalars.add_q_us": "us",
    "scalars.div_qi_us": "us",
    "scalars.mul_probe_us": "us",
    "linalg.rref_q_dense35x40_s": "s",
    "linalg.rref_qi_dense35x40_s": "s",
    "operators.pow4_arity1_s": "s",
    "modules.iso_rank_checks_per_iso": "ratio",
    "classify.factor_calls_per_pencil": "ratio",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.normalize_s": "s",
    "cli.job_import_s": "s",
    "trace.jobs_per_s_ratio": "ratio",
}
END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up as a measured run would, report readiness, exit
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_workload(name: str, seed: int):
    if name == "cli_golden":
        from clijobs import CliGolden

        return CliGolden(seed)
    from workloads import WORKLOADS

    return WORKLOADS[name](seed)


def set_up(name: str, seed: int):
    """Everything before the first timed job: imports, input generation, warm-up.

    Returns the workload and the median of the last warm-up ticks of the
    speed reference, the speed of the process as set-up ends."""
    workload = load_workload(name, seed)
    for job in workload.warmup_jobs():
        job.run()
    ticks = [speed.tick() for _ in range(2 * SETUP_TICKS)]
    return workload, statistics.median(ticks[SETUP_TICKS:])


def setup_seconds(args) -> float:
    """Median over SETUP_SAMPLES fresh processes of start-to-ready time,
    each scaled to the nominal speed of speed.py by the ticks the process
    timed at the end of its set-up."""
    from jobs import child_env

    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            tick = proc.stdout.read().strip()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up child failed with exit code {proc.returncode}")
        samples.append(elapsed * speed.NOMINAL_TICK_S / float(tick))
    return statistics.median(samples)


class Loop:
    """Closed loop over jobs: latency of each timed call, the machine's
    slowness measured right after it (speed.py), and failures."""

    def __init__(self):
        self.latencies = []
        self.slowness = []
        self.attempted = 0
        self.failed = 0

    def run_one(self, workload, i: int, tracer=None):
        job = workload.job(i)
        self.attempted += 1
        if tracer is not None:
            tracer.job = i
        t0 = time.perf_counter()
        try:
            out = job.run()
            error = None
        except Exception:
            error = traceback.format_exc()
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.job = None
        self.latencies.append(t1 - t0)
        self.slowness.append(workload.slowness())
        if error is None:
            try:
                ok = job.check(out)
            except Exception:
                ok, error = False, traceback.format_exc()
            if not ok:
                error = error or "wrong answer"
        if error is not None:
            self.failed += 1
            print(f"FAILED job {i} ({job.stratum}): {error}", file=sys.stderr)

    def normalized(self) -> list:
        """Latencies in seconds at the nominal machine speed of speed.py."""
        return speed.normalized(self.latencies, self.slowness)

    def jobs_per_s(self) -> float:
        """Jobs per nominal second of busy time, over the whole run.  The run
        holds whole blocks, so every stratum keeps its share of the jobs."""
        return len(self.latencies) / sum(self.normalized())


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def end_to_end(loop: Loop, setup_s: float, rss_mb: float) -> dict:
    lat_ms = [x * 1000 for x in loop.normalized()]
    return {
        "jobs_per_s": loop.jobs_per_s(),
        "job_p50_ms": statistics.median(lat_ms),
        "job_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


def per_layer(tracer, jobs: int) -> dict:
    calls, self_s = tracer.summary()
    counts = tracer.counts
    out = {}
    for name, fields in SPAN_METRICS.items():
        for field in fields:
            if field == "calls":
                value = calls[name] / jobs
            elif field == "self_s":
                value = self_s[name] / jobs
            elif field == "small_share":
                value = counts[name + ".small"] / calls[name] if calls[name] else 0.0
            else:
                value = counts[name + "." + field] / jobs
            out[f"{name}.{field}"] = value
    found = counts["modules.window_isomorphism.found"]
    out["modules.iso_rank_checks_per_iso"] = (
        tracer.calls_under("linalg.rank", "modules.window_isomorphism") / found if found else 0.0
    )
    pencils = calls["classify.kronecker_decompose_with_iso"]
    out["classify.factor_calls_per_pencil"] = (
        tracer.calls_under("classify.factor_unipoly", "classify.kronecker_decompose_with_iso") / pencils
        if pencils
        else 0.0
    )
    return out


def isolation_failures(workload: str, calls, import_s) -> list:
    """The layer-isolation predictions of README.md that this run contradicts."""
    from spans import ELIMINATION

    bad = []
    if workload == "operator_algebra" and any(calls[n] for n in ELIMINATION):
        bad.append("operator_algebra made linalg elimination calls")
    if workload == "weight_modules":
        for n in ("operators.mul", "classify.factor_unipoly", "linalg.rref_qi"):
            if calls[n]:
                bad.append(f"weight_modules made {n} calls")
    if workload == "classification_qi" and not calls["linalg.rref_qi"]:
        bad.append("classification_qi made no linalg.rref_qi calls")
    if workload == "cli_golden" and (not import_s or not all(import_s)):
        bad.append("a cli_golden job did not import intdiffops.cli")
    return bad


def cli_in_process(workload, tracer) -> Loop:
    """One in-process pass of cli.main over the golden argv, traced, checked byte for byte."""
    import io
    from contextlib import redirect_stdout

    from intdiffops import cli

    loop = Loop()
    for k, (name, argv) in enumerate(workload.cycle):
        buf = io.StringIO()
        loop.attempted += 1
        tracer.job = f"cli:{k}"
        t0 = time.perf_counter()
        with redirect_stdout(buf):
            code = cli.main(list(argv))
        loop.latencies.append(time.perf_counter() - t0)
        tracer.job = None
        if code != 0 or buf.getvalue().encode() != workload.expected[name]:
            loop.failed += 1
            print(f"FAILED in-process CLI case {name}", file=sys.stderr)
    return loop


def traced_run(args, workload):
    """Traced and untraced blocks in turn; per-layer metrics, probes, self-check.

    Blocks alternate so both halves see the same strata and equally warm
    caches; their job rates give the tracing overhead.  CLI jobs are child
    processes, so a traced CLI block runs its children under `-X importtime`,
    and one in-process pass of cli.main over the golden argv supplies the
    CLI's spans.
    """
    import workloads as library_jobs
    from probes import library_probes, process_probes, scalar_batches
    from spans import Tracer

    in_process = args.workload != "cli_golden"
    block = workload.block
    tracer = Tracer()
    plain, traced = Loop(), Loop()
    deadline = time.perf_counter() + args.seconds
    i = 0
    try:
        while True:
            tracing = (i // block) % 2 == 1
            if i % block == 0 and in_process:
                tracer.uninstall()
                if tracing:
                    tracer.install(extra_modules=[library_jobs])
            if not in_process:
                workload.importtime = tracing
            (traced if tracing else plain).run_one(workload, i, tracer if tracing and in_process else None)
            i += 1
            if time.perf_counter() >= deadline and i % (2 * block) == 0:
                break
        layer_jobs = traced
        if not in_process:
            tracer.install()
            layer_jobs = cli_in_process(workload, tracer)
    finally:
        tracer.uninstall()
    calls, _ = tracer.summary()
    import_s = getattr(workload, "import_s", [])
    metrics = per_layer(tracer, len(layer_jobs.latencies))
    metrics["trace.jobs_per_s_ratio"] = traced.jobs_per_s() / plain.jobs_per_s()
    metrics["cli.job_import_s"] = statistics.median(import_s) if import_s and all(import_s) else 0.0
    metrics.update(scalar_batches(workload))
    metrics.update(library_probes())
    metrics.update(process_probes())
    units = {f"{n}.{f}": FIELD_UNITS[f] for n, fields in SPAN_METRICS.items() for f in fields}
    units.update(OTHER_METRICS)
    loops = [plain, traced] + ([layer_jobs] if layer_jobs is not traced else [])
    return metrics, units, loops, isolation_failures(args.workload, calls, import_s)


def main(argv=None) -> int:
    args = parse_args(argv)
    from jobs import HASH_SEED

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # hash order must not differ between runs: restart with the seed pinned
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(HERE / "run.py"), *sys.argv[1:]], env)
    src = ROOT / "src" / "intdiffops"
    if not (src / "__init__.py").is_file() or not (ROOT / "tests" / "golden_cases.py").is_file():
        print(f"perfbench: {ROOT} holds no intdiffops checkout (src/intdiffops, tests/golden_cases.py)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.setup_probe:
        _, tick = set_up(args.workload, args.seed)
        print("ready", flush=True)
        print(tick)
        return 0

    compileall.compile_dir(str(src), quiet=1)
    setup_s = setup_seconds(args) if not args.trace else None
    workload, _ = set_up(args.workload, args.seed)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "sympy": metadata.version("sympy"),
        "nproc": os.cpu_count(),
        "PYTHONHASHSEED": os.environ["PYTHONHASHSEED"],
        "loop": "closed, one client, one job at a time",
    }
    print("meta " + json.dumps(meta, sort_keys=True))

    problems = []
    if args.trace:
        metrics, units, loops, problems = traced_run(args, workload)
    else:
        loop = Loop()
        block = workload.block
        deadline = time.perf_counter() + args.seconds
        i = 0
        while True:
            loop.run_one(workload, i)
            i += 1
            if time.perf_counter() >= deadline and i % block == 0:
                break
        loops = [loop]
        metrics = end_to_end(loop, setup_s, workload.peak_rss_mb())
        units = END_TO_END_UNITS
        n = len(loop.latencies)
        beyond = sum(x * 1000 > metrics["job_p90_ms"] for x in loop.normalized())
        print(f"samples: {n} jobs, {beyond} beyond p90; setup_s is the median of {SETUP_SAMPLES} fresh processes")
        print(
            f"job times are scaled to the nominal speed of speed.py; unscaled p50 "
            f"{statistics.median(loop.latencies) * 1000:.6g} ms, median slowness {statistics.median(loop.slowness):.4g}"
        )

    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    for name in sorted(metrics):
        print(f"{name:44s} {metrics[name]:.6g} {units[name]}")
    print(f"{'failed_ratio':44s} {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")
    for p in problems:
        print(f"SELF-CHECK FAILED: {p}", file=sys.stderr)
    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
