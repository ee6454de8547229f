#!/usr/bin/env python3
"""Alternating before/after runs of the benchmark on two checkouts.

    python3 scripts/bench_pairs.py BASE HEAD --workload weight_modules --seed 7 --pairs 10

BASE and HEAD are two checkouts of the repository (HEAD defaults to the one
holding this script).  Each pair runs `perfbench/run.py --trace 0` once in
each checkout, one process at a time; odd pairs run BASE first and even
pairs HEAD first, so drift in machine speed falls on both sides alike.  The
script prints, per metric, the median and quartiles on each side, the ratio
of the medians, in how many pairs HEAD was better, and for each end-to-end
metric a verdict (see `verdict`).  A metric's better direction and bound are
read from HEAD's BENCHMARK.json; `--json FILE` also writes every run's
metrics.  Only the standard library is used, and nothing under
`perfbench/` is written except its bytecode caches.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics of one untraced run, as {name: value}."""
    cmd = [
        sys.executable,
        "perfbench/run.py",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: no output (exit {proc.returncode})\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if proc.returncode or not result.get("correct"):
        raise SystemExit(f"{checkout}: run failed (exit {proc.returncode}): {lines[-1][:500]}")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics["failed_ratio"] = result["failed"] / max(result["attempted"], 1)
    return metrics


def metric_specs(checkout: Path) -> dict:
    """Metric name -> (better, bound) from the checkout's BENCHMARK.json:
    better is "higher" or "lower", bound a relative one or None for a
    per-layer metric."""
    path = checkout / "BENCHMARK.json"
    if not path.exists():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: (m["better"], m.get("bound")) for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base, head, better: str, bound: float) -> str:
    """The verdict on one end-to-end metric from paired runs (base[k] and
    head[k] ran in pair k), with bound relative to the base median:
    "worse" when the head median is worse by more than the bound;
    "unresolved" when the base IQR is wider than the bound, unless every
    head run beats every base run; "better" when the head wins at least 9
    in 10 pairs and its median is better by more than the base IQR; "flat"
    otherwise."""
    sign = 1 if better == "higher" else -1
    bq, hq = quartiles(base), quartiles(head)
    gain = sign * (hq[1] - bq[1])
    scale = abs(bq[1])
    if gain < -bound * scale:
        return "worse"
    iqr = bq[2] - bq[0]
    beats_all = min(head) > max(base) if sign > 0 else max(head) < min(base)
    if iqr > bound * scale and not beats_all:
        return "unresolved"
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    if wins >= 0.9 * len(base) and gain > iqr:
        return "better"
    return "flat"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("head", type=Path, nargs="?", default=ROOT)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--json", type=Path, help="also write every run's metrics here")
    args = ap.parse_args(argv)

    sides = {"base": args.base.resolve(), "head": args.head.resolve()}
    runs = {"base": [], "head": []}
    for k in range(args.pairs):
        order = ("base", "head") if k % 2 == 0 else ("head", "base")
        for side in order:
            runs[side].append(run_once(sides[side], args.workload, args.seed, args.seconds))
        b, h = runs["base"][-1], runs["head"][-1]
        print(
            f"pair {k + 1}/{args.pairs} ({order[0]} first): jobs_per_s "
            f"{b.get('jobs_per_s', float('nan')):.2f} -> {h.get('jobs_per_s', float('nan')):.2f}",
            flush=True,
        )

    specs = metric_specs(sides["head"])
    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    print(f"{'metric':<14} {'base q1/med/q3':>28} {'head q1/med/q3':>28} {'ratio':>7} {'wins':>6}  verdict")
    for name in runs["base"][0]:
        bs = [r[name] for r in runs["base"]]
        hs = [r[name] for r in runs["head"]]
        bq, hq = quartiles(bs), quartiles(hs)
        ratio = hq[1] / bq[1] if bq[1] else float("nan")
        way, bound = specs.get(name, (None, None))
        wins, judged = "n/a", ""
        if way is not None:
            won = sum((h > b) if way == "higher" else (h < b) for b, h in zip(bs, hs))
            wins = f"{won}/{len(bs)}"
        if bound is not None:
            judged = verdict(bs, hs, way, bound)
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
        print(f"{name:<14} {fmt(bq):>28} {fmt(hq):>28} {ratio:>7.3f} {wins:>6}  {judged}")
    if args.json:
        args.json.write_text(json.dumps({"args": {k: str(v) for k, v in vars(args).items()}, "runs": runs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
