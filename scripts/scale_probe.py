#!/usr/bin/env python3
"""Time window Hom, isomorphism and splitting at sizes the benchmark never reaches.

    python3 scripts/scale_probe.py
    python3 scripts/scale_probe.py --radius 3 --lengths 2 --box 3

Builds the windows of ROADMAP's "Sizes the bench never reaches":
- M(s,0) + M(2,0) on the window -R..R for each s of `--lengths` (R =
  `--radius`; by default s = 3 and 5 on -10..10, 105 and 147 dimensions);
- the sum of six arity-2 simples, labels {}, {1}, {2} and {1,2} with the
  first two twice, on the box -B..B squared (by default B = 3, the 7x7 box
  of 170 dimensions; `--box 0` leaves it out).

Each window is scrambled by `perfbench/workloads.scramble_module` with seed
0.  Per window the script times End (`modules.hom_basis(M, M)`),
`modules.window_isomorphism` of the unscrambled sum against the scramble,
and `classify.split_indecomposables` of the scramble's quiver, and prints
one row: dimension, points, End's dimension and seconds, the isomorphism's
seconds, and the split's seconds and piece dimensions.  Every output is
verified by multiplying back, outside the timed region: each End element
and the isomorphism intertwine every generator map, the isomorphism is
invertible at every point, each piece's embeddings intertwine its maps
with the window's, and the embeddings side by side are invertible at every
point.  A failed check exits 1.

The sympy adapter loads on the first factorization of degree >= 3; the
script loads it before any timing, as a long-running process would have.
Files under `perfbench/` are imported and never written.
"""

from __future__ import annotations

import argparse
import importlib
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def intertwines(phi, rep_m, rep_n) -> bool:
    """phi_t f = g phi_s for every arrow (s, t, f) of rep_m and g of rep_n."""
    return all(phi[t] @ f == g @ phi[s] for (s, t, f), (_, _, g) in zip(rep_m.arrows, rep_n.arrows))


def invertible(blocks, dims) -> bool:
    from intdiffops.linalg import rank

    return all(B.shape == (d, d) and rank(B) == d for B, d in zip(blocks, dims))


def probe(name: str, M0) -> str:
    """One row for the unscrambled window M0; raises SystemExit on a failed
    check."""
    from intdiffops.classify import split_indecomposables
    from intdiffops.modules import hom_basis, window_isomorphism
    from intdiffops.scalars import QQ
    from workloads import scramble_module

    M, _ = scramble_module(M0, random.Random(0))
    pts, _, rep = M.quiver()
    rep0 = M0.quiver()[2]

    t = time.perf_counter()
    end = hom_basis(M, M)
    t_end = time.perf_counter() - t
    if not all(intertwines([h[p] for p in pts], rep, rep) for h in end):
        raise SystemExit(f"{name}: an End element does not intertwine")

    t = time.perf_counter()
    iso = window_isomorphism(M0, M)
    t_iso = time.perf_counter() - t
    if iso is None:
        raise SystemExit(f"{name}: no isomorphism to the scramble")
    phi = [iso[p] for p in pts]
    if not (intertwines(phi, rep0, rep) and invertible(phi, rep.dims)):
        raise SystemExit(f"{name}: the isomorphism does not multiply back")

    t = time.perf_counter()
    pieces = split_indecomposables(rep, QQ)
    t_split = time.perf_counter() - t
    for piece, emb in pieces:
        if not all(f @ emb[s] == emb[t] @ x for (s, t, f), (_, _, x) in zip(rep.arrows, piece.arrows)):
            raise SystemExit(f"{name}: a piece's embeddings do not intertwine")
    joined = [pieces[0][1][v].hstack(*(emb[v] for _, emb in pieces[1:])) for v in range(len(pts))]
    if not invertible(joined, rep.dims):
        raise SystemExit(f"{name}: the pieces do not fill the window")
    dims = "+".join(str(sum(piece.dims)) for piece, _ in pieces)
    return (
        f"{name:<24} {M.total_dim():>5} {len(pts):>6} {len(end):>7} {t_end:>8.3f}"
        f" {t_iso:>8.3f} {t_split:>8.3f}  {dims}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--radius", type=int, default=10, help="arity-1 windows are -R..R")
    ap.add_argument("--lengths", default="3,5", help="the s of each M(s,0) + M(2,0), comma separated")
    ap.add_argument("--box", type=int, default=3, help="the arity-2 box is -B..B squared; 0 leaves it out")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from intdiffops.modules import DSet, Orbit, build_Ms, build_simple
    from workloads import direct_sum_modules

    # the sympy adapter, which the first factorization of degree >= 3 loads
    importlib.import_module("intdiffops.symbolic")

    print(f"{'window':<24} {'dim':>5} {'points':>6} {'End dim':>7} {'End s':>8} {'iso s':>8} {'split s':>8}  pieces")
    window = [(-args.radius, args.radius)]
    for s in (int(x) for x in args.lengths.split(",") if x):
        M0 = direct_sum_modules([build_Ms(s, 0, window), build_Ms(2, 0, window)])
        print(probe(f"M({s},0)+M(2,0) r={args.radius}", M0), flush=True)
    if args.box:
        orbit = Orbit.from_reps([0, 0])
        box = [(-args.box, args.box)] * 2
        labels = [(), (1,), (2,), (1, 2), (), (1,)]
        M0 = direct_sum_modules([build_simple(DSet(orbit, D), box) for D in labels])
        print(probe(f"six simples b={args.box}", M0), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
