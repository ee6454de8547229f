#!/usr/bin/env python3
"""Time window Hom, isomorphism and splitting, and pencil decompositions, at sizes the benchmark never reaches.

    python3 scripts/scale_probe.py
    python3 scripts/scale_probe.py --radius 3 --lengths 2 --box 3 --pencils 7

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

Then, for each size of `--pencils` (7, 11 and 18 by default; empty leaves
them out), a planted sum of Kronecker blocks, scrambled on both sides by
`perfbench/workloads.rand_invertible` with seed 0, over Q and over Q(i):
- 7: S2(1) + S3(1) + S4(2, a) + S5(2), dimensions (7, 7);
- 11: S2(2) + S3(2) + S4(3, a) + S5(3), dimensions (11, 11);
- 18: S1 + S2(2) + S3(2) + S4(3, a) + S4(4, a) + S4(2, b) + S5(3),
  dimensions (18, 17);
with (a, b) = (2, -1) over Q and (1+i, -i) over Q(i).  One row per pencil
gives its dimensions, field, the seconds of
`classify.kronecker_decompose_with_iso` and the labels; outside the timed
region the labels must be the planted ones and P, Q invertible and
multiply back against the canonical sum.

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


def pencil_labels(size: int, gaussian: bool):
    """The planted labels of the pencil of the given size (see above)."""
    from intdiffops.classify import KroneckerBlockLabel as L
    from intdiffops.scalars import Scalar

    a, b = (Scalar(1, 1), Scalar(0, -1)) if gaussian else (Scalar(2), Scalar(-1))
    if size == 7:
        return [L("S2", 1), L("S3", 1), L("S4", 2, a), L("S5", 2)]
    if size == 11:
        return [L("S2", 2), L("S3", 2), L("S4", 3, a), L("S5", 3)]
    return [L("S1"), L("S2", 2), L("S3", 2), L("S4", 3, a), L("S4", 4, a), L("S4", 2, b), L("S5", 3)]


def pencil_probe(size: int, gaussian: bool) -> str:
    """One row for the planted pencil; raises SystemExit on a failed check."""
    from intdiffops.classify import KroneckerRep, kronecker_block, kronecker_decompose_with_iso, kronecker_sum
    from intdiffops.linalg import rank
    from intdiffops.scalars import QQ, QQI
    from workloads import rand_invertible

    field = QQI if gaussian else QQ
    planted = pencil_labels(size, gaussian)
    S = kronecker_sum([kronecker_block(l) for l in planted])
    rng = random.Random(0)
    U, V = rand_invertible(S.d1, rng, gaussian), rand_invertible(S.d2, rng, gaussian)
    R = KroneckerRep(V @ S.A @ U, V @ S.B @ U)
    t = time.perf_counter()
    labels, P, Q = kronecker_decompose_with_iso(R, field)
    seconds = time.perf_counter() - t
    name = f"({R.d1},{R.d2}) {field.name}"
    if labels != sorted(planted, key=lambda l: l.sort_key()):
        raise SystemExit(f"{name}: labels {labels} are not the planted ones")
    can = kronecker_sum([kronecker_block(l) for l in labels])
    if not (rank(P) == R.d2 and rank(Q) == R.d1 and R.A @ Q == P @ can.A and R.B @ Q == P @ can.B):
        raise SystemExit(f"{name}: the decomposition does not multiply back")
    return f"{name:<12} {seconds:>8.3f}  {' + '.join(map(repr, labels))}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--radius", type=int, default=10, help="arity-1 windows are -R..R")
    ap.add_argument("--lengths", default="3,5", help="the s of each M(s,0) + M(2,0), comma separated")
    ap.add_argument("--box", type=int, default=3, help="the arity-2 box is -B..B squared; 0 leaves it out")
    ap.add_argument("--pencils", default="7,11,18", help="planted pencil sizes from 7, 11 and 18, comma separated")
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
    sizes = [int(x) for x in args.pencils.split(",") if x]
    if any(n not in (7, 11, 18) for n in sizes):
        ap.error("--pencils takes sizes from 7, 11 and 18")
    if sizes:
        print(f"{'pencil':<12} {'s':>8}  labels")
    for n in sizes:
        for gaussian in (False, True):
            print(pencil_probe(n, gaussian), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
