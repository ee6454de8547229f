"""Labels read at the roots of the contracted forest, with no block built.

`decompose_weight`, `annihilator_dset` and `is_absolutely_prime_window`
stop at the `linalg.split` of the window's contraction
(`ForestTransport.contracted`) and read every block's dimensions off its
bases at the contraction's vertices.  The property test compares them
with the same verdicts read off the block windows of `block_decompose`,
on scrambled sums and on bent windows, result for result and error for
error.  The other tests pin what the contracted path does not do (read an
H loop's scalar twice, build a block window) and the bytes of the blocks
that `block_decompose` still builds.
"""

import hashlib
import random
from functools import reduce
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from intdiffops import modules
from intdiffops.linalg import Mat, invert
from intdiffops.modules import (
    AnnihilatorLabel,
    DomainError,
    DSet,
    ModuleWindow,
    Orbit,
    annihilator_dset,
    block_decompose,
    build_Ms,
    build_simple,
    decompose_weight,
    dualize,
    is_absolutely_prime_window,
    is_equidimensional,
)
from intdiffops.scalars import Scalar
from intdiffops.serialize import dumps, module_to_json
from test_modules import direct_sum, scramble

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


# -- the verdicts read off the block windows ---------------------------------


def ref_decompose_weight(M):
    ok, bad = M.is_weight()
    if not ok:
        raise DomainError(f"module is not a weight module at point {bad}")
    out = {}
    for dset, sub in block_decompose(M):
        if not is_equidimensional(sub):
            raise DomainError(f"block {dset!r} is not equidimensional")
        if sub.spaces:
            out[dset] = out.get(dset, 0) + next(iter(sub.spaces.values()))
    return out


def ref_annihilator_dset(M, strict):
    labels = [dset.D for dset, sub in block_decompose(M) if sub.spaces]
    if strict and len(labels) > 1:
        raise DomainError("module is not a single block: it has the blocks " + ", ".join(f"D={sorted(D)}" for D in labels))
    active = frozenset().union(*labels)
    return active, AnnihilatorLabel(tuple(j for j in range(1, M.n + 1) if j not in active))


def ref_is_absolutely_prime_window(M):
    return sum(1 for _, sub in block_decompose(M) if sub.spaces) == 1


def _outcome(f, *args):
    """("ok", f(*args)), or the type and message of what it raised."""
    try:
        return "ok", f(*args)
    except Exception as e:  # every exception, to compare type and message
        return type(e), str(e)


# -- windows -----------------------------------------------------------------


def _gaussian_scramble(M, rng):
    """M with every weight space in a random basis of determinant 1 whose
    entries are 0, ±1 and ±i: unit lower times unit upper triangular."""
    units = (Scalar(0), Scalar(1), Scalar(-1), Scalar(0, 1), Scalar(0, -1))
    g = {}
    for p in M.support():
        d = M.dim(p)
        L = [[Scalar(int(r == c)) if c >= r else rng.choice(units) for c in range(d)] for r in range(d)]
        U = [[Scalar(int(r == c)) if c <= r else rng.choice(units) for c in range(d)] for r in range(d)]
        g[p] = Mat(d, d, L) @ Mat(d, d, U)
    maps = {}
    for (kind, slot, p), f in M.maps.items():
        q = M.target(kind, slot, p)
        ok = p in g and q in g and f.rows
        maps[(kind, slot, p)] = g[q] @ f @ invert(g[p]) if ok else f
    return ModuleWindow(M.orbit, M.window, M.spaces, maps, M.side)


@st.composite
def windows(draw):
    """A scrambled sum of simples (and, at arity 1, Ms windows) on a left
    or right window, over Q or Q(i), possibly bent: one d or int map
    perturbed, one H loop of largest dimension made non-scalar (or off its
    weight), a summand cut off above layer 0 (so its block is not
    equidimensional), or a window that starts above layer 0 in an integer
    slot."""
    n = draw(st.integers(1, 3))
    reps = [draw(st.sampled_from([0, 0, "1/2"])) for _ in range(n)]
    orbit = Orbit.from_reps(reps)
    lo, hi = {1: (-2, 2), 2: (-1, 2), 3: (-1, 1)}[n]
    bend = draw(st.sampled_from(["none", "none", "map", "loop", "cut", "layer"]))
    window = [(lo, hi)] * n
    slots = orbit.integer_slots()
    if bend == "layer" and slots:
        j = draw(st.sampled_from(slots))
        window[j - 1] = (1, hi + 1)
    summands = []
    for _ in range(draw(st.integers(1, 3 if n < 3 else 2))):
        if n == 1 and draw(st.booleans()):
            summands.append(build_Ms(draw(st.integers(1, 3)), reps[0], window))
        else:
            D = [j for j in slots if draw(st.booleans())]
            summands.append(build_simple(DSet(orbit, D), window))
    if bend == "cut" and slots:
        # a simple of label () kept at layer 0 and below of one slot: no module
        j = draw(st.sampled_from(slots))
        S = build_simple(DSet(orbit, []), window)
        keep = {p: d for p, d in S.spaces.items() if p[j - 1] <= 0}
        maps = {k: f for k, f in S.maps.items() if k[2] in keep and S.target(*k) in keep}
        summands.append(ModuleWindow(orbit, window, keep, maps))
    M = reduce(direct_sum, summands)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    M = _gaussian_scramble(M, rng) if draw(st.booleans()) else scramble(M, rng)
    if bend in ("map", "loop"):
        kinds = ("d", "int") if bend == "map" else ("H",)
        keys = sorted(k for k, f in M.maps.items() if k[0] in kinds and f.rows and f.cols)
        if bend == "loop":
            keys = [k for k in keys if M.maps[k].rows == max(M.dim(p) for p in M.support())]
        if keys:
            key = draw(st.sampled_from(keys))
            f = M.maps[key]
            r, c = draw(st.integers(0, f.rows - 1)), draw(st.integers(0, f.cols - 1))
            if bend == "loop" and f.rows > 1 and r == c:
                c = (r + 1) % f.cols
            bump = Mat(f.rows, f.cols, [[int((i, k) == (r, c)) for k in range(f.cols)] for i in range(f.rows)])
            maps = dict(M.maps)
            maps[key] = f + bump
            M = ModuleWindow(M.orbit, M.window, M.spaces, maps, M.side)
    return dualize(M) if draw(st.booleans()) else M


@given(windows())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_contracted_verdicts_match_the_block_windows(M):
    assert _outcome(decompose_weight, M) == _outcome(ref_decompose_weight, M)
    for strict in (True, False):
        assert _outcome(annihilator_dset, M, strict) == _outcome(ref_annihilator_dset, M, strict)
    assert _outcome(is_absolutely_prime_window, M) == _outcome(ref_is_absolutely_prime_window, M)


# -- what the contracted path does not do -------------------------------------


def test_decompose_weight_reads_each_loop_once_and_builds_no_block(monkeypatch):
    # a decompose3_3 window of the weight_modules bench: arity 3, labels of
    # sizes 0, 1 and 2, scrambled
    rng = random.Random(3)
    orbit = Orbit.from_reps([0, 0, 0])
    window = [(-1, 2)] * 3
    summands = [build_simple(DSet(orbit, rng.sample([1, 2, 3], size)), window) for size in (0, 1, 2)]
    M = scramble(reduce(direct_sum, summands), rng)
    loops = {id(f): 0 for (kind, _, p), f in M.maps.items() if kind == "H" and M.dim(p)}
    scalar_value, trusted, matmul, split = Mat.scalar_value, ModuleWindow._trusted, Mat.__matmul__, modules.split
    built, contractions, products = [], [], [0]

    def counted(self):
        if id(self) in loops:
            loops[id(self)] += 1
        return scalar_value(self)

    def build(*args):
        built.append(args)
        return trusted(*args)

    def product(self, other):
        products[0] += 1
        return matmul(self, other)

    def split_contraction(C, parts):
        contractions.append(C)
        return split(C, parts)

    monkeypatch.setattr(Mat, "scalar_value", counted)
    monkeypatch.setattr(Mat, "__matmul__", product)
    monkeypatch.setattr(modules, "split", split_contraction)
    monkeypatch.setattr(ModuleWindow, "_trusted", staticmethod(build))
    monkeypatch.setattr(ModuleWindow, "__init__", lambda *args, **kw: built.append(args))
    assert len(decompose_weight(M)) == 3
    assert max(loops.values()) == 1 and built == []
    # the contraction keeps no c*I loop (every H loop is one), and the split
    # of the contraction forms no more products than the transport formed
    # when it checked the blocks itself: 286 of them on this window
    (C,) = contractions
    assert not any(s == t and scalar_value(f) is not None for s, t, f in C.arrows)
    assert products[0] <= 286


def test_block_windows_keep_their_bytes(monkeypatch):
    # the blocks of the first 120 windows that seed-3 weight_modules jobs
    # decompose, on either side, as JSON; the digest is that of the parent
    # of the forest transport, which carried bases to every vertex.  The
    # windows come from perfbench's generator: if it changes, recompute the
    # digest on the commit before the change
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    bench = workloads.WORKLOADS["weight_modules"](3)
    got = []
    monkeypatch.setattr(workloads, "decompose_weight", got.append)
    i = 0
    while len(got) < 120:
        job = bench.job(i)
        i += 1
        if job.stratum.startswith("decompose"):
            job.run()
    digest = hashlib.sha256()
    blocks = 0
    for M in got + [dualize(M) for M in got]:
        for ds, block in block_decompose(M):
            digest.update(dumps({"D": sorted(ds.D), "module": module_to_json(block)}).encode())
            blocks += 1
    assert (i, blocks) == (171, 640)
    assert digest.hexdigest() == "3511e2cf71ea5d31a6df3000cb16577bf3ea0fc9064648b7895a7c490f42d312"
