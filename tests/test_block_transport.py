"""Block decomposition with bases carried along opposite d/int pairs.

`block_decompose` computes projectors only at the roots of a spanning
forest of opposite pairs and carries the roots' bases down each tree.  These
property tests plant scrambled sums of simples (and, at arity 1, of Ms
windows) and compare every block, at every point, with the projector image
built from scratch there.
"""

import random
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from intdiffops.linalg import Mat, invert, opposite_forest, rank
from intdiffops.modules import (
    DomainError,
    DSet,
    ModuleWindow,
    Orbit,
    block_decompose,
    build_Ms,
    build_simple,
    decompose_weight,
    dualize,
    _restrict_to_bases,
)
from test_modules import _block_parts, _reference_projector, direct_sum, scramble


@st.composite
def planted_windows(draw):
    """(M, planted): a scrambled direct sum on a window around offset 0 and
    its summands as (D, summand).  At arity 1 some summands may be Ms
    windows, whose one block is D = () of dimension s."""
    n = draw(st.integers(1, 3))
    orbit = Orbit.from_reps([0] * n)
    window = [(-1, 2)] * n if n > 1 else [(-2, 2)]
    slots = list(range(1, n + 1))
    subsets = [D for r in range(n + 1) for D in combinations(slots, r)]
    planted = []
    for _ in range(draw(st.integers(1, 4 if n < 3 else 3))):
        if n == 1 and draw(st.integers(0, 3)) == 0:
            planted.append(((), build_Ms(draw(st.integers(1, 3)), 0, window)))
            continue
        D = draw(st.sampled_from(subsets))
        planted.append((D, build_simple(DSet(orbit, D), window)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return scramble(reduce(direct_sum, [m for _, m in planted]), rng), planted


def _planted_spaces(planted):
    """D -> {point: dimension} of the sum of the summands labeled D."""
    out = {}
    for D, m in planted:
        at = out.setdefault(D, {})
        for p, d in m.spaces.items():
            at[p] = at.get(p, 0) + d
    return out


def _same_span(A, B):
    return rank(A) == rank(B) == rank(A.hstack(B))


@given(planted_windows(), st.sampled_from(["left", "right"]))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_transported_blocks_are_the_projector_images(case, side):
    M, planted = case
    want = _planted_spaces(planted)
    order = sorted(want, key=lambda D: (len(D), D))
    weight = all(m.is_weight()[0] for _, m in planted)
    if side == "right":
        # the same subspaces as the left window's blocks, with the same labels
        R = dualize(M)
        got, left = block_decompose(R), block_decompose(M)
        assert [ds.D for ds, _ in got] == [ds.D for ds, _ in left]
        for (_, sub), (_, ref) in zip(got, left):
            assert sub.side == "right" and dualize(sub) == ref
        if weight:
            assert {tuple(sorted(ds.D)): m for ds, m in decompose_weight(R).items()} == {
                D: sum(1 for E, _ in planted if E == D) for D in want
            }
        return
    pts, _, got_order, parts = _block_parts(M)
    assert got_order == order
    blocks = block_decompose(M)
    assert [tuple(sorted(ds.D)) for ds, _ in blocks] == order
    dd = M.orbit.integer_slots()
    for (_, sub), D, part in zip(blocks, order, parts):
        assert sub.spaces == want[D]
        bases = {p: B for p, B in zip(pts, part) if B.cols}
        for p, B in bases.items():
            d = M.dim(p)
            P = {i: _reference_projector(M, i, p) for i in dd}
            E = reduce(lambda acc, i: acc @ (P[i] if i in D else Mat.scalar(d, 1) - P[i]), dd, Mat.scalar(d, 1))
            assert _same_span(B, E)
        assert sub == _restrict_to_bases(M, bases)
    if weight:
        assert {tuple(sorted(ds.D)): m for ds, m in decompose_weight(M).items()} == {
            D: sum(1 for E, _ in planted if E == D) for D in want
        }


@given(planted_windows(), st.data())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_a_broken_non_tree_arrow_is_not_stable(case, data):
    M, _ = case
    pts, keys, order, parts = _block_parts(M)
    index = {p: v for v, p in enumerate(pts)}
    _, up = opposite_forest(M.quiver()[2])
    tree = {k for link in up if link is not None for k in link[1:]}
    roots = {v for v, link in enumerate(up) if link is None}
    # an arrow between two points that no projector reads (neither is a
    # root), with a part a at its source and another part b at its target
    candidates = []
    for k, key in enumerate(keys):
        s, t = index[key[2]], index[M.target(*key)]
        if key[0] == "H" or k in tree or s in roots or t in roots:
            continue
        candidates += [
            (key, a, b)
            for a, part_a in enumerate(parts)
            for b, part_b in enumerate(parts)
            if a != b and part_a[s].cols and part_b[t].cols
        ]
    assume(candidates)
    (kind, slot, p), a, b = data.draw(st.sampled_from(candidates))
    q = M.target(kind, slot, p)
    s, t = index[p], index[q]
    # f + B_b(t) e_1 e_1^T (the first coordinate of part a at s): part a is
    # sent partly into part b, and every other map keeps its blocks
    Ts = reduce(Mat.hstack, [part[s] for part in parts])
    offset = sum(part[s].cols for part in parts[:a])
    rows = parts[b][t].cols
    unit = Mat(rows, Ts.cols, [[1 if (r, c) == (0, offset) else 0 for c in range(Ts.cols)] for r in range(rows)])
    maps = dict(M.maps)
    maps[(kind, slot, p)] = M.map(kind, slot, p) + parts[b][t] @ unit @ invert(Ts)
    broken = ModuleWindow(M.orbit, M.window, M.spaces, maps, M.side)
    _, broken_up = opposite_forest(broken.quiver()[2])
    assume(broken_up == up)
    with pytest.raises(DomainError, match=rf"not stable under the generators into \({', '.join(map(str, q))},?\)"):
        block_decompose(broken)


def test_window_without_offset_zero_is_refused_on_either_side():
    M = build_Ms(1, 0, [(1, 3)])
    for window in (M, dualize(M)):
        with pytest.raises(DomainError, match="extend the slot interval down to 0"):
            block_decompose(window)
