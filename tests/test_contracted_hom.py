"""Window Hom spaces solved on the contracted opposite forest.

`modules.hom_basis`, `classify.isomorphism` (through `window_isomorphism`),
`classify.split_indecomposables` and `modules.split_extension` contract a
window's quiver along its `linalg.opposite_forest` and solve at the roots.
The property test compares them with the full quiver: the Hom space that
`linalg.hom_space` solves on every point's entries, and the isomorphism
decision run on the uncontracted quivers.  The count guard pins the size of
the system End is solved by on the 147-dimensional window of ROADMAP's
"Sizes the bench never reaches".
"""

import random
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intdiffops import classify, linalg
from intdiffops.linalg import Mat, hom_space, rank
from intdiffops.modules import (
    DSet,
    Fiber,
    ModuleWindow,
    Orbit,
    build_Ms,
    build_simple,
    dualize,
    hom_basis,
    induce,
    window_isomorphism,
)
from intdiffops.scalars import QQ, Scalar
from test_forest_transport import _gaussian_scramble
from test_modules import direct_sum, scramble

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _jordan_fiber(slots, center, size):
    """The fiber of one Jordan cell of the given size in the first slot and
    the scalar center in the others; the cells commute."""
    N = Mat(size, size, [[int(c == r + 1) for c in range(size)] for r in range(size)])
    mats = [Mat.scalar(size, mu) + (N if k == 0 else Mat(size, size)) for k, mu in enumerate(center)]
    return Fiber(slots, center, mats)


@st.composite
def summand(draw, orbit, window):
    """A simple, an induced Jordan cell or (at arity 1) an M(s, lambda) of
    the orbit on the window."""
    n, slots = orbit.n, orbit.integer_slots()
    kind = draw(st.sampled_from(["simple", "simple", "induce", "Ms"] if n == 1 else ["simple", "simple", "induce"]))
    if kind == "Ms":
        return build_Ms(draw(st.integers(1, 2)), orbit.reps[0], window)
    D = [j for j in slots if draw(st.booleans())]
    if kind == "induce" and len(D) < n:
        nondeg = [j for j in range(1, n + 1) if j not in D]
        center = [orbit.reps[j - 1] + draw(st.integers(-1, 1)) for j in nondeg]
        return induce(_jordan_fiber(nondeg, center, 2), DSet(orbit, D), window)
    return build_simple(DSet(orbit, D), window)


@st.composite
def window_pairs(draw):
    """(M, N): scrambled sums over one orbit and window, left or right,
    scrambled over Q or Q(i).  N is a scramble of M's summands in another
    order, or a sum of its own, so its tree pairs may differ from M's; the
    windows cross the degenerate layer of every integer slot."""
    n = draw(st.integers(1, 3))
    orbit = Orbit.from_reps([draw(st.sampled_from([0, 0, "1/2"])) for _ in range(n)])
    window = [{1: (-2, 2), 2: (-1, 1), 3: (0, 1)}[n]] * n
    top = 3 if n < 3 else 2
    summands = draw(st.lists(summand(orbit, window), min_size=1, max_size=top))
    if draw(st.booleans()):
        others = draw(st.permutations(summands))
    else:
        others = draw(st.lists(summand(orbit, window), min_size=1, max_size=top))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pair = []
    for parts in (summands, others):
        M = reduce(direct_sum, parts)
        pair.append(_gaussian_scramble(M, rng) if draw(st.booleans()) else scramble(M, rng))
    if draw(st.booleans()):
        pair = [dualize(M) for M in pair]
    return tuple(pair)


def _intertwines(phi, rep_m, rep_n):
    return all(phi[t] @ f == g @ phi[s] for (s, t, f), (_, _, g) in zip(rep_m.arrows, rep_n.arrows))


@given(window_pairs())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_contracted_hom_matches_the_full_quiver(pair):
    M, N = pair
    pts, _, rep_m = M.quiver()
    rep_n = N.quiver()[2]
    full = hom_space(rep_m, rep_n)
    got = [[h[p] for p in pts] for h in hom_basis(M, N)]
    assert len(got) == len(full)
    for phi in got:
        assert _intertwines(phi, rep_m, rep_n)
    # the returned elements are independent: their entries side by side have full rank
    if got:
        flat = [[x for B in phi for row in B.data for x in row] for phi in got]
        assert rank(Mat(len(flat), len(flat[0]), flat)) == len(got)
    # the decision agrees with the one run on the uncontracted quivers
    iso = window_isomorphism(M, N)
    ref = classify._isomorphism(rep_m, rep_n, classify._entry_field(rep_m, rep_n)) if M.spaces == N.spaces else None
    assert (iso is None) == (ref is None)
    if iso is not None:
        phi = [iso[p] for p in pts]
        assert _intertwines(phi, rep_m, rep_n)
        assert all(rank(B) == d == B.cols for B, d in zip(phi, rep_m.dims))


def _bent(M, bend):
    """M with one point changed so that a loop of its contraction differs
    from M's: an H_1 loop shifted from c*I to (c+1)*I, an H_1 loop made
    non-scalar, or a d_2/int_2 pair rescaled by 2 and 1/2, which keeps the
    pair inverse but makes the holonomy of an arrow inside the tree 2
    where M's is I."""
    p = (0, 0)
    maps = dict(M.maps)
    if bend == "shifted loop":
        maps[("H", 1, p)] = M.maps[("H", 1, p)] + Mat.scalar(M.dim(p), 1)
    elif bend == "non-scalar loop":
        maps[("H", 1, p)] = M.maps[("H", 1, p)] + Mat(2, 2, [[0, 1], [0, 0]])
    else:
        q = M.target("d", 2, p)
        maps[("d", 2, p)] = M.maps[("d", 2, p)].scale(2)
        maps[("int", 2, q)] = M.maps[("int", 2, q)].scale(Scalar(Fraction(1, 2)))
    return ModuleWindow(M.orbit, M.window, M.spaces, maps, M.side)


@pytest.mark.parametrize("bend", ["shifted loop", "non-scalar loop", "holonomy"])
def test_loops_that_m_and_n_do_not_share_stay_in_both_contractions(bend):
    # a scrambled S + S, S the simple of orbit (1/2, 1/2) on a 3 x 3 window:
    # one tree, every H loop c*I and every arrow inside the tree I; N
    # differs at one point, so a loop dropped from M's contraction alone
    # would lose a Hom condition or misalign the arrows that hom_space pairs
    orbit = Orbit.from_reps(["1/2", "1/2"])
    window = [(-1, 1)] * 2
    S = build_simple(DSet(orbit, []), window)
    M = scramble(direct_sum(S, S), random.Random(2))
    N = _bent(M, bend)
    for A, B in ((M, N), (N, M)):
        _, _, rep_a = A.quiver()
        rep_b = B.quiver()[2]
        assert len(hom_basis(A, B)) == len(hom_space(rep_a, rep_b))
        ref = classify._isomorphism(rep_a, rep_b, classify._entry_field(rep_a, rep_b))
        assert (window_isomorphism(A, B) is None) == (ref is None)
    assert len(hom_basis(M, M)) == 4 and len(hom_basis(M, N)) == {"non-scalar loop": 2}.get(bend, 0)


def test_end_of_the_147_dimensional_window_is_solved_at_one_root(monkeypatch):
    # M(5,0) + M(2,0) on -10..10 scrambled as the benchmark scrambles: one
    # tree over all 21 points, so End is a 7x7 system at its root; on every
    # point's entries it is 21 * 49 = 1,029 unknowns
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    window = [(-10, 10)]
    M0 = workloads.direct_sum_modules([build_Ms(5, 0, window), build_Ms(2, 0, window)])
    M, _ = workloads.scramble_module(M0, random.Random(0))
    unknowns = []

    class Spy(linalg.BlockSystem):
        def __init__(self, dims_m, dims_n, arrows):
            super().__init__(dims_m, dims_n, arrows)
            unknowns.append(self.total)

    monkeypatch.setattr(linalg, "BlockSystem", Spy)
    end = hom_basis(M, M)
    assert M.total_dim() == 147 and len(end) == 11
    assert sum(unknowns) <= 49


def test_split_indecomposables_expands_pieces_of_the_contraction():
    # a scrambled M(2,0) + simple on -2..2: pieces come back on the window's
    # quiver, with embeddings that multiply back and fill every point
    orbit = Orbit.from_reps([0])
    window = [(-2, 2)]
    M = scramble(direct_sum(build_Ms(2, 0, window), build_simple(DSet(orbit, []), window)), random.Random(5))
    _, _, rep = M.quiver()
    pieces = classify.split_indecomposables(rep, QQ)
    assert sorted(sum(piece.dims) for piece, _ in pieces) == [5, 10]
    for piece, emb in pieces:
        assert len(piece.arrows) == len(rep.arrows)
        assert all(f @ emb[s] == emb[t] @ x for (s, t, f), (_, _, x) in zip(rep.arrows, piece.arrows))
    for v, d in enumerate(rep.dims):
        assert rank(Mat(d, 0).hstack(*(emb[v] for _, emb in pieces))) == d


def test_a_tree_pair_not_inverse_in_the_target_proves_none(monkeypatch):
    # M(1,0) on 0..2, and the same quiver with int_1 at 0 doubled: d int is
    # 1 at 0 in the first and 2 in the second, and an isomorphism would
    # conjugate the one into the other
    window = [(0, 2)]
    M = build_Ms(1, Scalar(0), window)
    maps = dict(M.maps)
    maps[("int", 1, (0,))] = Mat.scalar(1, 2)
    N = ModuleWindow(M.orbit, M.window, M.spaces, maps)

    def no_hom(*_):
        raise AssertionError("hom_space called")

    monkeypatch.setattr(classify, "hom_space", no_hom)
    assert window_isomorphism(M, N) is None
