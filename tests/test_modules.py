import random
from functools import reduce
from itertools import combinations

import pytest

from intdiffops.linalg import Mat, invert, rank, rref
from intdiffops.modules import (
    DomainError,
    DSet,
    Fiber,
    ModuleWindow,
    Orbit,
    annihilator_dset,
    block_decompose,
    build_Ms,
    build_simple,
    decompose_weight,
    dualize,
    fiber,
    hom_basis,
    induce,
    is_absolutely_prime_window,
    is_equidimensional,
    split_extension,
    support,
    window_isomorphism,
    _contract_blocks,
    _socle_projector,
)
from intdiffops.scalars import ONE, Scalar
from annihilator_reference import cyclic_closure, restrict_to_bases


def rand_invertible(d, rng):
    while True:
        m = Mat(d, d, [[Scalar(rng.randint(-3, 3)) for _ in range(d)] for _ in range(d)])
        if rank(m) == d:
            return m


def scramble(M, rng):
    """Pointwise base change; an isomorphic module window."""
    g = {p: rand_invertible(M.dim(p), rng) for p in M.support()}
    maps = {}
    for (kind, slot, p), f in M.maps.items():
        q = M.target(kind, slot, p)
        gq = g.get(q)
        gp = g.get(p)
        if gq is None or gp is None or f.rows == 0:
            maps[(kind, slot, p)] = f
            continue
        maps[(kind, slot, p)] = gq @ f @ invert(gp)
    return ModuleWindow(M.orbit, M.window, M.spaces, maps, M.side)


def _block_parts(M):
    """(pts, keys, order, parts) of a left window: parts[k][v] is the basis
    of block order[k] at pts[v] in the coordinates of its decomposition:
    the block's bases at the vertices of the contraction, carried down the
    trees by `expand_map`."""
    pts, keys, rep = M.quiver()
    order, transport, parts, _ = _contract_blocks(M, pts, rep)
    return pts, keys, order, [transport.expand_map(part) for part in parts]


def direct_sum(A, B):
    assert A.orbit == B.orbit and A.window == B.window
    spaces = {}
    for p in set(A.spaces) | set(B.spaces):
        spaces[p] = A.dim(p) + B.dim(p)
    maps = {}
    for p in spaces:
        for i in range(1, A.n + 1):
            for kind in ("d", "int", "H"):
                q = A.target(kind, i, p)
                if not A.in_window(q):
                    continue
                fa = A.map(kind, i, p)
                fb = B.map(kind, i, p)
                m = Mat.zero(spaces.get(q, 0), spaces[p])
                for r in range(fa.rows):
                    for c in range(fa.cols):
                        m.data[r][c] = fa.data[r][c]
                for r in range(fb.rows):
                    for c in range(fb.cols):
                        m.data[A.dim(q) + r][A.dim(p) + c] = fb.data[r][c]
                maps[(kind, i, p)] = m
    return ModuleWindow(A.orbit, A.window, spaces, maps, A.side)


def test_simple_module_support():
    orbit = Orbit.from_reps([0, "1/2"])
    M = build_simple(DSet(orbit, {1}), [(-3, 3), (-3, 3)])
    assert M.relation_violations() == []
    pts = support(M)
    assert all(p[0] >= 1 for p in pts)
    assert {p[1] for p in pts} == set(range(-3, 4))
    assert M.is_weight()[0]
    assert is_equidimensional(M)


def test_Ms_dims_and_weight():
    M = build_Ms(3, Scalar(0), [(-5, 5)])
    assert M.relation_violations() == []
    assert all(d == 3 for d in M.spaces.values())
    ok, _ = M.is_weight()
    assert not ok  # generalized but not genuine weight module for s > 1
    assert is_equidimensional(M)
    _, label = annihilator_dset(M, strict=False)
    assert label.height == 1 and set(label.prime_slots) == {1}


def test_annihilator_of_simples():
    for n in (1, 2, 3):
        orbit = Orbit.from_reps([0] * n)
        for r in range(n + 1):
            D = set(range(1, r + 1))
            window = [(-2, 2)] * n
            M = build_simple(DSet(orbit, D), window)
            active, label = annihilator_dset(M)
            assert active == frozenset(D)
            assert set(label.prime_slots) == set(range(1, n + 1)) - D
            assert label.height == n - len(D)


def test_fiber_induce_roundtrip():
    rng = random.Random(5)
    orbit = Orbit.from_reps([0])
    dset = DSet(orbit, set())
    nil = Mat(3, 3, [[Scalar(0), Scalar(1), Scalar(0)],
                     [Scalar(0), Scalar(0), Scalar(1)],
                     [Scalar(0), Scalar(0), Scalar(0)]])
    A = nil + Mat.identity(3).scale(Scalar(2))
    f = Fiber([1], [Scalar(2)], [A])
    M = induce(f, dset, [(0, 4)])
    assert M.relation_violations() == []
    f2 = fiber(M, (2,))
    M2 = induce(f2, dset, [(0, 4)])
    assert M2 == M


def test_block_decompose_and_weight_decompose():
    orbit = Orbit.from_reps([0])
    window = [(-2, 3)]
    A = build_simple(DSet(orbit, {1}), window)
    B = build_simple(DSet(orbit, set()), window)
    M = direct_sum(A, B)
    assert M.relation_violations() == []
    blocks = block_decompose(M)
    got = {frozenset(ds.D): sub.total_dim() for ds, sub in blocks}
    assert got == {frozenset({1}): A.total_dim(), frozenset(): B.total_dim()}
    mults = decompose_weight(M)
    assert {frozenset(ds.D): m for ds, m in mults.items()} == {
        frozenset({1}): 1,
        frozenset(): 1,
    }


def _reference_projector(M, slot, p):
    """The transported socle projector at p built from scratch: d_slot down
    to layer 1, the socle projector 1 - int d there, and int_slot back up."""
    c = p[slot - 1]
    if c < 1:
        return Mat.zero(M.dim(p), M.dim(p))
    chain = []
    cur = p
    for _ in range(c - 1):
        chain.append(M.map("d", slot, cur))
        cur = ModuleWindow.shift(cur, slot, -1)
    chain.append(_socle_projector(M, slot, cur))
    for _ in range(c - 1):
        chain.append(M.map("int", slot, cur))
        cur = ModuleWindow.shift(cur, slot, 1)
    return reduce(lambda comp, m: m @ comp, chain[1:], chain[0])


@pytest.mark.parametrize("n, sizes, seed", [(2, (0, 1, 1, 2), 3), (3, (0, 1, 2, 3), 4), (3, (1, 2, 2), 5)])
def test_block_decompose_matches_projector_reference(n, sizes, seed):
    rng = random.Random(seed)
    orbit = Orbit.from_reps([0] * n)
    window = [(-1, 2)] * n
    slots = list(range(1, n + 1))
    summands = [build_simple(DSet(orbit, rng.sample(slots, size)), window) for size in sizes]
    M = scramble(reduce(direct_sum, summands), rng)
    dd = orbit.integer_slots()
    subsets = [D for r in range(len(dd) + 1) for D in combinations(dd, r)]
    bases = {D: {} for D in subsets}
    for p in M.support():
        d = M.dim(p)
        I = Mat.identity(d)
        P = {i: _reference_projector(M, i, p) for i in dd}
        for i in dd:
            assert P[i] @ P[i] == P[i]
            for j in dd:
                assert P[i] @ P[j] == P[j] @ P[i]
        total = Mat.zero(d, d)
        for D in subsets:
            E = I
            for i in dd:
                E = E @ (P[i] if i in D else I - P[i])
            total = total + E
            _, piv = rref(E)
            if piv:
                bases[D][p] = Mat(d, len(piv), [[E.data[r][c] for c in piv] for r in range(d)])
        assert total == I
    expected = [D for D, b in bases.items() if b]
    pts, _, order, parts = _block_parts(M)
    got = block_decompose(M)
    assert [tuple(sorted(ds.D)) for ds, _ in got] == expected == order
    for (_, sub), D, part in zip(got, order, parts):
        # per point the same subspace as the projector image, which may come
        # in another basis (carried from the tree's root)
        returned = {p: B for p, B in zip(pts, part) if B.cols}
        assert returned.keys() == bases[D].keys()
        for p, B in returned.items():
            assert rank(B) == rank(bases[D][p]) == rank(B.hstack(bases[D][p])) == B.cols
        # the maps are exactly the restriction of M to the returned bases
        assert sub == restrict_to_bases(M, returned)
        sub._validate_shapes()


def test_block_decompose_products_grow_linearly(monkeypatch):
    # each transported projector comes from the one a layer below: two
    # products per point, where a chain from layer 1 costs 2c - 1
    counts = [0]
    matmul = Mat.__matmul__

    def counted(self, other):
        counts[-1] += 1
        return matmul(self, other)

    monkeypatch.setattr(Mat, "__matmul__", counted)
    for window in ([(-50, 49)], [(-100, 99)]):
        M = build_Ms(3, 0, window)
        counts.append(0)
        block_decompose(M)
    # counts[0] is the building of the first window
    assert counts[2] < 2.2 * counts[1]


def _reference_quiver(M):
    """The window's quiver built arrow by arrow through `arrows` and `map`:
    (points, keys, dims, arrows)."""
    pts = sorted(M.points())
    index = {p: v for v, p in enumerate(pts)}
    keys, arrows = [], []
    for p in pts:
        for kind, i, q in M.arrows(p):
            keys.append((kind, i, p))
            arrows.append((index[p], index[q], M.map(kind, i, p)))
    return pts, keys, [M.dim(p) for p in pts], arrows


def _quiver_windows(n, rng):
    """A scrambled sum of simples at arity n on a window that cuts the
    support, the same window dualized, one with about a third of its maps
    dropped, and at arity 1 an Ms window."""
    orbit = Orbit.from_reps([0] * n)
    window = [(-1, 2)] * n if n > 1 else [(-3, 2)]
    slots = list(range(1, n + 1))
    summands = [build_simple(DSet(orbit, rng.sample(slots, size)), window) for size in range(n + 1)]
    M = scramble(reduce(direct_sum, summands), rng)
    keys = sorted(M.maps)
    kept = {k: M.maps[k] for k in keys if rng.random() < 2 / 3}
    assert len(kept) < len(keys)
    windows = [M, dualize(M), ModuleWindow(M.orbit, M.window, M.spaces, kept, M.side)]
    return windows + [build_Ms(3, 0, window)] if n == 1 else windows


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quiver_matches_arrow_by_arrow_reference(n):
    for M in _quiver_windows(n, random.Random(n)):
        pts, keys, rep = M.quiver()
        want_pts, want_keys, want_dims, want_arrows = _reference_quiver(M)
        assert pts == want_pts and keys == want_keys and list(rep.dims) == want_dims
        assert [(s, t) for s, t, _ in rep.arrows] == [(s, t) for s, t, _ in want_arrows]
        for (_, _, f), (_, _, g) in zip(rep.arrows, want_arrows):
            assert f.shape == g.shape and f == g


def test_decompose_scrambled_sum():
    rng = random.Random(11)
    orbit = Orbit.from_reps([0])
    window = [(-2, 2)]
    A = build_simple(DSet(orbit, {1}), window)
    B = build_simple(DSet(orbit, set()), window)
    M = scramble(direct_sum(direct_sum(A, B), B), rng)
    assert M.relation_violations() == []
    for _, sub in block_decompose(M):
        sub._validate_shapes()
    mults = decompose_weight(M)
    assert {frozenset(ds.D): m for ds, m in mults.items()} == {
        frozenset({1}): 1,
        frozenset(): 2,
    }


def test_window_isomorphism_of_scramble():
    rng = random.Random(3)
    M = build_Ms(2, Scalar(0), [(-2, 2)])
    N = scramble(M, rng)
    iso = window_isomorphism(M, N)
    assert iso is not None
    for p in M.support():
        assert rank(iso[p]) == M.dim(p)
    assert window_isomorphism(M, build_Ms(2, "1/2", [(-2, 2)])) is None


def _is_window_iso(iso, M, N):
    for (kind, slot, p), f in M.maps.items():
        q = M.target(kind, slot, p)
        if M.in_window(q) and iso[q] @ f != N.map(kind, slot, p) @ iso[p]:
            return False
    return all(rank(iso[p]) == M.dim(p) for p in M.points())


def test_window_isomorphism_needs_a_combination():
    orbit = Orbit.from_reps([0])
    window = [(-2, 2)]
    A = direct_sum(build_simple(DSet(orbit, set()), window), build_simple(DSet(orbit, {1}), window))
    B = scramble(A, random.Random(1))
    pts = sorted(A.points())
    # each Hom basis element vanishes on one summand, so only a sum is invertible
    assert not any(
        all(rank(h[p]) == A.dim(p) for p in pts) for h in hom_basis(B, A)
    )
    iso = window_isomorphism(B, A)
    assert iso is not None and _is_window_iso(iso, B, A)


def test_window_isomorphism_none_by_certificate():
    window = [(-3, 3)]
    S = build_simple(DSet(Orbit.from_reps([0]), set()), window)
    M = build_Ms(3, 0, window)
    # equal dimension vectors, not isomorphic: at some point a vector is
    # killed by every hom, which proves None without a split
    assert window_isomorphism(M, direct_sum(direct_sum(S, S), S)) is None


def test_socle_of_M2_does_not_split():
    from intdiffops.linalg import kernel_basis

    M = build_Ms(2, Scalar(0), [(-3, 3)])
    # socle: kernel of the nilpotent part of H at every point
    S = {}
    for p in M.support():
        Hm = M.map("H", 1, p)
        nil = Hm - Mat.identity(2).scale(M.orbit.weight(1, p[0]))
        cols = kernel_basis(nil)
        assert len(cols) == 1
        S[p] = cols[0]
    assert split_extension(M, S) is None


def test_split_direct_sum():
    rng = random.Random(9)
    orbit = Orbit.from_reps([0])
    window = [(-2, 2)]
    B = build_simple(DSet(orbit, set()), window)
    M = scramble(direct_sum(B, B), rng)
    p0 = sorted(M.support())[0]
    v = Mat(M.dim(p0), 1, [[ONE], [Scalar(0)]])
    S = cyclic_closure(M, p0, v)
    comp = split_extension(M, S)
    assert comp is not None
    for p in M.support():
        assert S[p].cols + comp[p].cols == M.dim(p)
        assert rank(S[p].hstack(comp[p])) == M.dim(p)
    # the complement is a submodule: every generator maps it into itself
    restrict_to_bases(M, comp)


def test_split_extension_rejects_unstable_subspaces():
    M = build_Ms(2, Scalar(0), [(-2, 2)])
    # H = [[w, 0], [1, w]] at every point, so the first basis line is not H-stable
    S = {p: Mat(2, 1, [[ONE], [Scalar(0)]]) for p in M.support()}
    with pytest.raises(DomainError, match="not stable"):
        split_extension(M, S)


def _first_summand_bases(g, M, A):
    """The image, in the scrambled window M, of the first summand A of the
    sum it scrambles by the bases g: the first A.dim(p) unit columns."""
    return {p: g[p] @ Mat(M.dim(p), A.dim(p), [[int(r == c) for c in range(A.dim(p))] for r in range(M.dim(p))]) for p in A.spaces}


def _scrambled_sum(A, B, seed):
    rng = random.Random(seed)
    S = direct_sum(A, B)
    g = {p: rand_invertible(S.dim(p), rng) for p in S.support()}
    maps = {}
    for (kind, slot, p), f in S.maps.items():
        q = S.target(kind, slot, p)
        maps[(kind, slot, p)] = g[q] @ f @ invert(g[p]) if q in g and f.rows else f
    return ModuleWindow(S.orbit, S.window, S.spaces, maps, S.side), g


def test_split_extension_refuses_a_basis_bent_at_a_carried_point():
    # simple + simple on -2..2 is one tree rooted at (-2,); S is the first
    # summand except at (1,), a carried point, where it is the second: d_1 at
    # (1,) maps it outside S at (0,), the first point a generator leaves S
    orbit = Orbit.from_reps([0])
    A = build_simple(DSet(orbit, set()), [(-2, 2)])
    M, g = _scrambled_sum(A, A, 4)
    S = _first_summand_bases(g, M, A)
    S[(1,)] = g[(1,)] @ Mat(2, 1, [[0], [1]])
    with pytest.raises(DomainError, match=r"^bases are not stable under the generators into \(0,\)$"):
        split_extension(M, S)


def test_split_extension_refuses_a_basis_unstable_off_the_trees():
    # simple + simple({1}) on -2..2 has the trees {-2, -1, 0} and {1, 2}; S
    # is the sum of the two summands' lines on 1..2, which the tree pair
    # between 1 and 2 carries, but d_1 at (1,), between the trees, maps it
    # onto the first summand's line at (0,), outside S = 0 there
    orbit = Orbit.from_reps([0])
    window = [(-2, 2)]
    A, B = build_simple(DSet(orbit, set()), window), build_simple(DSet(orbit, {1}), window)
    M, g = _scrambled_sum(A, B, 6)
    S = {p: g[p] @ Mat(2, 1, [[1], [1]]) for p in B.spaces}
    with pytest.raises(DomainError, match=r"^bases are not stable under the generators into \(0,\)$"):
        split_extension(M, S)


def test_absolutely_prime():
    orbit = Orbit.from_reps([0])
    window = [(-2, 2)]
    A = build_simple(DSet(orbit, {1}), window)
    B = build_simple(DSet(orbit, set()), window)
    assert is_absolutely_prime_window(B)
    assert not is_absolutely_prime_window(direct_sum(A, B))


def test_dualize_involutive_and_support_preserved():
    M = build_Ms(2, Scalar(0), [(-2, 2)])
    D = dualize(M)
    assert D.side == "right"
    assert support(D) == support(M)
    assert dualize(D) == M


def test_dualize_right_action():
    # right action by d equals left action by its involution int
    M = build_simple(DSet(Orbit.from_reps([0]), set()), [(-2, 2)])
    D = dualize(M)
    for p in M.support():
        q = M.target("int", 1, p)
        if M.in_window(q):
            assert D.maps[("d", 1, p)] == M.maps[("int", 1, p)]


def test_right_windows_are_checked_against_the_relations():
    # a simple window with d_1 at (1,) bent to zero breaks d_1 int_1 = 1 at
    # (0,); its right window is checked through the dual, not waved through
    M = build_simple(DSet(Orbit.from_reps(["1/2"]), set()), [(-1, 1)])
    assert M.relation_violations() == dualize(M).relation_violations() == []
    maps = dict(M.maps)
    maps[("d", 1, (1,))] = Mat.zero(1, 1)
    bent = ModuleWindow(M.orbit, M.window, M.spaces, maps)
    assert "d_1 int_1 != id at (0,)" in bent.relation_violations()
    assert dualize(bent).relation_violations() == bent.relation_violations()


def test_domain_errors():
    orbit = Orbit.from_reps([0])
    M = build_Ms(1, Scalar(0), [(1, 3)])  # window misses offset 0
    with pytest.raises(DomainError):
        block_decompose(M)
    with pytest.raises(DomainError):
        build_Ms(0, Scalar(0), [(-1, 1)])
