"""Acceptance suite: one test (and one printed PASS line) per criterion.

Every check is exact — no tolerances anywhere.  Oracles are independent of
the code paths they certify: products are checked against the faithful
action on divided powers, decompositions against the constructions that
produced their inputs, and golden files against stored bytes.
"""

import io
import random
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

from intdiffops.action import TruncatedSpace, act_monomial, act_term
from intdiffops.classify import (
    BandOrbit,
    KroneckerBlockLabel,
    KroneckerRep,
    band_module,
    contains_regular_summand,
    ind_A_members,
    is_indecomposable,
    kronecker_block,
    kronecker_decompose_with_iso,
    kronecker_sum,
    modules_isomorphic,
    realize_A_member,
    regular_A_module,
    rep_type,
    string_module,
)
from intdiffops.linalg import Mat, invert, rank
from intdiffops.modules import (
    DSet,
    Fiber,
    ModuleWindow,
    Orbit,
    SupportProfile,
    annihilator_dset,
    block_decompose,
    build_Ms,
    build_simple,
    decompose_weight,
    dualize,
    fiber,
    finitely_generated,
    induce,
    is_absolutely_prime_window,
    is_equidimensional,
    split_extension,
    support,
)
from intdiffops.operators import (
    Operator,
    principal_left_ideal_membership,
)
from intdiffops.scalars import ONE, QQ, QQI, Scalar


def report(k, text):
    print(f"CRITERION {k:02d}: PASS — {text}")


def rand_invertible(d, rng):
    while True:
        m = Mat(d, d, [[Scalar(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)])
        if rank(m) == d:
            return m


def scramble_module(M, rng):
    g = {p: rand_invertible(M.dim(p), rng) for p in M.support()}
    maps = {}
    for (kind, slot, p), f in M.maps.items():
        q = M.target(kind, slot, p)
        gq, gp = g.get(q), g.get(p)
        if gq is None or gp is None or f.rows == 0:
            maps[(kind, slot, p)] = f
        else:
            maps[(kind, slot, p)] = gq @ f @ invert(gp)
    return ModuleWindow(M.orbit, M.window, M.spaces, maps, M.side)


def direct_sum_modules(mods):
    first = mods[0]
    spaces = {}
    for p in set().union(*[set(m.spaces) for m in mods]):
        spaces[p] = sum(m.dim(p) for m in mods)
    maps = {}
    for p in spaces:
        for i in range(1, first.n + 1):
            for kind in ("d", "int", "H"):
                q = first.target(kind, i, p)
                if not first.in_window(q):
                    continue
                big = Mat.zero(spaces.get(q, 0), spaces[p])
                ro = co = 0
                for m in mods:
                    f = m.map(kind, i, p)
                    for r in range(f.rows):
                        for c in range(f.cols):
                            big.data[ro + r][co + c] = f.data[r][c]
                    ro += m.dim(q)
                    co += m.dim(p)
                maps[(kind, i, p)] = big
    return ModuleWindow(first.orbit, first.window, spaces, maps, first.side)


# -- 1 ----------------------------------------------------------------------


def test_criterion_01_relations():
    for n in (1, 2, 3):
        one = Operator.one(n)
        for i in range(1, n + 1):
            d = Operator.gen_d(n, i)
            I = Operator.gen_int(n, i)
            H = Operator.gen_H(n, i)
            assert d * I == one
            assert H.commutator(I) == I
            assert H.commutator(d) == -d
            proj = one - I * d
            assert H * proj == proj
            assert proj * H == proj
            for j in range(1, n + 1):
                if i == j:
                    continue
                for a in (d, I, H):
                    for b in (
                        Operator.gen_d(n, j),
                        Operator.gen_int(n, j),
                        Operator.gen_H(n, j),
                    ):
                        assert a * b == b * a
    # full matrix-unit calculus with indices up to 6
    d = Operator.gen_d(1, 1)
    I = Operator.gen_int(1, 1)
    H = Operator.gen_H(1, 1)
    e = lambda s, t: Operator.gen_e(1, s, t, 1)
    for s in range(7):
        for t in range(7):
            assert I * e(s, t) == e(s + 1, t)
            assert e(s, t) * d == e(s, t + 1)
            assert H * e(s, t) == e(s, t).scale(Scalar(s + 1))
            assert e(s, t) * H == e(s, t).scale(Scalar(t + 1))
            if s >= 1:
                assert d * e(s, t) == e(s - 1, t)
            if t >= 1:
                assert e(s, t) * I == e(s, t - 1)
            else:
                assert (e(s, t) * I).is_zero()
            for u in range(7):
                for v in range(7):
                    assert e(s, t) * e(u, v) == (
                        e(s, v) if t == u else Operator.zero(1)
                    )
    report(1, "defining relations (n ≤ 3) and matrix-unit calculus (indices ≤ 6)")


# -- 2 ----------------------------------------------------------------------


def _word_action(word, alpha):
    """Compose generator actions monomial-by-monomial (right to left)."""
    coeff = ONE
    cur = alpha
    for name, slot in reversed(word):
        op = getattr(Operator, f"gen_{name}")(len(alpha), slot)
        (term,) = op.terms
        hit = act_term(term, cur)
        if hit is None:
            return None
        cur, c = hit
        coeff = coeff * c
    return cur, coeff


def test_criterion_02_oracle_equivalence():
    rng = random.Random(2024)
    names = ["H", "d", "int", "x"]

    def check(n, max_len, count, bound):
        space = [a for a in TruncatedSpace(n, bound).basis if sum(a) <= bound]
        for _ in range(count):
            word = [
                (rng.choice(names), rng.randint(1, n))
                for _ in range(rng.randint(1, max_len))
            ]
            a = Operator.one(n)
            for name, slot in word:
                a = a * getattr(Operator, f"gen_{name}")(n, slot)
            for alpha in space:
                expected = _word_action(word, alpha)
                got = act_monomial(a, alpha)
                if expected is None:
                    assert got == {}
                else:
                    beta, c = expected
                    assert got == ({beta: c} if not c.is_zero() else {})

    check(1, 6, 500, 12)
    check(2, 4, 200, 12)
    report(2, "normalize-then-act equals composed generator action (700 words)")


# -- 3 ----------------------------------------------------------------------


def _random_operator(rng, n, homogeneous=False):
    out = Operator.zero(n)
    for _ in range(rng.randint(1, 3)):
        a = Operator.one(n)
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(["H", "d", "int", "e"])
            slot = rng.randint(1, n)
            if kind == "e":
                a = a * Operator.gen_e(n, rng.randint(0, 3), rng.randint(0, 3), slot)
            else:
                a = a * getattr(Operator, f"gen_{kind}")(n, slot)
        out = out + a.scale(Scalar(rng.randint(1, 5)))
    if homogeneous and not out.is_zero():
        # a homogeneous sample is one graded component of a random element
        comps = sorted(out.graded_components().items())
        return comps[rng.randrange(len(comps))][1]
    return out


def test_criterion_03_grading():
    rng = random.Random(77)
    for _ in range(200):
        n = rng.choice([1, 2])
        a = _random_operator(rng, n, homogeneous=True)
        b = _random_operator(rng, n, homogeneous=True)
        if a.is_zero() or b.is_zero():
            continue
        (da,) = set(a.graded_components())
        (db,) = set(b.graded_components())
        prod = a * b
        if not prod.is_zero():
            assert prod.is_homogeneous()
            (dp,) = set(prod.graded_components())
            assert dp == tuple(x + y for x, y in zip(da, db))
        # reassembly of a random (inhomogeneous) element
        c = _random_operator(rng, n)
        back = Operator.zero(n)
        for comp in c.graded_components().values():
            back = back + comp
        assert back == c
    report(3, "products of homogeneous elements add degrees; components reassemble")


# -- 4 ----------------------------------------------------------------------


def test_criterion_04_Ms_dimensions():
    for s in (1, 2, 3, 4):
        for lam in (Scalar(0), Scalar(Fraction(1, 2)), Scalar(-3)):
            M = build_Ms(s, lam, [(-10, 10)])
            assert M.relation_violations() == []
            assert sorted(M.spaces) == [(k,) for k in range(-10, 11)]
            assert all(d == s for d in M.spaces.values())
    report(4, "M(s,λ) has every generalized weight space of dimension s")


# -- 5 ----------------------------------------------------------------------


def test_criterion_05_supports():
    for n in (1, 2, 3):
        orbit = Orbit.from_reps([0] * n)
        window = [(-2, 2)] * n
        # P_n: every slot degenerate
        P = build_simple(DSet(orbit, range(1, n + 1)), window)
        expect = set(product(range(1, 3), repeat=n))
        assert set(support(P)) == expect
        for r in range(n + 1):
            for D in combinations(range(1, n + 1), r):
                M = build_simple(DSet(orbit, D), window)
                expect = {
                    p
                    for p in product(range(-2, 3), repeat=n)
                    if all(p[i - 1] >= 1 for i in D)
                }
                assert set(support(M)) == expect
    report(5, "Supp(P_n) = positive orthant; Supp(M(D)) per degeneracy pattern")


# -- 6 ----------------------------------------------------------------------


def test_criterion_06_annihilators():
    for n in (1, 2, 3):
        orbit = Orbit.from_reps([0] * n)
        window = [(-2, 2)] * n
        seen = {}
        for r in range(n + 1):
            for D in combinations(range(1, n + 1), r):
                M = build_simple(DSet(orbit, D), window)
                active, label = annihilator_dset(M)
                assert active == frozenset(D)
                assert set(label.prime_slots) == set(range(1, n + 1)) - set(D)
                assert label.height == n - len(D)
                assert label not in seen.values()
                seen[D] = label
    report(6, "annihilator labels match prime sums and D ↦ Ann is injective (n ≤ 3)")


# -- 7 ----------------------------------------------------------------------


def test_criterion_07_scrambled_weight_sums():
    rng = random.Random(7)
    for trial in range(50):
        n = rng.choice([1, 1, 2, 2, 3])
        orbit = Orbit.from_reps([0] * n)
        window = [(-1, 2)] * n
        slots = list(range(1, n + 1))
        summands = []
        expected = {}
        for _ in range(rng.randint(1, 5)):
            D = tuple(sorted(rng.sample(slots, rng.randint(0, n))))
            summands.append(build_simple(DSet(orbit, D), window))
            expected[D] = expected.get(D, 0) + 1
        M = scramble_module(direct_sum_modules(summands), rng)
        got = {tuple(sorted(ds.D)): m for ds, m in decompose_weight(M).items()}
        assert got == expected
    report(7, "50 scrambled sums of ≤ 5 simples give back the exact multiset")


# -- 8 ----------------------------------------------------------------------


def test_criterion_08_block_decomposition():
    rng = random.Random(8)
    orbit = Orbit.from_reps([0, 0])
    window = [(-1, 2)] * 2
    A = build_simple(DSet(orbit, {1, 2}), window)
    B = build_simple(DSet(orbit, {1}), window)
    C = build_simple(DSet(orbit, set()), window)
    M = scramble_module(direct_sum_modules([A, B, C, B]), rng)
    blocks = block_decompose(M)
    got = {}
    for ds, sub in blocks:
        got[tuple(sorted(ds.D))] = sub.total_dim()
        sub._validate_shapes()
        assert is_absolutely_prime_window(sub)
        _, label = annihilator_dset(sub)
        assert set(label.prime_slots) == {1, 2} - set(ds.D)
    assert got == {
        (1, 2): A.total_dim(),
        (1,): 2 * B.total_dim(),
        (): C.total_dim(),
    }
    assert not is_absolutely_prime_window(M)
    report(8, "scrambled mixed sums split into absolutely prime blocks")


# -- 9 ----------------------------------------------------------------------


def test_criterion_09_splitting():
    rng = random.Random(9)
    # (a) 30 scrambled cross-block extensions split
    orbit = Orbit.from_reps([0])
    window = [(-2, 2)]
    for trial in range(30):
        D1, D2 = ((), (1,)) if trial % 2 == 0 else ((1,), ())
        M1 = build_simple(DSet(orbit, D1), window)
        M2 = build_simple(DSet(orbit, D2), window)
        M0 = direct_sum_modules([M1, M2])
        g = {p: rand_invertible(M0.dim(p), rng) for p in M0.support()}
        maps = {}
        for (kind, slot, p), f in M0.maps.items():
            q = M0.target(kind, slot, p)
            if q in g and p in g and f.rows > 0:
                maps[(kind, slot, p)] = g[q] @ f @ invert(g[p])
            else:
                maps[(kind, slot, p)] = f
        M = ModuleWindow(M0.orbit, M0.window, M0.spaces, maps, M0.side)
        # the scrambled image of the first summand
        S = {}
        for p in M.support():
            d1 = M1.dim(p)
            if d1 == 0:
                continue
            E = Mat.zero(M.dim(p), d1)
            for r in range(d1):
                E.data[r][r] = ONE
            S[p] = g[p] @ E
        comp = split_extension(M, S)
        assert comp is not None
        for p in M.support():
            s = S[p].cols if p in S else 0
            c = comp[p].cols if p in comp else 0
            assert s + c == M.dim(p)
            if s and c:
                assert rank(S[p].hstack(comp[p])) == M.dim(p)
    # (b) the socle of M(2, λ) admits no complement
    from intdiffops.linalg import kernel_basis

    for lam in (Scalar(0), Scalar(Fraction(1, 2))):
        M = build_Ms(2, lam, [(-3, 3)])
        S = {}
        for p in M.support():
            nil = M.map("H", 1, p) - Mat.identity(2).scale(M.orbit.weight(1, p[0]))
            (col,) = kernel_basis(nil)
            S[p] = col
        assert split_extension(M, S) is None
    # (c) left-ideal splitting of the matrix-unit columns
    for n in (1, 2, 3):
        gen = ("H", Scalar(n))
        for j in range(6):
            member, _ = principal_left_ideal_membership(
                Operator.gen_e(1, j, n - 1, 1), gen
            )
            assert not member  # E_{*,n-1} meets the ideal trivially
            for k in range(6):
                a = Operator.gen_e(1, j, k, 1)
                if k == n - 1:
                    continue  # already inside E_{*,n-1}
                member, wit = principal_left_ideal_membership(a, gen)
                assert member
                assert wit * (Operator.gen_H(1, 1) - Operator.from_scalar(1, Scalar(n))) == a
    report(9, "complements exist across blocks, fail for the M(2,λ) socle, and "
              "E_{*,n-1} splits the matrix-unit ideal against (H - n)")


# -- 10 ---------------------------------------------------------------------


def _random_fiber(rng, k, d):
    """Commuting matrices with prescribed centers (nilpotent after shift)."""
    centers = [Scalar(rng.randint(-2, 2)) for _ in range(k)]
    N = Mat.zero(d, d)
    for i in range(d - 1):
        for j in range(i + 1, d):
            N.data[i][j] = Scalar(rng.randint(-2, 2))
    mats = [N + Mat.identity(d).scale(centers[0])]
    if k == 2:
        # a polynomial in N commutes with N and is nilpotent
        c1, c2 = rng.randint(-2, 2), rng.randint(-2, 2)
        P = N.scale(Scalar(c1)) + (N @ N).scale(Scalar(c2))
        mats.append(P + Mat.identity(d).scale(centers[1]))
    slots = list(range(1, k + 1))
    return Fiber(slots, centers, mats)


def test_criterion_10_fiber_induce_roundtrip():
    rng = random.Random(10)
    for trial in range(30):
        k = rng.choice([1, 2])
        d = rng.randint(1, 6)
        f = _random_fiber(rng, k, d)
        orbit = Orbit.from_reps([c for c in f.center])
        dset = DSet(orbit, set())
        window = [(-2, 2)] * k
        M = induce(f, dset, window)
        assert M.relation_violations() == []
        p = tuple(0 for _ in range(k))
        f2 = fiber(M, p)
        M2 = induce(f2, dset, window)
        assert M2 == M
        # the recovered fiber has the same nilpotent parts after recentring
        assert f2.dim == f.dim
        for A, muA, B, muB in zip(f.matrices, f.center, f2.matrices, f2.center):
            nilA = A - Mat.identity(d).scale(muA)
            nilB = B - Mat.identity(d).scale(muB)
            assert nilA == nilB
    report(10, "30 fiber→induce→fiber round trips are the identity")


# -- 11 ---------------------------------------------------------------------


def test_criterion_11_rep_type_truth_table():
    for n in range(1, 5):
        for pattern in product([True, False], repeat=n):
            reps = [0 if flag else "1/2" for flag in pattern]
            orbit = Orbit.from_reps(reps)
            integer_slots = [j + 1 for j, flag in enumerate(pattern) if flag]
            for r in range(len(integer_slots) + 1):
                for D in combinations(integer_slots, r):
                    verdict = rep_type(DSet(orbit, D)).kind
                    if all(pattern) and len(D) == n:
                        expected = "finite"
                    elif len(D) == n - 1:
                        expected = "tame"
                    else:
                        expected = "wild"
                    assert verdict == expected, (n, pattern, D)
    report(11, "finite/tame/wild verdicts match the truth table for n ≤ 4")


# -- 12 ---------------------------------------------------------------------


def test_criterion_12_kronecker():
    rng = random.Random(12)
    for n in range(1, 5):
        assert is_indecomposable(kronecker_block(KroneckerBlockLabel("S2", n)))
        assert is_indecomposable(kronecker_block(KroneckerBlockLabel("S3", n)))
        assert is_indecomposable(
            kronecker_block(KroneckerBlockLabel("S4", n, Scalar(n - 2)))
        )
        assert is_indecomposable(kronecker_block(KroneckerBlockLabel("S5", n)))
    assert is_indecomposable(kronecker_block(KroneckerBlockLabel("S1")))
    pool = [
        KroneckerBlockLabel("S1"),
        KroneckerBlockLabel("S2", 1),
        KroneckerBlockLabel("S2", 2),
        KroneckerBlockLabel("S3", 1),
        KroneckerBlockLabel("S4", 1, Scalar(2)),
        KroneckerBlockLabel("S4", 2, Scalar(-1)),
        KroneckerBlockLabel("S5", 1),
        KroneckerBlockLabel("S5", 2),
    ]
    for trial in range(50):
        labels_in = [rng.choice(pool) for _ in range(rng.randint(2, 3))]
        S = kronecker_sum([kronecker_block(l) for l in labels_in])
        U = rand_invertible(S.d1, rng)
        V = rand_invertible(S.d2, rng)
        R = KroneckerRep(V @ S.A @ U, V @ S.B @ U)
        labels, P, Q = kronecker_decompose_with_iso(R, QQ)
        assert labels == sorted(labels_in, key=KroneckerBlockLabel.sort_key)
        can = kronecker_sum([kronecker_block(l) for l in labels])
        assert rank(P) == R.d2 and rank(Q) == R.d1
        assert (R.A @ Q) == (P @ can.A)
        assert (R.B @ Q) == (P @ can.B)
    report(12, "five series indecomposable (n ≤ 4); 50 scrambled sums relabeled "
               "exactly with verified isomorphisms")


# -- 13 ---------------------------------------------------------------------


def test_criterion_13_strings_and_bands():
    words = [()]
    for l in range(1, 5):
        words += list(product((1, 2), repeat=l))
    strings = {}
    for w in words:
        m = string_module(w)
        assert m.dim == len(w) + 1
        m.check_relation()
        assert is_indecomposable(m.matrices)
        strings[w] = m
    # pairwise non-isomorphic (same dimension only; others differ trivially)
    keys = sorted(strings, key=len)
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            a, b = strings[keys[i]], strings[keys[j]]
            if a.dim == b.dim:
                assert modules_isomorphic(a.matrices, b.matrices) is None
    bands = {}
    orbits = set()
    for l in (1, 2, 3):
        for w in product((1, 2), repeat=l):
            try:
                orbits.add(BandOrbit(w))
            except Exception:
                pass
    for orbit in sorted(orbits, key=lambda o: o.word):
        for n in (1, 2):
            for lam in (Scalar(1), Scalar(2), Scalar(-1)):
                b = band_module(orbit, n, lam)
                assert b.dim == n * orbit.length
                b.check_relation()
                assert is_indecomposable(b.matrices)
                bands[(orbit.word, n, str(lam))] = b
    items = sorted(bands)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            a, b = bands[items[i]], bands[items[j]]
            if a.dim == b.dim:
                assert modules_isomorphic(a.matrices, b.matrices) is None
    # rotations of one word land in the same orbit and give isomorphic bands
    for w, rot in [((1, 2, 2), (2, 2, 1)), ((1, 1, 2), (1, 2, 1)), ((1, 2), (2, 1))]:
        assert BandOrbit(w) == BandOrbit(rot)
        for n in (1, 2):
            b1 = band_module(BandOrbit(w), n, Scalar(2))
            b2 = band_module(BandOrbit(rot), n, Scalar(2))
            assert modules_isomorphic(b1.matrices, b2.matrices) is not None
    # distinct parameters separate bands of the same shape
    for n in (1, 2):
        b1 = band_module(BandOrbit((1, 2)), n, Scalar(1))
        b2 = band_module(BandOrbit((1, 2)), n, Scalar(2))
        assert modules_isomorphic(b1.matrices, b2.matrices) is None
    # strings vs bands of equal dimension are never isomorphic
    for w in words:
        for key in items:
            if strings[w].dim == bands[key].dim:
                assert modules_isomorphic(strings[w].matrices, bands[key].matrices) is None
    report(13, "strings |w| ≤ 4 and bands (l ≤ 3, n ≤ 2) have the stated "
               "dimensions, are indecomposable and pairwise distinct")


# -- 14 ---------------------------------------------------------------------


def test_criterion_14_local_algebra_lemma():
    rng = random.Random(14)
    h1, h2 = regular_A_module()
    assert is_indecomposable([h1, h2])
    # random modules with m^2 M != 0 contain a regular summand
    pool = ind_A_members(4, QQI)
    small = [d for d in pool if d.kind != "regular"]
    regular = next(d for d in pool if d.kind == "regular")
    for trial in range(20):
        has_regular = trial % 2 == 0
        descs = [regular] if has_regular else [rng.choice(small)]
        descs.append(rng.choice(small))
        mods = [
            realize_A_member(d, lam=Scalar(rng.choice([1, 2, -1])), field=QQI)
            for d in descs
        ]
        dim = sum(a.rows for a, _ in mods)
        assert dim <= 8
        H1 = Mat.zero(dim, dim)
        H2 = Mat.zero(dim, dim)
        off = 0
        for a, b in mods:
            for r in range(a.rows):
                for c in range(a.rows):
                    H1.data[off + r][off + c] = a.data[r][c]
                    H2.data[off + r][off + c] = b.data[r][c]
            off += a.rows
        g = rand_invertible(dim, rng)
        gi = invert(g)
        H1, H2 = g @ H1 @ gi, g @ H2 @ gi
        doubled_socle_acts = not (H1 @ H2).is_zero()
        assert doubled_socle_acts == has_regular
        assert contains_regular_summand(H1, H2) == has_regular
    kinds = sorted(m.kind for m in pool)
    assert kinds.count("simple") == 1 and kinds.count("regular") == 1
    assert kinds.count("string") == 6 and kinds.count("band") == 2
    report(14, "regular module indecomposable over ℚ(i); m²M ≠ 0 forces a "
               "regular summand; the dimension-4 list is exact")


# -- 15 ---------------------------------------------------------------------


def test_criterion_15_involution_and_duals():
    rng = random.Random(15)
    for _ in range(200):
        n = rng.choice([1, 2])
        a = _random_operator(rng, n)
        b = _random_operator(rng, n)
        assert (a * b).involution() == b.involution() * a.involution()
        assert a.involution().involution() == a
    # dualize(P_n) realizes the right-action table on the basis ∂^α
    for n in (1, 2):
        orbit = Orbit.from_reps([0] * n)
        window = [(0, 7)] * n
        P = build_simple(DSet(orbit, range(1, n + 1)), window)
        D = dualize(P)
        assert D.side == "right"
        for p in P.support():
            alpha = tuple(x - 1 for x in p)
            if sum(alpha) > 6:
                continue
            for i in range(1, n + 1):
                # right H_i: eigenvalue alpha_i + 1
                assert D.maps[("H", i, p)] == Mat.identity(1).scale(
                    Scalar(alpha[i - 1] + 1)
                )
                up = tuple(x + (1 if j == i - 1 else 0) for j, x in enumerate(p))
                dn = tuple(x - (1 if j == i - 1 else 0) for j, x in enumerate(p))
                # right ∂_i raises: stored as the d-map after dualizing
                if P.in_window(up):
                    assert D.maps[("d", i, p)] == Mat.identity(1)
                # right ∫_i lowers, killing the bottom layer
                if P.in_window(dn):
                    m = D.maps[("int", i, p)]
                    if alpha[i - 1] == 0:
                        assert m.rows == 0 or m.is_zero()
                    else:
                        assert m == Mat.identity(1)
    report(15, "involution is an anti-automorphism (200 pairs); dual of P_n "
               "acts by the ∂-basis right-action table")


# -- 16 ---------------------------------------------------------------------


def test_criterion_16_equidimensionality():
    for s in (1, 2, 3):
        for lam in (Scalar(0), Scalar(Fraction(1, 2))):
            M = build_Ms(s, lam, [(-4, 4)])
            assert is_equidimensional(M)
            f = fiber(M, (0,))
            assert f.dim == s  # length equals fiber dimension
    for n in (1, 2):
        orbit = Orbit.from_reps([0] * n)
        M = build_simple(DSet(orbit, range(1, n + 1)), [(-2, 2)] * n)
        assert is_equidimensional(M)
    profiles = []
    for oc in (None, 0, 1, 3, 10):
        for db in (None, 1, 2, 5):
            profiles.append(SupportProfile(oc, db))
    assert len(profiles) == 20
    for prof in profiles:
        assert finitely_generated(prof) == (
            prof.orbit_count is not None and prof.dim_bound is not None
        )
    report(16, "constructed modules are equidimensional with length = fiber "
               "dimension; finite generation matches on 20 profiles")


# -- 17 ---------------------------------------------------------------------


def test_criterion_17_cli_golden():
    from intdiffops.cli import main as cli_main
    from golden_cases import GOLDEN_CASES

    golden_dir = Path(__file__).parent / "golden"
    assert len(GOLDEN_CASES) == 25
    for name, argv in GOLDEN_CASES:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(list(argv))
        assert code == 0, name
        stored = (golden_dir / f"{name}.txt").read_bytes()
        assert buf.getvalue().encode() == stored, name
        # byte-identical across repeated runs
        buf2 = io.StringIO()
        with redirect_stdout(buf2):
            cli_main(list(argv))
        assert buf2.getvalue() == buf.getvalue(), name
    report(17, "25 CLI invocations are byte-identical to their golden files")
