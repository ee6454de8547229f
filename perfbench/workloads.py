"""The three library workloads: input generation, the timed call, the exact check.

Each workload is a cycle of strata, a stratum being one kind and size of job.
Job i belongs to stratum i mod len(cycle) and draws its inputs from
random.Random(f"{name}:{tag}:{seed}:{i}").  A seed therefore fixes every
input, and each stratum keeps its share of the jobs whatever the seed, which
keeps the latency percentiles steady from seed to seed.

A job is one verified answer.  `Job.run` is the timed call into the library;
`Job.check` runs afterwards, outside the timed region, and compares the
answer with one known from the construction of the input or from an
independent oracle (`oracle.py`, the action on divided powers).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from intdiffops.action import act_monomial, is_zero_by_action
from intdiffops.classify import (
    AModuleDescriptor,
    BandOrbit,
    KroneckerBlockLabel,
    KroneckerRep,
    band_module,
    contains_regular_summand,
    is_indecomposable,
    kronecker_block,
    kronecker_decompose_with_iso,
    kronecker_sum,
    modules_isomorphic,
    realize_A_member,
    regular_A_module,
    string_module,
)
from intdiffops.linalg import Mat, invert
from intdiffops.modules import (
    DSet,
    ModuleWindow,
    Orbit,
    build_Ms,
    build_simple,
    decompose_weight,
    split_extension,
    window_isomorphism,
)
from intdiffops.operators import Operator, principal_left_ideal_membership
from intdiffops.scalars import ONE, QQ, QQI, Scalar

import oracle
from jobs import Job, Workload


def small_rational(rng: random.Random) -> Scalar:
    return Scalar(Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3)))


# -- operator_algebra ------------------------------------------------------


_GENERATORS = ("H", "d", "int", "x", "e")
# (arity, terms per operator, word length, principal generator of the left
# ideal tested at arity 1): 5-8 terms, words of up to 6 generators
_SHAPES = ((1, 6, 4, "d"), (2, 7, 4, None), (3, 8, 3, None), (1, 5, 6, "H"), (2, 5, 6, None), (3, 6, 5, None))


def _words(rng: random.Random, n: int, terms: int, length: int):
    """`terms` words of `length` generators: (name, slot, e indices)."""
    return tuple(
        tuple((rng.choice(_GENERATORS), rng.randint(1, n), rng.randint(0, 2), rng.randint(0, 2)) for _ in range(length))
        for _ in range(terms)
    )


def _operator_cycle(copies: int):
    """A fixed table of word patterns, `copies` per shape.

    The cost of a product swings by an order of magnitude with the words'
    content, so the words are the same for every seed; the seed draws the
    coefficients, permutes the slots and picks the ideal's eigenvalue.
    """
    rng = random.Random("operator_algebra:words")
    return tuple(
        (n, ideal, _words(rng, n, terms, length), _words(rng, n, terms, length))
        for _ in range(copies)
        for n, terms, length, ideal in _SHAPES
    )


def build_operator(rng: random.Random, n: int, words, slots) -> Operator:
    """Sum of rationals from `rng` times the words, slot j moved to slots[j-1]."""
    out = Operator.zero(n)
    for word in words:
        w = Operator.one(n)
        for name, slot, s, t in word:
            slot = slots[slot - 1]
            g = Operator.gen_e(n, s, t, slot) if name == "e" else getattr(Operator, f"gen_{name}")(n, slot)
            w = w * g
        out = out + w.scale(small_rational(rng))
    return out


# Divided powers x^[alpha] on which the products are compared with the
# composed action: (largest exponent, number of points drawn from that box).
# Arity 1 takes the whole box and also decides commutation on the exact
# window of [a, b].
_PROBES = {1: (8, 9), 2: (5, 4), 3: (3, 3)}


class OperatorAlgebra(Workload):
    name = "operator_algebra"
    # (arity, ideal generator, words of a, words of b)
    cycle = _operator_cycle(4)
    # One pass over the cycle fills _MUL1_CACHE with every slot product the
    # timed jobs ask for, whatever the seed: a cold cycle takes 2.5 s and a
    # warm one 0.7 s, so a partly cold run would let the run length decide
    # how many cold jobs reach p90.
    warmup = tuple(range(len(cycle)))

    def make(self, spec, rng):
        n, ideal, words_a, words_b = spec
        slots = rng.sample(range(1, n + 1), n)
        a = build_operator(rng, n, words_a, slots)
        b = build_operator(rng, n, words_b, slots)
        if ideal == "d":
            gen, g = "d", Operator.gen_d(1)
        elif ideal == "H":
            lam = Scalar(Fraction(rng.choice((-3, -1, 1, 3)), 2))
            gen, g = ("H", lam), Operator.gen_H(1) - Operator.from_scalar(1, lam)

        def run():
            ab = a * b
            ba = b * a
            c = a.commutator(b)
            out = {"ab": ab, "ba": ba, "c": c, "zero": is_zero_by_action(ab - ba - c)}
            if n == 1:
                out["commute"] = is_zero_by_action(c)
                # ab*g lies in the left ideal A*g by construction
                out["q"] = q = ab * g
                out["member"] = principal_left_ideal_membership(q, gen)
            return out

        top, count = _PROBES[n]
        probes = rng.sample(list(product(range(top + 1), repeat=n)), count)

        def check(out):
            if out["zero"] is not True:
                return False
            for alpha in probes:
                ab_ = oracle.composed_action(a, b, alpha)
                ba_ = oracle.composed_action(b, a, alpha)
                if act_monomial(out["ab"], alpha) != ab_ or act_monomial(out["ba"], alpha) != ba_:
                    return False
                if act_monomial(out["c"], alpha) != oracle.sparse_sub(ab_, ba_):
                    return False
            if n == 1:
                c = out["c"]
                window = range(c.index_bound() + c.max_poly_degree() + 2)
                commute = all(
                    oracle.composed_action(a, b, (k,)) == oracle.composed_action(b, a, (k,))
                    for k in window
                )
                member, witness = out["member"]
                if out["commute"] != commute or not member:
                    return False
                if witness * g != out["q"]:
                    return False
            return True

        return Job(f"arity{n}_{len(words_a)}x{len(words_a[0])}", run, check)


# -- module windows --------------------------------------------------------


def rand_invertible(d: int, rng: random.Random, gaussian: bool = False) -> Mat:
    """A random basis change of determinant 1: unit lower times unit upper
    triangular, off-diagonal entries units (±1, and ±i when `gaussian`).
    Fixing the determinant and the entries' size keeps the cost of a job
    nearly the same from seed to seed."""

    units = (Scalar(1), Scalar(-1), Scalar(0, 1), Scalar(0, -1)) if gaussian else (Scalar(1), Scalar(-1))

    def entry():
        return rng.choice(units)

    L = Mat.identity(d)
    U = Mat.identity(d)
    for r in range(d):
        for c in range(r):
            L.data[r][c] = entry()
            U.data[c][r] = entry()
    return L @ U


def scramble_module(M: ModuleWindow, rng: random.Random):
    """M with every weight space put in a random basis; returns (module, bases)."""
    g = {p: rand_invertible(M.dim(p), rng) for p in M.support()}
    maps = {}
    for (kind, slot, p), f in M.maps.items():
        q = M.target(kind, slot, p)
        if q in g and p in g and f.rows > 0:
            maps[(kind, slot, p)] = g[q] @ f @ invert(g[p])
        else:
            maps[(kind, slot, p)] = f
    return ModuleWindow(M.orbit, M.window, M.spaces, maps, M.side), g


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


def generator_maps(M: ModuleWindow):
    """(kind, slot, p, q) for every generator map inside the window."""
    for p in M.points():
        for i in range(1, M.n + 1):
            for kind in ("d", "int", "H"):
                q = M.target(kind, i, p)
                if M.in_window(q):
                    yield kind, i, p, q


def is_window_iso(phi, M: ModuleWindow, N: ModuleWindow) -> bool:
    """phi commutes with every generator map and is invertible at every point."""
    if phi is None:
        return False
    zero = lambda p: Mat.zero(N.dim(p), M.dim(p))
    for kind, i, p, q in generator_maps(M):
        lhs = oracle.product(phi.get(q, zero(q)), M.map(kind, i, p))
        rhs = oracle.product(N.map(kind, i, p), phi.get(p, zero(p)))
        if lhs != rhs:
            return False
    return all(oracle.rank(phi[p]) == M.dim(p) for p in M.support())


class WeightModules(Workload):
    name = "weight_modules"
    # ("decompose", arity, sizes of the summands' degeneracy sets) | ("iso", s) | ("split",);
    # the seed picks the slots of each degeneracy set and the scrambling bases
    # Two of each cycle's ten jobs are the slowest stratum and three sit near
    # the middle, so p90 and p50 fall inside a stratum rather than between two.
    cycle = (
        ("decompose", 1, (0, 0, 1, 1, 1)),
        ("decompose", 2, (0, 1, 2)),
        ("decompose", 3, (0, 1, 2)),
        ("iso", 2),
        ("decompose", 3, (1, 2)),
        ("decompose", 2, (0, 1, 1, 2)),
        ("split",),
        ("decompose", 3, (0, 1, 2)),
        ("iso", 3),
        ("decompose", 3, (1, 2)),
    )
    warmup = (0, 1, 3, 6)

    def make(self, spec, rng):
        kind = spec[0]
        if kind == "decompose":
            _, n, sizes = spec
            orbit = Orbit.from_reps([0] * n)
            window = [(-1, 2)] * n
            slots = list(range(1, n + 1))
            summands, expected = [], {}
            for size in sizes:
                D = tuple(sorted(rng.sample(slots, size)))
                summands.append(build_simple(DSet(orbit, D), window))
                expected[D] = expected.get(D, 0) + 1
            M, _ = scramble_module(direct_sum_modules(summands), rng)

            def run():
                return decompose_weight(M)

            def check(out):
                return {tuple(sorted(ds.D)): m for ds, m in out.items()} == expected

            return Job(f"decompose{n}_{len(sizes)}", run, check)

        if kind == "iso":
            s = spec[1]
            lam = Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            window = [(-3, 3)]
            N, _ = scramble_module(build_Ms(s, lam, window), rng)

            def run():
                M = build_Ms(s, lam, window)
                return M, window_isomorphism(M, N)

            def check(out):
                M, phi = out
                return is_window_iso(phi, M, N)

            return Job(f"iso{s}", run, check)

        # a scrambled cross-block extension of two arity-2 simples; S is the image of the first
        orbit = Orbit.from_reps([0, 0])
        window = [(-1, 2)] * 2
        D1, D2 = rng.sample([(), (rng.randint(1, 2),)], 2)
        M1 = build_simple(DSet(orbit, D1), window)
        M2 = build_simple(DSet(orbit, D2), window)
        M, g = scramble_module(direct_sum_modules([M1, M2]), rng)
        S = {}
        for p in M.support():
            d1 = M1.dim(p)
            if d1:
                E = Mat.zero(M.dim(p), d1)
                for r in range(d1):
                    E.data[r][r] = ONE
                S[p] = g[p] @ E

        def run():
            return split_extension(M, S)

        def check(comp):
            if comp is None:
                return False
            for p in M.support():
                d = M.dim(p)
                C = comp.get(p, Mat(d, 0))
                s = S[p].cols if p in S else 0
                if s + C.cols != d:
                    return False
                if s and C.cols and oracle.rank(S[p].hstack(C)) != d:
                    return False
            for kind, i, p, q in generator_maps(M):
                Cp, Cq = comp.get(p), comp.get(q)
                if Cp is None or Cp.cols == 0:
                    continue
                img = M.map(kind, i, p) @ Cp
                if Cq is None or Cq.cols == 0:
                    if not img.is_zero():
                        return False
                elif oracle.rank(Cq.hstack(img)) != oracle.rank(Cq):
                    return False
            return True

        return Job("split", run, check)


# -- classification over Q and Q(i) ----------------------------------------

# Pencil shapes as (series, n); every S4 block draws a distinct eigenvalue.
# Shapes stop at d1 + d2 <= 6: a Q(i) pencil of dims (4,5) takes 34 s.
_PENCIL_SHAPES = (
    (("S2", 1), ("S4", 1)),
    (("S4", 1), ("S5", 1)),
    (("S3", 1), ("S4", 1)),
    (("S4", 2), ("S1", 0)),
)
_EIGENVALUES = {
    "q": tuple(Scalar(v) for v in (-2, -1, 1, 2, 3)),
    # off the real line, so splitting needs the Q(i) path
    "qi": (Scalar(0, 1), Scalar(0, -1), Scalar(1, 1), Scalar(1, -1), Scalar(0, 2), Scalar(-1, 1)),
}
# Bands stop at dimension 3 (word length times n): with a non-real parameter
# a dimension-4 band takes 0.7 s and a dimension-6 one 3-10 s.  The
# regular-summand test stays at dimension 4: over Q(i) it takes 1.2 s there
# and 2-8 s at dimensions 5-8.


def _is_iso(X, mats_m, mats_n) -> bool:
    """X intertwines the two one-space modules and is invertible."""
    if X is None:
        return False
    for A, B in zip(mats_m, mats_n):
        if oracle.product(X, A) != oracle.product(B, X):
            return False
    return oracle.rank(X) == X.rows


def _conjugate(mats, g: Mat):
    gi = invert(g)
    return tuple(g @ m @ gi for m in mats)


def _block_sum(mods):
    dim = sum(a.rows for a, _ in mods)
    H1, H2 = Mat.zero(dim, dim), Mat.zero(dim, dim)
    off = 0
    for a, b in mods:
        for r in range(a.rows):
            for c in range(a.rows):
                H1.data[off + r][off + c] = a.data[r][c]
                H2.data[off + r][off + c] = b.data[r][c]
        off += a.rows
    return H1, H2


# ("pencil", field, shape index) | ("regular", has_regular) | ("band_indec", word, n)
# | ("string_indec", word) | ("band_iso", isomorphic, word, n)
_CLASSIFICATION_STRATA = (
    ("pencil", "q", 0),
    ("pencil", "qi", 0),
    ("band_indec", (1, 1, 2), 1),
    ("pencil", "q", 1),
    ("band_iso", True, (1, 1, 2), 1),
    ("pencil", "qi", 1),
    ("string_indec", (1, 1, 2, 2)),
    ("regular", False),
    ("pencil", "q", 2),
    ("pencil", "qi", 2),
    ("band_iso", False, (1, 2, 2), 1),
    ("pencil", "q", 3),
    ("string_indec", (2, 1, 2, 1)),
    ("pencil", "qi", 3),
    ("band_indec", (1, 2, 2), 1),
)


class ClassificationQI(Workload):
    name = "classification_qi"
    # The positive regular-summand test takes 1.2 s, ten times the next
    # slowest job, so it comes once per two passes over the other strata.
    # Then p90 falls inside the tier of Q(i) pencils (0.2-0.3 s, a fifth of
    # the jobs) rather than in the sparse upper tail of that tier, where it
    # swung by 15% from run to run.
    cycle = _CLASSIFICATION_STRATA + (("regular", True),) + _CLASSIFICATION_STRATA
    warmup = (0, 1, 4)

    def operand(self, rng):
        return Fraction(rng.randint(-5, 5), rng.randint(1, 3)), Fraction(rng.randint(1, 5), rng.randint(1, 3))

    def make(self, spec, rng):
        kind = spec[0]
        if kind == "pencil":
            _, fname, shape = spec
            field = QQI if fname == "qi" else QQ
            shape = _PENCIL_SHAPES[shape]
            lams = iter(rng.sample(_EIGENVALUES[fname], 3))
            labels_in = [KroneckerBlockLabel(series, n, next(lams) if series == "S4" else None) for series, n in shape]
            S = kronecker_sum([kronecker_block(l) for l in labels_in])
            gaussian = field is QQI
            U = rand_invertible(S.d1, rng, gaussian)
            V = rand_invertible(S.d2, rng, gaussian)
            R = KroneckerRep(V @ S.A @ U, V @ S.B @ U)
            expected = sorted(labels_in, key=KroneckerBlockLabel.sort_key)

            def run():
                return kronecker_decompose_with_iso(R, field)

            def check(out):
                labels, P, Q = out
                if labels != expected:
                    return False
                can = kronecker_sum([kronecker_block(l) for l in labels])
                if oracle.rank(P) != R.d2 or oracle.rank(Q) != R.d1:
                    return False
                return oracle.product(R.A, Q) == oracle.product(P, can.A) and oracle.product(
                    R.B, Q
                ) == oracle.product(P, can.B)

            return Job(f"pencil_{fname}{spec[2]}", run, check)

        if kind == "regular":
            has_regular = spec[1]
            if has_regular:
                mods = [regular_A_module()]
            else:
                lam = Scalar(rng.choice((1, 2, -1)))
                mods = [
                    realize_A_member(AModuleDescriptor("string", rng.choice(("h1h2", "h2h1"))), field=QQI),
                    realize_A_member(AModuleDescriptor("band", "h1h2", 1), lam=lam, field=QQI),
                ]
            dim = sum(a.rows for a, _ in mods)
            H1, H2 = _conjugate(_block_sum(mods), rand_invertible(dim, rng, True))

            def run():
                return contains_regular_summand(H1, H2)

            return Job(f"regular_{has_regular}", run, lambda out: out is has_regular)

        if kind == "string_indec":
            word = spec[1]
            mats = _conjugate(string_module(word).matrices, rand_invertible(len(word) + 1, rng))
            return Job("string_indec", lambda: is_indecomposable(mats), lambda out: out is True)

        # a non-real band parameter puts the band's maps over Q(i)
        lam = Scalar(rng.choice((1, 2, -1)), rng.choice((1, -1)))
        if kind == "band_indec":
            _, word, n = spec
            mats = _conjugate(band_module(BandOrbit(word), n, lam).matrices, rand_invertible(n * len(word), rng))
            return Job("band_indec", lambda: is_indecomposable(mats), lambda out: out is True)

        # rotations of a band word give isomorphic bands; another parameter does not
        _, isomorphic, word, n = spec
        m = band_module(BandOrbit(word), n, lam).matrices
        other = word[1:] + word[:1] if isomorphic else word
        lam2 = lam if isomorphic else lam + ONE
        target = _conjugate(band_module(BandOrbit(other), n, lam2).matrices, rand_invertible(n * len(word), rng))

        def run():
            return modules_isomorphic(m, target)

        def check(X):
            return _is_iso(X, m, target) if isomorphic else X is None

        return Job(f"band_iso_{isomorphic}", run, check)


WORKLOADS = {w.name: w for w in (OperatorAlgebra, WeightModules, ClassificationQI)}
