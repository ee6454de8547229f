"""Generalized weight modules over finite support windows.

A ModuleWindow stores, for a product of integer intervals in orbit
coordinates, the dimension of every (generalized) weight space and exact
matrices for the generators d_i (lowering slot i by one), int_i (raising)
and H_i (endomorphism of each space).  All constructions and decompositions
are window-relative: answers certified on the window, with the window
requirements surfaced explicitly when transport room is missing.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .linalg import (
    DomainError,
    ForestTransport,
    Mat,
    QuiverRep,
    _zeros,
    hom_space,
    kernel_basis,
    opposite_forest,
    restrict,
    retraction,
    rref,
    split,
)
from .local_ideals import LocalIdeal, MaxIdeal, quotient_basis
from .poly import MultiPoly
from .scalars import ONE, ZERO, Scalar

Point = Tuple[int, ...]
Window = Tuple[Tuple[int, int], ...]

# most points a window box given on the command line may hold.  Decomposing
# a window now costs time linear in its points (block-split of a 1,000-point
# Ms window with s = 3 takes about 0.02 s in `block_decompose` and 0.2 s as
# a whole `--json` CLI process on a 2-vCPU machine); a larger value waits
# until every window command has been timed at it.
MAX_WINDOW_POINTS = 1_000

# longest Ms module the command line may build.  Its weight spaces are
# s-dimensional, so window work grows like s^3 per point: at s = 30 on a
# 1,000-point window block-split takes about 4 s and `--json module-build`
# prints 14 MB on a 2-CPU machine.
MAX_MS_LENGTH = 30


# -- orbits and degeneracy sets --------------------------------------------


class Orbit:
    """A coset lambda + Z^n of weights, stored by canonical representatives.

    Integer slots carry representative 0; other slots carry the input value
    shifted by an integer so the real part lies in [0, 1).
    """

    __slots__ = ("reps", "integer")

    def __init__(self, reps: Sequence[Scalar], integer: Sequence[bool]):
        self.reps = tuple(reps)
        self.integer = tuple(integer)
        if len(self.reps) != len(self.integer):
            raise ValueError("orbit slot mismatch")

    @staticmethod
    def from_reps(values: Sequence) -> "Orbit":
        reps = []
        flags = []
        for v in values:
            s = Scalar.of(v)
            if s.is_integer():
                reps.append(ZERO)
                flags.append(True)
            else:
                # shifting the real part into [0, 1) keeps the triple normalized
                reps.append(Scalar.frac(s.nre % s.den, s.nim, s.den))
                flags.append(False)
        return Orbit(reps, flags)

    @property
    def n(self) -> int:
        return len(self.reps)

    def integer_slots(self) -> Tuple[int, ...]:
        return tuple(j for j, f in enumerate(self.integer, start=1) if f)

    def weight(self, slot: int, offset: int) -> Scalar:
        return self.reps[slot - 1] + offset

    def __eq__(self, other):
        return (
            isinstance(other, Orbit)
            and self.reps == other.reps
            and self.integer == other.integer
        )

    def __hash__(self):
        return hash((self.reps, self.integer))

    def __repr__(self):
        slots = ["Z" if f else str(r) for r, f in zip(self.reps, self.integer)]
        return f"Orbit({','.join(slots)})"


class DSet:
    """An orbit plus a chosen subset of its integer slots."""

    __slots__ = ("orbit", "D")

    def __init__(self, orbit: Orbit, D: Iterable[int]):
        self.orbit = orbit
        self.D = frozenset(D)
        allowed = set(orbit.integer_slots())
        if not self.D <= allowed:
            raise ValueError(
                f"degenerate slots {sorted(self.D - allowed)} are not integer slots"
            )

    @property
    def n(self) -> int:
        return self.orbit.n

    def complement(self) -> Tuple[int, ...]:
        return tuple(j for j in range(1, self.n + 1) if j not in self.D)

    def __eq__(self, other):
        return isinstance(other, DSet) and self.orbit == other.orbit and self.D == other.D

    def __hash__(self):
        return hash((self.orbit, self.D))

    def __repr__(self):
        return f"DSet({self.orbit!r}, D={sorted(self.D)})"


class AnnihilatorLabel(NamedTuple):
    """The annihilator prime: the sum of the slot primes listed."""

    prime_slots: Tuple[int, ...]

    @property
    def height(self) -> int:
        return len(self.prime_slots)

    def __repr__(self):
        if not self.prime_slots:
            return "Ann(0)"
        return "Ann(" + "+".join(f"p_{j}" for j in self.prime_slots) + ")"


class Fiber:
    """Finite-dimensional module over the polynomial part at one weight:
    commuting matrices A_j with A_j - mu_j nilpotent."""

    def __init__(self, slots: Sequence[int], center: Sequence, matrices: Sequence[Mat]):
        self.slots = tuple(slots)
        self.center = tuple(Scalar.of(c) for c in center)
        self.matrices = tuple(matrices)
        if not (len(self.slots) == len(self.center) == len(self.matrices)):
            raise ValueError("fiber slot data mismatch")
        d = self.matrices[0].rows if self.matrices else 1
        self.dim = d
        for A in self.matrices:
            if A.shape != (d, d):
                raise ValueError("fiber matrices must be square of equal size")
        for a in range(len(self.matrices)):
            for b in range(a + 1, len(self.matrices)):
                if self.matrices[a] @ self.matrices[b] != self.matrices[b] @ self.matrices[a]:
                    raise DomainError("fiber matrices do not commute")
        for A, mu in zip(self.matrices, self.center):
            N = A - Mat.scalar(d, mu)
            P = Mat.identity(d)
            for _ in range(d):
                P = P @ N
            if not P.is_zero():
                raise DomainError("fiber matrix is not nilpotent around its center")

    @property
    def k(self) -> int:
        return len(self.slots)

    def __repr__(self):
        return f"Fiber(slots={self.slots}, dim={self.dim})"


# -- module windows ---------------------------------------------------------


class ModuleWindow:
    """A generalized weight module restricted to a finite window."""

    def __init__(
        self,
        orbit: Orbit,
        window: Window,
        spaces: Dict[Point, int],
        maps: Dict[Tuple[str, int, Point], Mat],
        side: str = "left",
    ):
        if len(window) != orbit.n:
            raise ValueError("window arity mismatch")
        if side not in ("left", "right"):
            raise ValueError("side must be left or right")
        self.orbit = orbit
        self.window = tuple((int(a), int(b)) for a, b in window)
        for a, b in self.window:
            if a > b:
                raise ValueError("empty window interval")
        self.spaces = {tuple(p): int(d) for p, d in spaces.items() if d > 0}
        for p in self.spaces:
            if not self.in_window(p):
                raise ValueError(f"support point {p} outside window")
        self.maps = dict(maps)
        self.side = side
        self._validate_shapes()

    @staticmethod
    def _trusted(orbit: Orbit, window: Window, spaces: Dict[Point, int], maps, side: str) -> "ModuleWindow":
        """A window on positive spaces at points inside it and maps of the
        right shapes, taken as they are: the form a decomposition builds its
        pieces in."""
        M = object.__new__(ModuleWindow)
        M.orbit, M.window, M.spaces, M.maps, M.side = orbit, window, spaces, maps, side
        return M

    # -- geometry ------------------------------------------------------

    @property
    def n(self) -> int:
        return self.orbit.n

    def in_window(self, p: Point) -> bool:
        return all(a <= x <= b for x, (a, b) in zip(p, self.window))

    def points(self) -> Iterable[Point]:
        return product(*[range(a, b + 1) for a, b in self.window])

    def dim(self, p: Point) -> int:
        return self.spaces.get(tuple(p), 0)

    def support(self) -> List[Point]:
        return sorted(self.spaces)

    def total_dim(self) -> int:
        return sum(self.spaces.values())

    def weight(self, p: Point) -> Tuple[Scalar, ...]:
        return tuple(self.orbit.weight(j, p[j - 1]) for j in range(1, self.n + 1))

    @staticmethod
    def shift(p: Point, slot: int, d: int) -> Point:
        q = list(p)
        q[slot - 1] += d
        return tuple(q)

    def target(self, kind: str, slot: int, p: Point) -> Point:
        if kind == "H":
            return tuple(p)
        d = -1 if kind == "d" else 1
        if self.side == "right":
            d = -d
        return self.shift(p, slot, d)

    def arrows(self, p: Point) -> Iterator[Tuple[str, int, Point]]:
        """(kind, slot, target) of every generator map at p whose target
        lies in the window; slots in order, d, int, H within a slot."""
        for i in range(1, self.n + 1):
            for kind in ("d", "int", "H"):
                q = self.target(kind, i, p)
                if self.in_window(q):
                    yield kind, i, q

    def quiver(self) -> Tuple[List[Point], List[Tuple[str, int, Point]], QuiverRep]:
        """The window as a quiver representation: one vertex per point of
        sorted(points()), one arrow per generator map of `arrows(p)` in that
        order, and the (kind, slot, p) key of each arrow."""
        pts = sorted(self.points())
        index = {p: v for v, p in enumerate(pts)}
        dims = [self.spaces.get(p, 0) for p in pts]
        up = -1 if self.side == "right" else 1
        steps = (("d", -up), ("int", up), ("H", 0))
        get = self.maps.get
        keys, arrows = [], []
        for v, p in enumerate(pts):
            for j in range(self.n):
                for kind, step in steps:
                    # a shifted point is in the window exactly when it is a vertex
                    w = index.get(p[:j] + (p[j] + step,) + p[j + 1 :]) if step else v
                    if w is None:
                        continue
                    key = (kind, j + 1, p)
                    f = get(key)
                    keys.append(key)
                    # no caller writes a quiver's maps, so a missing one may be a shared-row zero
                    arrows.append((v, w, _zeros(dims[w], dims[v]) if f is None else f))
        return pts, keys, QuiverRep(dims, arrows)

    def map(self, kind: str, slot: int, p: Point) -> Mat:
        """Generator matrix at p; a shaped zero when nothing is stored."""
        p = tuple(p)
        m = self.maps.get((kind, slot, p))
        if m is not None:
            return m
        q = self.target(kind, slot, p)
        return Mat.zero(self.dim(q) if self.in_window(q) else 0, self.dim(p))

    def _validate_shapes(self):
        for (kind, slot, p), m in self.maps.items():
            if kind not in ("d", "int", "H"):
                raise ValueError(f"unknown generator kind {kind!r}")
            if not 1 <= slot <= self.n:
                raise ValueError(f"slot {slot} out of range")
            q = self.target(kind, slot, p)
            if not self.in_window(p) or not self.in_window(q):
                raise ValueError(f"map at {p} leaves the window")
            if m.shape != (self.dim(q), self.dim(p)):
                raise ValueError(
                    f"map {kind}_{slot} at {p}: shape {m.shape}, expected "
                    f"({self.dim(q)}, {self.dim(p)})"
                )

    # -- structural checks --------------------------------------------

    def relation_violations(self) -> List[str]:
        """Defining relations as matrix identities on interior points.  A
        right window is checked as the left window `dualize` makes of it,
        as the involution maps the defining relations onto one another; the
        messages then name that left window's generators."""
        if self.side != "left":
            return dualize(self).relation_violations()
        out = []
        for p in self.support():
            d = self.dim(p)
            idm = Mat.identity(d)
            for i in range(1, self.n + 1):
                up = self.shift(p, i, 1)
                dn = self.shift(p, i, -1)
                if self.in_window(up):
                    DI = self.map("d", i, up) @ self.map("int", i, p)
                    if DI != idm:
                        out.append(f"d_{i} int_{i} != id at {p}")
                    lhs = self.map("H", i, up) @ self.map("int", i, p) - self.map(
                        "int", i, p
                    ) @ self.map("H", i, p)
                    if lhs != self.map("int", i, p):
                        out.append(f"[H_{i}, int_{i}] != int_{i} at {p}")
                if self.in_window(dn):
                    lhs = self.map("H", i, dn) @ self.map("d", i, p) - self.map(
                        "d", i, p
                    ) @ self.map("H", i, p)
                    if lhs != -self.map("d", i, p):
                        out.append(f"[H_{i}, d_{i}] != -d_{i} at {p}")
                    proj = idm - self.map("int", i, dn) @ self.map("d", i, p)
                    if self.map("H", i, p) @ proj != proj or proj @ self.map(
                        "H", i, p
                    ) != proj:
                        out.append(f"H_{i}(1 - int_{i} d_{i}) != 1 - int_{i} d_{i} at {p}")
                # cross-slot commutation
                for j in range(i + 1, self.n + 1):
                    for ki in ("d", "int", "H"):
                        for kj in ("d", "int", "H"):
                            qi = self.target(ki, i, p)
                            qj = self.target(kj, j, p)
                            if not (self.in_window(qi) and self.in_window(qj)):
                                continue
                            a = self.map(ki, i, qj) @ self.map(kj, j, p)
                            b = self.map(kj, j, qi) @ self.map(ki, i, p)
                            if a != b:
                                out.append(f"{ki}_{i} and {kj}_{j} do not commute at {p}")
        return out

    def is_weight(self) -> Tuple[bool, Optional[Point]]:
        """True when every H_i acts as its weight scalar at every point."""
        for p in self.support():
            for i in range(1, self.n + 1):
                if self.map("H", i, p).scalar_value() != self.orbit.weight(i, p[i - 1]):
                    return False, p
        return True, None

    def __eq__(self, other):
        if not isinstance(other, ModuleWindow):
            return NotImplemented
        if (
            self.orbit != other.orbit
            or self.window != other.window
            or self.spaces != other.spaces
            or self.side != other.side
        ):
            return False
        return all(
            self.map(kind, i, p) == other.map(kind, i, p)
            for p in self.support()
            for kind, i, _ in self.arrows(p)
        )

    def __repr__(self):
        return (
            f"ModuleWindow(orbit={self.orbit!r}, window={self.window}, "
            f"total_dim={self.total_dim()}, side={self.side})"
        )


def _parse_window(window, n: int) -> Window:
    w = tuple((int(a), int(b)) for a, b in window)
    if len(w) != n:
        raise ValueError("window arity mismatch")
    return w


# -- constructions ----------------------------------------------------------


def induce(fiber: Fiber, dset: DSet, window) -> ModuleWindow:
    """Window slice of the module induced from a fiber: polynomial slots for
    the degenerate directions, identity transports elsewhere, and the fiber
    matrices (recentred per weight) for the H-action."""
    orbit = dset.orbit
    n = orbit.n
    w = _parse_window(window, n)
    deg = sorted(dset.D)
    nondeg = [j for j in range(1, n + 1) if j not in dset.D]
    if tuple(fiber.slots) != tuple(nondeg):
        raise DomainError(
            f"fiber slots {fiber.slots} do not match non-degenerate slots {tuple(nondeg)}"
        )
    offset0 = {}
    for j, mu in zip(fiber.slots, fiber.center):
        diff = mu - orbit.reps[j - 1]
        if not diff.is_integer():
            raise DomainError(f"fiber center at slot {j} is outside the orbit")
        offset0[j] = diff.nre
    d = fiber.dim
    spaces: Dict[Point, int] = {}
    for p in product(*[range(a, b + 1) for a, b in w]):
        if all(p[i - 1] >= 1 for i in deg):
            spaces[p] = d
    M = ModuleWindow(orbit, w, spaces, {})
    maps = M.maps
    idm = Mat.identity(d)
    nil = {
        j: A - Mat.scalar(d, mu)
        for j, mu, A in zip(fiber.slots, fiber.center, fiber.matrices)
    }
    for p in spaces:
        for i in range(1, n + 1):
            up = ModuleWindow.shift(p, i, 1)
            dn = ModuleWindow.shift(p, i, -1)
            if i in dset.D:
                maps[("H", i, p)] = Mat.scalar(d, p[i - 1])
                if M.in_window(up):
                    maps[("int", i, p)] = idm
                if M.in_window(dn):
                    maps[("d", i, p)] = idm if dn[i - 1] >= 1 else Mat.zero(0, d)
            else:
                wgt = orbit.weight(i, p[i - 1])
                maps[("H", i, p)] = Mat.scalar(d, wgt) + nil[i]
                if M.in_window(up):
                    maps[("int", i, p)] = idm
                if M.in_window(dn):
                    maps[("d", i, p)] = idm
    M._validate_shapes()
    return M


def build_simple(dset: DSet, window) -> ModuleWindow:
    """The simple weight module labeled by a degeneracy set."""
    nondeg = [j for j in range(1, dset.n + 1) if j not in dset.D]
    center = [dset.orbit.reps[j - 1] for j in nondeg]
    fiber = Fiber(nondeg, center, [Mat.scalar(1, c) for c in center])
    return induce(fiber, dset, window)


def build_Ms(s: int, lam, window) -> ModuleWindow:
    """Arity-1 indecomposable generalized weight module of length s with
    every weight space s-dimensional."""
    if s <= 0:
        raise DomainError("length parameter must be positive")
    lam = Scalar.of(lam)
    orbit = Orbit.from_reps([lam])
    ideal = LocalIdeal.from_shifted(
        MaxIdeal([orbit.reps[0]]), s, [MultiPoly.var(1, 1) ** s]
    )
    return build_V(ideal, DSet(orbit, []), window)


def build_V(ideal: LocalIdeal, dset: DSet, window) -> ModuleWindow:
    """Induced module with fiber D_k/I (regular action)."""
    nondeg = [j for j in range(1, dset.n + 1) if j not in dset.D]
    if ideal.n != len(nondeg):
        raise DomainError(
            f"ideal arity {ideal.n} does not match {len(nondeg)} non-degenerate slots"
        )
    for j, mu in zip(nondeg, ideal.center.center):
        rep = dset.orbit.reps[j - 1]
        if not (mu - rep).is_integer():
            raise DomainError(f"ideal center at slot {j} is outside the orbit")
    qb = quotient_basis(ideal)
    mats = []
    for r, j in enumerate(nondeg, start=1):
        mu = ideal.center.center[r - 1]
        mats.append(qb.multiplication_matrix(r) + Mat.scalar(qb.dim, mu))
    fiber = Fiber(nondeg, ideal.center.center, mats)
    return induce(fiber, dset, window)


def support(M: ModuleWindow) -> List[Point]:
    return M.support()


def is_equidimensional(M: ModuleWindow) -> bool:
    dims = set(M.spaces.values())
    return len(dims) <= 1


class SupportProfile(NamedTuple):
    """Finite description of a module's support for generation tests:
    how many orbits meet the support, and a uniform weight-space bound."""

    orbit_count: Optional[int]  # None means infinitely many orbits
    dim_bound: Optional[int]  # None means unbounded dimensions


def finitely_generated(profile: SupportProfile) -> bool:
    return profile.orbit_count is not None and profile.dim_bound is not None


# -- annihilators and decomposition -----------------------------------------


def _socle_projector(M: ModuleWindow, slot: int, p: Point) -> Optional[Mat]:
    """Matrix of 1 - int_i d_i at p of a left window, or None when the
    window lacks room."""
    dn = ModuleWindow.shift(p, slot, -1)
    if not M.in_window(dn):
        return None
    d = M.dim(p)
    return Mat.scalar(d, ONE) - M.map("int", slot, dn) @ M.map("d", slot, p)


def annihilator_dset(M: ModuleWindow, strict: bool = True) -> Tuple[FrozenSet[int], AnnihilatorLabel]:
    """The degenerate slots of M, plus the annihilator label of the rest.

    The slots are the union of the D of the blocks of `block_decompose`,
    read at the roots of the contracted forest with no block built, so the
    window must reach down to layer 0 in each integer slot; a zero module
    has none.  With strict=True, M must be a single block: more than one
    nonempty block is a DomainError naming their labels."""
    labels = _block_labels(M)
    if strict and len(labels) > 1:
        raise DomainError(
            "module is not a single block: it has the blocks "
            + ", ".join(f"D={sorted(D)}" for D in labels)
        )
    active = frozenset().union(*labels)
    return active, AnnihilatorLabel(tuple(j for j in range(1, M.n + 1) if j not in active))


def _unstable_target(pts: List[Point], rep: QuiverRep, parts: Sequence[Sequence[Mat]]) -> Optional[Point]:
    """The first point into which some generator maps a part's basis
    outside that part's basis there, or None when every part is stable."""
    into = (QuiverRep(rep.dims, [a for a in rep.arrows if a[1] == v]) for v in range(len(pts)))
    return next((q for q, R in zip(pts, into) if any(restrict(R, full) is None for full in parts)), None)


def _socle_unit(M: ModuleWindow, slot: int, p: Point, memo: Dict[Point, Mat]) -> Mat:
    """Window matrix at the support point p of the diagonal socle unit at
    layer p_slot: zero below layer 1, 1 - int d on layer 1, and above it
    int P(p - e_slot) d, walked down the slot to the first point known in
    `memo` and back up, keeping every point it passes in `memo`."""
    chain = []
    while p not in memo:
        c = p[slot - 1]
        if c < 1:
            memo[p] = _zeros(M.dim(p), M.dim(p))
        elif M.window[slot - 1][0] > 0:
            raise DomainError(
                f"window too small for socle transport in slot {slot}: "
                f"extend the slot interval down to 0"
            )
        elif c == 1:
            memo[p] = _socle_projector(M, slot, p)
        else:
            # the layer below is in the window; off the support the chain is zero
            q = ModuleWindow.shift(p, slot, -1)
            if M.dim(q):
                chain.append(p)
                p = q
                continue
            memo[p] = _zeros(M.dim(p), M.dim(p))
    P = memo[p]
    for r in reversed(chain):
        q = ModuleWindow.shift(r, slot, -1)
        P = memo[r] = M.map("int", slot, q) @ P @ M.map("d", slot, r)
    return P


def _root_bases(M: ModuleWindow, p: Point, memos: Dict[int, Dict[Point, Mat]]) -> Dict[Tuple[int, ...], Mat]:
    """The basis of every block at p, keyed by D: the pivot columns of
    P_D = F_1 F_2 ... with F_i = P_i for i in D and I - P_i otherwise,
    P_i the socle unit of slot i (`_socle_unit`).  The P_D are the leaves
    of a prefix tree walked slot by slot in order: each prefix product is
    extended by both factors of the next slot.  A prefix whose product is
    zero is dropped with its whole subtree, and a slot whose P_i is 0 or
    the identity extends each prefix without a product."""
    I = Mat.scalar(M.dim(p), ONE)
    prefixes: List[Tuple[Tuple[int, ...], Optional[Mat]]] = [((), None)]
    for i, memo in memos.items():
        Pi = _socle_unit(M, i, p, memo)
        # a factor pair (0, I) or (I, 0) extends each prefix by its product alone
        if Pi.is_zero():
            continue
        if Pi.is_identity():
            prefixes = [(D + (i,), Q) for D, Q in prefixes]
            continue
        factors = (((i,), Pi), ((), I - Pi))
        grown = []
        for D, Q in prefixes:
            for e, F in factors:
                QF = F if Q is None else Q @ F
                if not QF.is_zero():
                    grown.append((D + e, QF))
        prefixes = grown
    return {D: I if Q is None else Q.select_cols(rref(Q)[1]) for D, Q in prefixes}


def _contract_blocks(
    M: ModuleWindow, pts: List[Point], rep: QuiverRep
) -> Tuple[List[Tuple[int, ...]], ForestTransport, List[List[Mat]], List[QuiverRep]]:
    """The blocks of the left window M with quiver (pts, rep), on the
    window's contraction: their D in block order, the transport, each
    block's basis at every vertex of the contraction, and the blocks as
    pieces of the contraction (`linalg.split`).

    The bases come from the projectors at the roots of the window's
    `opposite_forest` (`_root_bases`).  Only the trees whose root holds two
    or more blocks are carried: the others are cut into single points,
    each holding its tree's one block whole, so they keep the window's own
    coordinates and need no product.  Every listed block holds a basis at
    some root, so none is empty."""
    order, up = opposite_forest(rep)
    dd = M.orbit.integer_slots()
    memos: Dict[int, Dict[Point, Mat]] = {i: {} for i in dd}
    roots = {r: _root_bases(M, pts[r], memos) for r in order if up[r] is None and rep.dims[r]}
    blocks = [D for r in range(len(dd) + 1) for D in combinations(dd, r) if any(D in at for at in roots.values())]
    for r, at in roots.items():
        c = sum(B.cols for B in at.values())
        if c != rep.dims[r]:
            raise DomainError(f"projector split does not exhaust the space at {pts[r]}: {c} of {rep.dims[r]}")
    # the one block of every point of a tree whose root holds one
    held = {}
    for v in order:
        if up[v] is None:
            if len(roots.get(v, ())) == 1:
                held[v] = next(iter(roots[v]))
        elif up[v][0] in held:
            held[v] = held[up[v][0]]
    transport = ForestTransport(rep, (order, [None if v in held else link for v, link in enumerate(up)]))
    # one identity and one empty basis per dimension, shared
    ident = {d: Mat.scalar(d, ONE) for d in set(rep.dims)}
    empty = {d: _zeros(d, 0) for d in ident}
    index = {D: k for k, D in enumerate(blocks)}
    parts = [[empty[rep.dims[r]] for r in transport.roots] for _ in blocks]
    for i, r in enumerate(transport.roots):
        if r in roots:
            for D, B in roots[r].items():
                parts[index[D]][i] = B
        elif r in held:
            parts[index[held[r]]][i] = ident[rep.dims[r]]
    pieces = split(transport.contracted(), parts)
    if pieces is None:
        q = _unstable_target(pts, rep, [transport.expand_map(part) for part in parts])
        raise DomainError(f"bases are not stable under the generators into {q}")
    return blocks, transport, parts, pieces


def _block_labels(M: ModuleWindow) -> List[Tuple[int, ...]]:
    """The D of the blocks of M, in block order, with no block built; a
    right window's are those of the left window `dualize` makes of it."""
    if M.side == "right":
        M = dualize(M)
    pts, _, rep = M.quiver()
    return _contract_blocks(M, pts, rep)[0]


def block_decompose(M: ModuleWindow) -> List[Tuple[DSet, ModuleWindow]]:
    """Split a window into its degeneracy-labeled blocks by exact projectors.

    At each support point the transported socle projectors P_i of the
    integer slots commute, and the block of D is the image of
    P_D = F_1 F_2 ... with F_i = P_i for i in D and I - P_i otherwise.

    Off the degenerate layer, d_i and int_i are mutually inverse maps
    between neighbouring weight spaces, and every block commutes with them.
    So a block's basis at one point fixes it along a whole chain of such
    pairs.  The window's quiver gets a spanning forest of opposite pairs
    (`linalg.opposite_forest`), and projectors, prefix products and pivot
    columns (`_root_bases`) are computed at its roots only.  Each P_i comes
    from the one a layer below (`_socle_unit`), kept across roots.
    `linalg.ForestTransport` contracts the window to those roots, and
    `linalg.split` splits the contraction by the blocks' bases there,
    checking that every arrow is block-diagonal; `expand_rep` takes each
    piece back to the window as one block per D.  At a non-root point of a
    tree with two or more blocks, a block's basis is thus its root basis
    carried along the tree, U_v T_r, not the pivot columns of P_D there; it
    spans the same space, as P_D commutes with the generators.  A tree with
    one block is not carried: each of its points keeps the window's own
    coordinates (`_contract_blocks`).  An H_i of a weight module is a loop
    c*I, which the contraction drops and `expand_rep` rebuilds as c*I of
    the block's size, with no product.  `decompose_weight`,
    `annihilator_dset` and `is_absolutely_prime_window` stop at the split
    and build no block window.  On the 280 windows of the first 400 jobs of
    a seed-7 `weight_modules` bench run this makes 134.7 products per
    decomposition, 7.2 of them for projectors, and 1.7 inversions, as many
    as when the transport checked the blocks itself; the contraction keeps
    84.5 of the window's 298.6 arrows, on 27.1 of its 41.7 points.

    A right window is decomposed as the left window `dualize` makes of it:
    the blocks are the same subspaces, with the same labels, since
    m (int_i d_i) = (int_i d_i) m under the involution.  Blocks come
    ordered by |D|, then as `combinations` lists them.
    """
    if M.side == "right":
        return [(D, dualize(sub)) for D, sub in block_decompose(dualize(M))]
    pts, keys, rep = M.quiver()
    order, transport, _, pieces = _contract_blocks(M, pts, rep)
    blocks = []
    for D, piece in zip(order, pieces):
        sub = transport.expand_rep(piece)
        spaces = {p: d for p, d in zip(pts, sub.dims) if d}
        maps = {key: f for key, (_, _, f) in zip(keys, sub.arrows) if key[2] in spaces}
        blocks.append((DSet(M.orbit, D), ModuleWindow._trusted(M.orbit, M.window, spaces, maps, M.side)))
    return blocks


def decompose_weight(M: ModuleWindow) -> Dict[DSet, int]:
    """Multiset of simple labels of a weight module window, read off the
    block dimensions at the vertices of the window's contraction with no
    block window built: a carried point has its root's block dimensions,
    so a block is equidimensional exactly when its nonzero dimensions
    there agree, and that dimension is its multiplicity.  Each H_i loop's
    scalar is read once (`QuiverRep.scalars`), for the weight test and for
    the contraction, which drops it."""
    L = dualize(M) if M.side == "right" else M
    pts, keys, rep = L.quiver()
    for j, c in rep.scalars.items():
        _, i, p = keys[j]
        if c != M.orbit.weight(i, p[i - 1]):
            raise DomainError(f"module is not a weight module at point {p}")
    order, _, parts, _ = _contract_blocks(L, pts, rep)
    out: Dict[DSet, int] = {}
    for D, part in zip(order, parts):
        dset = DSet(M.orbit, D)
        dims = {B.cols for B in part} - {0}
        if len(dims) > 1:
            raise DomainError(f"block {dset!r} is not equidimensional")
        out[dset] = dims.pop()
    return out


def fiber(M: ModuleWindow, p: Point) -> Fiber:
    """The finite-dimensional fiber datum at a support point.

    M must be a single block, read by `annihilator_dset`, so the window
    must reach down to layer 0 in each integer slot; p must sit on the
    first layer (offset 1) of every degenerate slot."""
    p = tuple(p)
    if M.dim(p) == 0:
        raise DomainError(f"{p} is not a support point")
    active, _ = annihilator_dset(M)
    for i in active:
        if p[i - 1] != 1:
            raise DomainError(
                f"fiber point must have offset 1 in degenerate slot {i}"
            )
    nondeg = [j for j in range(1, M.n + 1) if j not in active]
    center = [M.orbit.weight(j, p[j - 1]) for j in nondeg]
    mats = [M.map("H", j, p) for j in nondeg]
    return Fiber(nondeg, center, mats)


def dualize(M: ModuleWindow) -> ModuleWindow:
    """The same spaces viewed as a right module: m * a := a-involuted * m.

    Generator maps swap roles (d acts by the stored int map and vice versa);
    supports are untouched and dualizing twice is the identity."""
    maps = {}
    swap = {"d": "int", "int": "d", "H": "H"}
    for (kind, slot, p), m in M.maps.items():
        maps[(swap[kind], slot, p)] = m
    side = "right" if M.side == "left" else "left"
    return ModuleWindow(M.orbit, M.window, M.spaces, maps, side)


# -- homomorphisms, extensions, isomorphism ---------------------------------


def hom_basis(M: ModuleWindow, N: ModuleWindow) -> List[Dict[Point, Mat]]:
    """Basis of the space of window module maps M -> N.

    The window quivers of M and N are contracted along one
    `opposite_forest` that both admit (`ForestTransport.contracted`), their
    Hom space is solved at the roots, and each basis element X is expanded
    to phi_v = U^N_v X_r (U^M_v)^-1 at every point v of a tree with root
    r."""
    if M.orbit != N.orbit or M.window != N.window or M.side != N.side:
        raise DomainError("modules live on different windows")
    pts, _, rep_m = M.quiver()
    rep_n = N.quiver()[2]
    forest = opposite_forest(rep_m, rep_n)
    tm, tn = ForestTransport(rep_m, forest), ForestTransport(rep_n, forest)
    return [dict(zip(pts, tn.expand_map(X, tm))) for X in hom_space(tm.contracted(tn), tn.contracted(tm))]


def window_isomorphism(M: ModuleWindow, N: ModuleWindow) -> Optional[Dict[Point, Mat]]:
    """An invertible window module map M -> N, or None; decided on the
    window quivers contracted along M's opposite forest
    (`classify.isomorphism`)."""
    # classify imports this module, so the import waits for the call
    from .classify import isomorphism

    if M.orbit != N.orbit or M.window != N.window or M.side != N.side:
        return None
    pts, _, rep_m = M.quiver()
    blocks = isomorphism(rep_m, N.quiver()[2])
    return None if blocks is None else dict(zip(pts, blocks))


def split_extension(
    M: ModuleWindow, S: Dict[Point, Mat]
) -> Optional[Dict[Point, Mat]]:
    """Complement of a generator-stable submodule, or None when none exists.

    S maps support points to column bases of the subspaces.  The window
    quiver is contracted along its `opposite_forest`.  S must be carried
    by the trees: at each point v of a tree with root r, U_v S_r spans S_v
    with as many columns.  Restricted to the roots, S must be stable under
    the contracted arrows; then S is a submodule, and a module retraction
    M -> S is found at the roots, in the Hom space of the contracted
    representations, by `linalg.retraction`.  The complement at v is U_v
    ker rho_r.  A refusal names the first point into which a generator
    maps S outside itself (`_unstable_target`), and a None is confirmed
    by that check too, as the carried test cannot tell a dependent basis
    from an unstable one."""
    Ssub = {p: B for p, B in S.items() if B.cols > 0}
    for p, B in Ssub.items():
        if B.rows != M.dim(p):
            raise DomainError(f"submodule basis at {p} has wrong height")
    pts, _, rep = M.quiver()
    transport = ForestTransport(rep, opposite_forest(rep))
    full = [Ssub.get(p, Mat(d, 0)) for p, d in zip(pts, rep.dims)]
    C = transport.contracted()
    at_roots = [full[r] for r in transport.roots]
    sub = restrict(C, at_roots) if transport.carries(full) else None
    rho = None if sub is None else retraction(hom_space(C, sub), at_roots)
    if rho is None:
        q = _unstable_target(pts, rep, [full])
        if q is not None:
            raise DomainError(f"bases are not stable under the generators into {q}")
        return None
    kernels = [Mat.from_cols(kernel_basis(r), d) for r, d in zip(rho, C.dims)]
    return dict(zip(pts, transport.expand_map(kernels)))


# -- absolute primeness ------------------------------------------------------


def is_absolutely_prime_window(M: ModuleWindow) -> bool:
    """Whether M is nonzero and all its window subfactors share one
    annihilator: exactly when M is a single nonempty block.  The projector
    P_D of a block is a product of transported 1 - int_i d_i, so it acts on
    every subfactor of the block as the identity, and D is read off each
    subfactor as off the block.  The window must reach down to layer 0 in
    each integer slot, as for `block_decompose`; a window that does not
    raises DomainError rather than answering False."""
    return len(_block_labels(M)) == 1
