"""Definitional references for annihilators, fibers and absolute primeness.

The library reads all three off `block_decompose`.  The functions here find
them the long way, from the definitions, for left windows whose integer
slots reach layer 0:

- `annihilator_dset` walks 1 - int_i d_i at every support point, slot by
  slot, and in strict mode checks that the socle action is that of a single
  block (the identity on layer 1 of each degenerate slot, zero elsewhere);
- `is_absolutely_prime_window` compares the annihilator of M with that of
  every cyclic submodule (`cyclic_closure`) and its quotient
  (`quotient_module`).

`restrict_to_bases` restricts a window to pointwise bases on its whole
quiver, one solve per point; the tests use it to check that bases span a
submodule and to read the submodule's maps.
"""

from typing import Dict, List

from intdiffops.linalg import Mat, column_space_basis, invert, rank, restrict
from intdiffops.modules import (
    AnnihilatorLabel,
    DomainError,
    Fiber,
    ModuleWindow,
    Point,
    _socle_projector,
    _unstable_target,
)
from intdiffops.scalars import ONE, ZERO


def restrict_to_bases(M: ModuleWindow, bases: Dict[Point, Mat]) -> ModuleWindow:
    """Submodule window in the coordinates of the given pointwise bases,
    restricted on every point's entries; a DomainError names the first
    point into which a generator maps the bases outside themselves."""
    pts, keys, rep = M.quiver()
    full = [bases.get(p, Mat(M.dim(p), 0)) for p in pts]
    sub = restrict(rep, full)
    if sub is None:
        q = _unstable_target(pts, rep, [full])
        raise DomainError(f"bases are not stable under the generators into {q}")
    spaces = {p: B.cols for p, B in bases.items() if B.cols > 0}
    maps = {key: f for key, (_, _, f) in zip(keys, sub.arrows) if key[2] in spaces}
    return ModuleWindow(M.orbit, M.window, spaces, maps, M.side)


def in_span(vec: Mat, basis: List[Mat]) -> bool:
    B = Mat.from_cols(basis, vec.rows)
    return rank(B.hstack(vec)) == rank(B)


def complete_basis(B: Mat) -> Mat:
    """The standard basis columns e_r outside the span of B and of the
    e's before them."""
    n = B.rows
    picked = []
    for r in range(n):
        e = Mat.col_vector([ONE if i == r else ZERO for i in range(n)])
        if not in_span(e, [Mat.col_vector(B.col(j)) for j in range(B.cols)] + picked):
            picked.append(e)
    return Mat.from_cols(picked, n)


def annihilator_dset(M: ModuleWindow, strict: bool = True):
    """Slots where the socle ideal acts nonzero, plus the annihilator label.

    With strict=True the per-slot behaviour must be block-consistent
    (projector equal to the identity exactly on first-layer points)."""
    active = set()
    for i in range(1, M.n + 1):
        seen = False
        nonzero = False
        for p in M.support():
            P = _socle_projector(M, i, p)
            if P is None:
                continue
            seen = True
            if not P.is_zero():
                nonzero = True
                if strict:
                    if not M.orbit.integer[i - 1]:
                        raise DomainError(f"socle action on non-integer slot {i} at {p}")
                    if p[i - 1] != 1 or not P.is_identity():
                        raise DomainError(
                            f"inconsistent socle action in slot {i} at {p}: module is not a single block"
                        )
        if not seen and M.support():
            lo = min(p[i - 1] for p in M.support())
            raise DomainError(f"window too small to probe slot {i}: extend slot interval below {lo}")
        if nonzero:
            active.add(i)
    if strict:
        for i in active:
            for p in M.support():
                if p[i - 1] < 1:
                    raise DomainError(f"slot {i} has socle action but support below 1 at {p}")
    comp = tuple(j for j in range(1, M.n + 1) if j not in active)
    return frozenset(active), AnnihilatorLabel(comp)


def fiber(M: ModuleWindow, p) -> Fiber:
    """The fiber at a support point, with the degenerate slots of the
    strict reference `annihilator_dset`."""
    p = tuple(p)
    if M.dim(p) == 0:
        raise DomainError(f"{p} is not a support point")
    active, _ = annihilator_dset(M)
    for i in active:
        if p[i - 1] != 1:
            raise DomainError(f"fiber point must have offset 1 in degenerate slot {i}")
    nondeg = [j for j in range(1, M.n + 1) if j not in active]
    center = [M.orbit.weight(j, p[j - 1]) for j in nondeg]
    return Fiber(nondeg, center, [M.map("H", j, p) for j in nondeg])


def cyclic_closure(M: ModuleWindow, p, v: Mat) -> Dict[tuple, Mat]:
    """Pointwise bases of the submodule generated by one vector."""
    spans: Dict[tuple, List[Mat]] = {q: [] for q in M.support()}
    spans[p].append(v)
    changed = True
    while changed:
        changed = False
        for q in M.support():
            for kind, i, t in M.arrows(q):
                if M.dim(t) == 0:
                    continue
                f = M.map(kind, i, q)
                for vec in list(spans[q]):
                    img = f @ vec
                    if not img.is_zero() and not in_span(img, spans[t]):
                        spans[t].append(img)
                        changed = True
    out = {}
    for q, vs in spans.items():
        basis = column_space_basis(vs, M.dim(q))
        if basis:
            out[q] = Mat.from_cols(basis, M.dim(q))
    return out


def quotient_module(M: ModuleWindow, S: Dict[tuple, Mat]) -> ModuleWindow:
    """Quotient of M by the stable pointwise subspaces S."""
    proj = {}
    spaces = {}
    for p in M.support():
        B = S.get(p, Mat(M.dim(p), 0))
        T = complete_basis(B)
        inv = invert(B.hstack(T))
        proj[p] = (T, inv.select_rows(range(B.cols, inv.rows)))
        if T.cols:
            spaces[p] = T.cols
    maps = {}
    for p in M.support():
        Tp, _ = proj[p]
        if Tp.cols == 0:
            continue
        for kind, i, q in M.arrows(p):
            if M.dim(q) == 0:
                maps[(kind, i, p)] = Mat.zero(0, Tp.cols)
                continue
            maps[(kind, i, p)] = proj[q][1] @ (M.map(kind, i, p) @ Tp)
    return ModuleWindow(M.orbit, M.window, spaces, maps, M.side)


def is_absolutely_prime_window(M: ModuleWindow) -> bool:
    """All window subfactors share the annihilator of M itself; a strict
    reference error on M or on any subfactor counts as False."""
    try:
        _, base = annihilator_dset(M)
    except DomainError:
        return False
    for p in M.support():
        for j in range(M.dim(p)):
            v = Mat.col_vector([ONE if r == j else ZERO for r in range(M.dim(p))])
            sub = cyclic_closure(M, p, v)
            try:
                if annihilator_dset(restrict_to_bases(M, sub))[1] != base:
                    return False
                qw = quotient_module(M, sub)
                if qw.spaces and annihilator_dset(qw)[1] != base:
                    return False
            except DomainError:
                return False
    return True
