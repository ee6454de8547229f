"""The integer form a Mat caches stays equal to its Scalars.

A Mat derives its integer form once and keeps it, so it may be written only
before its first use as an operand.  Under the `checked` fixture every read
of the integer form is compared with the form re-derived from `.data`; the
library workflows below must never trip it, and a deliberate late write must.
"""

import random

import pytest

from intdiffops.classify import (
    KroneckerBlockLabel,
    KroneckerRep,
    band_module,
    is_indecomposable,
    kronecker_block,
    kronecker_decompose_with_iso,
    kronecker_sum,
)
from intdiffops.linalg import Mat, _int_rows, block_diag, invert, rank
from intdiffops.modules import (
    DSet,
    ModuleWindow,
    Orbit,
    build_Ms,
    build_simple,
    decompose_weight,
    window_isomorphism,
)
from intdiffops.scalars import QQI, Scalar


@pytest.fixture
def checked(monkeypatch):
    derive = Mat._int

    def int_form(self):
        form = derive(self)
        assert form == _int_rows(self.data), "Mat written after its first use as an operand"
        return form

    monkeypatch.setattr(Mat, "_int", int_form)


def rand_invertible(d, rng, units=(Scalar(1), Scalar(-1))):
    entries = units + (Scalar(0), Scalar(2))
    while True:
        m = Mat(d, d, [[rng.choice(entries) for _ in range(d)] for _ in range(d)])
        if rank(m) == d:
            return m


def scramble(M, rng):
    g = {p: rand_invertible(M.dim(p), rng) for p in M.support()}
    maps = {}
    for (kind, slot, p), f in M.maps.items():
        q = M.target(kind, slot, p)
        maps[(kind, slot, p)] = g[q] @ f @ invert(g[p]) if q in g and f.rows else f
    return ModuleWindow(M.orbit, M.window, M.spaces, maps, M.side)


def test_scrambled_arity3_decomposition(checked):
    rng = random.Random(3)
    orbit = Orbit.from_reps([0, 0, 0])
    window = [(-1, 2)] * 3
    dsets = [(), (1,), (2, 3)]
    mods = [build_simple(DSet(orbit, D), window) for D in dsets]
    first = mods[0]
    spaces = {p: sum(m.dim(p) for m in mods) for p in set().union(*(m.spaces for m in mods))}
    maps = {}
    for p in spaces:
        for i in range(1, 4):
            for kind in ("d", "int", "H"):
                if first.in_window(first.target(kind, i, p)):
                    maps[(kind, i, p)] = block_diag(*(m.map(kind, i, p) for m in mods))
    M = scramble(ModuleWindow(orbit, window, spaces, maps, first.side), rng)
    out = decompose_weight(M)
    assert {tuple(sorted(ds.D)): k for ds, k in out.items()} == {D: 1 for D in dsets}


def test_window_isomorphism_of_Ms(checked):
    M = build_Ms(2, Scalar(1, 2), [(-3, 3)])
    N = scramble(M, random.Random(5))
    phi = window_isomorphism(M, N)
    assert phi is not None
    for (kind, slot, p), f in M.maps.items():
        q = M.target(kind, slot, p)
        if q in phi and p in phi:
            assert phi[q] @ f == N.maps[(kind, slot, p)] @ phi[p]


def test_gaussian_pencil_decomposition(checked):
    rng = random.Random(7)
    units = (Scalar(1), Scalar(-1), Scalar(0, 1), Scalar(0, -1))
    labels_in = [KroneckerBlockLabel("S4", 2, Scalar(1, 1)), KroneckerBlockLabel("S2", 1)]
    S = kronecker_sum([kronecker_block(l) for l in labels_in])
    U = rand_invertible(S.d1, rng, units)
    V = rand_invertible(S.d2, rng, units)
    R = KroneckerRep(V @ S.A @ U, V @ S.B @ U)
    labels, P, Q = kronecker_decompose_with_iso(R, QQI)
    assert labels == sorted(labels_in, key=KroneckerBlockLabel.sort_key)
    can = kronecker_sum([kronecker_block(l) for l in labels])
    assert R.A @ Q == P @ can.A and R.B @ Q == P @ can.B


def test_band_indecomposable(checked):
    b = band_module("h1h2", 2, Scalar(0, 1))
    assert is_indecomposable(b.matrices)


def test_late_write_is_caught(checked):
    A = Mat(2, 2, [[1, 2], [3, 4]])
    assert A @ A == Mat(2, 2, [[7, 10], [15, 22]])
    A.data[0][0] = Scalar(5)
    with pytest.raises(AssertionError, match="first use as an operand"):
        A @ A
