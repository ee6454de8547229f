"""`classify.min_poly` on one square Mat and on tuples of square blocks, and
the integer-form contract of the Krull-Schmidt splitter."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intdiffops import classify, linalg
from intdiffops.classify import (
    KroneckerBlockLabel,
    KroneckerRep,
    band_module,
    kronecker_block,
    kronecker_sum,
    min_poly,
    split_indecomposables,
    string_module,
)
from intdiffops.linalg import Mat, QuiverRep, block_diag, hom_space, invert, solve_linear
from intdiffops.poly import UniPoly
from intdiffops.scalars import ONE, QQ, QQI, ZERO, Scalar


def reference_min_poly(M: Mat) -> UniPoly:
    """The minimal polynomial as it was computed before the integer form:
    one `solve_linear` per degree on the Scalar entries of the powers."""
    d = M.rows
    if d == 0:
        return UniPoly.const(1)
    powers = [Mat.identity(d)]
    while True:
        k = len(powers)
        nxt = powers[-1] @ M
        cols = Mat(d * d, k, [[powers[j].data[r // d][r % d] for j in range(k)] for r in range(d * d)])
        target = Mat.col_vector([nxt.data[r // d][r % d] for r in range(d * d)])
        X = solve_linear(cols, target)
        if X is not None:
            coeffs = {k: ONE}
            for j in range(k):
                coeffs[j] = coeffs.get(j, ZERO) - X.data[j][0]
            return UniPoly(coeffs)
        powers.append(nxt)


BIG = 10**30


def _scalars(gaussian):
    part = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, BIG, BIG - 1]))
    if not gaussian:
        return part.map(Scalar)
    return st.builds(Scalar, part, part)


def _unit_triangular(d, rng, lower):
    return Mat(d, d, [[1 if r == c else rng.randint(-2, 2) if (r > c) == lower and r != c else 0
                       for c in range(d)] for r in range(d)])


@st.composite
def blocks(draw, gaussian):
    """A square block: dense with denominators up to 10**30, strictly upper
    triangular (nilpotent), or a sum of Jordan cells on a small shared pool
    of eigenvalues, possibly conjugated by a unimodular matrix."""
    d = draw(st.integers(0, 4))
    kind = draw(st.sampled_from(["dense", "nilpotent", "jordan"]))
    if kind == "dense":
        return Mat(d, d, [[draw(_scalars(gaussian)) for _ in range(d)] for _ in range(d)])
    if kind == "nilpotent":
        return Mat(d, d, [[draw(_scalars(gaussian)) if c > r else ZERO for c in range(d)] for r in range(d)])
    pool = [ZERO, ONE, Scalar(Fraction(-1, 2)), Scalar(Fraction(1, BIG))] + ([Scalar(0, 1)] if gaussian else [])
    cells = []
    left = d
    while left:
        n = draw(st.integers(1, left))
        cells.append(classify._jordan_block(n, draw(st.sampled_from(pool))))
        left -= n
    J = block_diag(*cells) if cells else Mat(0, 0)
    if d and draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 99)))
        g = _unit_triangular(d, rng, True) @ _unit_triangular(d, rng, False)
        J = g @ J @ invert(g)
    return J


block_tuples = st.booleans().flatmap(lambda gaussian: st.lists(blocks(gaussian), min_size=1, max_size=3))


@given(block_tuples)
@example([classify._jordan_block(2, ONE), Mat(0, 0), classify._jordan_block(1, ONE)])  # a shared eigenvalue
@example([Mat(0, 0), Mat(0, 0)])
@example([Mat(2, 2, [[0, 1], [0, 0]]), Mat(2, 2, [[Scalar(0, 1), 1], [0, Scalar(0, 1)]])])
@example([Mat(2, 2, [[Scalar(Fraction(1, BIG), 1), Fraction(3, BIG - 1)], [Scalar(2, -1), 0]])])
@settings(max_examples=60, deadline=None)
def test_min_poly_matches_the_reference_on_block_diag(bs):
    want = reference_min_poly(block_diag(*bs))
    assert min_poly(tuple(bs)) == want
    if len(bs) == 1:
        assert min_poly(bs[0]) == want


def _scrambled_pencil():
    labels = [
        KroneckerBlockLabel("S2", 1),
        KroneckerBlockLabel("S4", 2, Scalar(3)),
        KroneckerBlockLabel("S4", 1, Scalar(3)),
        KroneckerBlockLabel("S5", 1),
    ]
    S = kronecker_sum([kronecker_block(l) for l in labels])
    rng = random.Random(3)
    U, V = (_unit_triangular(d, rng, True) @ _unit_triangular(d, rng, False) for d in (S.d1, S.d2))
    return KroneckerRep(V @ S.A @ U, V @ S.B @ U), QQ


def _scrambled_gamma_module():
    # a string plus a band with a non-real parameter, on one space over Q(i)
    string, band = string_module("h1h2"), band_module("h1h2", 1, Scalar(1, 1))
    rng = random.Random(4)
    g = _unit_triangular(5, rng, True) @ _unit_triangular(5, rng, False)
    gi = invert(g)
    loops = [g @ block_diag(x, y) @ gi for x, y in zip(string.matrices, band.matrices)]
    return QuiverRep([5], [(0, 0, A) for A in loops]), QQI


@pytest.mark.parametrize("make", [_scrambled_pencil, _scrambled_gamma_module])
def test_splitter_stays_in_integer_form(make, monkeypatch):
    """On input whose integer form is already built, min_poly and
    split_indecomposables never go back to Scalars: no `_int_rows`, no
    `.data` read."""
    R, field = make()
    for _, _, f in R.arrows:
        f._int()
    end = hom_space(R, R)
    element = tuple(x + y for x, y in zip(end[0], end[-1]))

    def refuse(*_):
        raise AssertionError("Scalar round trip on the integer path")

    monkeypatch.setattr(linalg, "_int_rows", refuse)
    monkeypatch.setattr(Mat, "data", property(refuse))
    assert min_poly(element).degree() >= 1
    assert min_poly(element[-1]).degree() >= 1
    pieces = split_indecomposables(R, field)
    assert len(pieces) == (4 if field is QQ else 2)
    monkeypatch.undo()
    # the pieces are summands: every arrow maps each embedding into itself
    for piece, emb in pieces:
        for (s, t, f), (_, _, x) in zip(R.arrows, piece.arrows):
            assert f @ emb[s] == emb[t] @ x
