"""`linalg.jordan_chains` against sympy's `Matrix.jordan_form`, the local
oracle: planted Jordan types in scrambled bases over Q and Q(i)."""

import random

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intdiffops.linalg import Mat, block_diag, invert, jordan_chains, rank
from intdiffops.scalars import ONE, ZERO, Scalar


def _cell(n, lam):
    return Mat(n, n, [[lam if c == r else ONE if c == r + 1 else ZERO for c in range(n)] for r in range(n)])


def _scramble(d, rng, gaussian):
    while True:
        m = Mat(d, d, [[Scalar(rng.randint(-2, 2), rng.randint(-1, 1) if gaussian else 0) for _ in range(d)] for _ in range(d)])
        if rank(m) == d:
            return m


def _to_sympy(M):
    return sympy.Matrix(
        M.rows, M.cols, [sympy.Rational(x.re.numerator, x.re.denominator) + sympy.I * sympy.Rational(x.im.numerator, x.im.denominator) for row in M.data for x in row]
    )


def _oracle_sizes(M):
    """The sizes of the Jordan cells of eigenvalue 0, from sympy's J."""
    J = _to_sympy(M).jordan_form(calc_transform=False)
    sizes, run = [], 0
    for i in range(M.rows):
        if J[i, i] == 0:
            run += 1
            if i + 1 == M.rows or J[i, i + 1] == 0:
                sizes.append(run)
                run = 0
    return sorted(sizes, reverse=True)


_LAMS = {"0": ZERO, "2": Scalar(2), "-1": Scalar(-1), "1-i": Scalar(1, -1)}


def _cells(gaussian):
    """Jordan cells (size, eigenvalue), 0 twice as likely as the others.
    sympy's jordan_form takes about 0.1 s on a scrambled Gaussian 2x2 but
    1.2-1.5 s on a 3x3 with one eigenvalue, so the Gaussian cases stop at
    size 2 (and one 3x3 is checked below)."""
    lams = ["0", "0", "2", "1-i"] if gaussian else ["0", "0", "2", "-1"]
    size = 2 if gaussian else 7
    return st.lists(st.tuples(st.integers(1, 3), st.sampled_from(lams)), min_size=1, max_size=4).filter(
        lambda cells: sum(n for n, _ in cells) <= size
    )


@given(st.booleans().flatmap(lambda gaussian: st.tuples(st.just(gaussian), _cells(gaussian))), st.integers(0, 2**16))
@settings(max_examples=30, deadline=None, derandomize=True)
@example((True, [(2, "0"), (1, "0")]), 1)
def test_chains_match_sympy_jordan_form(case, seed):
    gaussian, cells = case
    J = block_diag(*(_cell(n, _LAMS[lam]) for n, lam in cells))
    S = _scramble(J.rows, random.Random(seed), gaussian)
    M = S @ J @ invert(S)
    chains = jordan_chains(M)
    assert sorted((len(c) for c in chains), reverse=True) == [len(c) for c in chains] == _oracle_sizes(M)
    for chain in chains:
        assert (M @ chain[0]).is_zero()
        for lower, upper in zip(chain, chain[1:]):
            assert M @ upper == lower
    vectors = [x for chain in chains for x in chain]
    # independent, and as many as the generalized kernel's dimension
    assert rank(Mat(M.rows, 0).hstack(*vectors)) == len(vectors) == sum(n for n, lam in cells if lam == "0")


def test_zero_and_empty_matrices():
    assert jordan_chains(Mat(0, 0)) == []
    chains = jordan_chains(Mat.zero(2, 2))
    assert [[x.col(0) for x in c] for c in chains] == [[[ONE, ZERO]], [[ZERO, ONE]]]
    # an invertible matrix has no generalized kernel
    assert jordan_chains(Mat.identity(3)) == []
