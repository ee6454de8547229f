"""The sparse kernel of `linalg`, the package's one elimination kernel,
against sympy's sparse `DomainMatrix` nullspace over Q and Q(i) as an
independent reference; `kernel_basis` and `rref` as its column and
reduced-row views; and the Hom systems that use it."""

import os
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from intdiffops.classify import (
    KroneckerBlockLabel,
    KroneckerRep,
    band_module,
    kronecker_block,
    kronecker_decompose_with_iso,
    kronecker_sum,
)
from intdiffops.linalg import (
    BlockSystem,
    Mat,
    _sparse_rref,
    hom_space,
    kernel_basis,
    rref,
    sparse_kernel,
    sparse_rank,
)
from intdiffops.scalars import ONE, QQI, ZERO, Scalar

small = st.fractions(min_value=-6, max_value=6, max_denominator=4)
rational = st.one_of(st.just(ZERO), st.just(ONE), st.just(-ONE), small.map(Scalar))
gaussian = st.one_of(
    st.just(ZERO),
    st.sampled_from([ONE, -ONE, Scalar.i(), -Scalar.i()]),
    st.builds(Scalar, small, small),
)


def sparse_rows(A: Mat):
    """A's rows as sparse rows (see `linalg.sparse_kernel`): each row times
    its scale, an int per nonzero entry over Q, an (re, im) pair over Q(i)."""
    re, im, _ = A._int()
    if im is None:
        return [{k: v for k, v in enumerate(row) if v} for row in re], False
    return [{k: (a, b) for k, (a, b) in enumerate(zip(row, irow)) if a or b} for row, irow in zip(re, im)], True


def as_columns(vectors, n):
    """Sparse kernel vectors (column -> (re, im, den)) as column Mats."""
    return [
        Mat(n, 1, [[Scalar.frac(*v[r]) if r in v else ZERO] for r in range(n)])
        for v in vectors
    ]


@st.composite
def planted(draw):
    """A matrix over Q or Q(i) with planted zero columns, duplicate rows
    (up to a unit) and rank defects (a row that is a combination of two
    others), mostly sparse."""
    elements = draw(st.sampled_from([rational, gaussian]))
    entry = st.one_of(st.just(ZERO), st.just(ZERO), elements)
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    data = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    for z in draw(st.lists(st.integers(0, cols - 1), max_size=2)):
        for row in data:
            row[z] = ZERO
    if rows > 1:
        for _ in range(draw(st.integers(0, 2))):
            k, src = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
            u = draw(st.sampled_from([ONE, -ONE, Scalar(2), Scalar.i()]))
            data[k] = [u * x for x in data[src]]
    if rows > 2 and draw(st.booleans()):
        a, b, k = draw(st.permutations(range(rows)))[:3]
        c1, c2 = draw(elements), draw(elements)
        data[k] = [c1 * x + c2 * y for x, y in zip(data[a], data[b])]
    return Mat(rows, cols, data)


def _domain_matrix(data, shape, is_gaussian: bool):
    """Rows of Scalars as a sparse sympy DomainMatrix over QQ or QQ_I."""
    from sympy import QQ, QQ_I
    from sympy.polys.matrices import DomainMatrix

    def conv(x):
        if not is_gaussian:
            return QQ(x.re.numerator, x.re.denominator)
        return QQ_I(QQ(x.re.numerator, x.re.denominator), QQ(x.im.numerator, x.im.denominator))

    dm = DomainMatrix([[conv(x) for x in row] for row in data], shape, QQ_I if is_gaussian else QQ, fmt="sparse")
    assert dm.rep.fmt == "sparse"
    return dm


def _row_space(dm):
    """sympy's reduced echelon form of the rows of a DomainMatrix, zero rows
    dropped: equal for two matrices iff their rows span the same space."""
    R, piv = dm.rref()
    return R.to_list()[: len(piv)]


@given(planted())
@settings(max_examples=200, deadline=None)
def test_sparse_kernel_matches_kernel_basis_and_sympy(A):
    rows, is_gaussian = sparse_rows(A)
    vecs = as_columns(sparse_kernel(rows, A.cols, is_gaussian), A.cols)
    # the same vectors, byte for byte, as kernel_basis
    assert vecs == kernel_basis(A)
    for v in vecs:
        assert (A @ v).is_zero()
    # the same space as sympy's sparse nullspace, both reduced by sympy
    theirs = _domain_matrix(A.data, A.shape, is_gaussian).nullspace()
    assert theirs.shape == (len(vecs), A.cols)
    ours = [[v[r, 0] for r in range(A.cols)] for v in vecs]
    if vecs:
        assert _row_space(_domain_matrix(ours, theirs.shape, is_gaussian)) == _row_space(theirs)
    rows, _ = sparse_rows(A)
    assert sparse_rank(rows, A.cols, is_gaussian) == A.cols - len(vecs)


@given(planted())
@settings(max_examples=100, deadline=None)
def test_sparse_rref_is_the_dense_rref(A):
    rows, is_gaussian = sparse_rows(A)
    pivots = _sparse_rref(rows, A.cols, is_gaussian)
    R, piv = rref(A)
    assert [c for c, _ in pivots] == piv
    for r, (c, row) in enumerate(pivots):
        P = row[c][0] if is_gaussian else row[c]
        for k in range(A.cols):
            a, b = (row.get(k, (0, 0)) if is_gaussian else (row.get(k, 0), 0))
            assert R[r, k] == Scalar.frac(a, b, P)


def _scrambled_pencil(labels, seed):
    """The sum of the labels' blocks in random Gaussian bases of
    determinant 1 (unit lower times unit upper triangular)."""
    rng = random.Random(seed)
    units = [ONE, -ONE, Scalar.i(), -Scalar.i()]
    S = kronecker_sum([kronecker_block(l) for l in labels])

    def basis(d):
        L = Mat(d, d, [[ONE if c == r else rng.choice(units) if c < r else ZERO for c in range(d)] for r in range(d)])
        U = Mat(d, d, [[ONE if c == r else rng.choice(units) if c > r else ZERO for c in range(d)] for r in range(d)])
        return L @ U

    V, U = basis(S.d2), basis(S.d1)
    return KroneckerRep(V @ S.A @ U, V @ S.B @ U)


def test_scrambled_qi_pencil_keeps_entries_small():
    # a (5, 6) pencil over Q(i) in scrambled bases.  With content reduction
    # alone the Gaussian entries of its End system grow without bound (the
    # elimination did not finish in minutes); with real pivots the reduced
    # rows stay within 14 bits.
    labels = [KroneckerBlockLabel("S2", 2), KroneckerBlockLabel("S4", 2, Scalar.i()), KroneckerBlockLabel("S5", 1)]
    R = _scrambled_pencil(labels, 0)
    assert (R.d1, R.d2) == (5, 6)
    system = BlockSystem(R.dims, R.dims, [(s, t, f, f) for s, t, f in R.arrows])
    assert system.gaussian
    for c, row in _sparse_rref(list(system.rows), system.total, True):
        assert row[c][1] == 0
        assert max(abs(x).bit_length() for pair in row.values() for x in pair) <= 32
    # the Hom basis is the kernel_basis of the same equations, entry for entry
    dense = Mat(
        len(system.rows),
        system.total,
        [[Scalar(*row[k]) if k in row else ZERO for k in range(system.total)] for row in system.rows],
    )
    flat = [[x for block in h for l in range(block.cols) for x in block.col(l)] for h in hom_space(R, R)]
    assert flat == [v.col(0) for v in kernel_basis(dense)]
    labels_out, P, Q = kronecker_decompose_with_iso(R, QQI)
    assert labels_out == labels
    can = kronecker_sum([kronecker_block(l) for l in labels])
    assert R.A @ Q == P @ can.A and R.B @ Q == P @ can.B


def test_band_end_system_stores_only_nonzeros():
    # band h1h2 with n = 16: End is a system of 2 * 32 * 32 = 2,048
    # equations in 1,024 unknowns; each stored row holds its nonzeros only,
    # at most d_s + d_t = 64 of them, and zero equations are not stored
    h1, h2 = band_module("h1h2", 16, 2).matrices
    system = BlockSystem([32], [32], [(0, 0, h1, h1), (0, 0, h2, h2)])
    assert system.total == 1024 and not system.gaussian
    assert 0 < len(system.rows) <= 2048
    assert all(0 < len(row) <= 64 for row in system.rows)
    assert all(isinstance(v, int) and v for row in system.rows for v in row.values())


_BAND_HOM = """
import sys
from intdiffops.classify import _one_space, band_module
from intdiffops.linalg import hom_space
R = _one_space(list(band_module("h1h2", 16, 2).matrices))
print(len(hom_space(R, R)), "sympy" in sys.modules)
"""


def test_band_hom_space_leaves_sympy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", _BAND_HOM],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["272", "False"]
