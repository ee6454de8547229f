from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from intdiffops.linalg import (
    BlockSystem,
    Mat,
    column_space_basis,
    complete_basis,
    det,
    in_span,
    invert,
    kernel_basis,
    kron,
    rank,
    rref,
    solve_linear,
    unvec,
    vec,
)
from intdiffops.scalars import ONE, ZERO, Scalar

entries = st.fractions(min_value=-20, max_value=20, max_denominator=6).map(Scalar)
small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)
units = st.sampled_from([ONE, -ONE, Scalar.i(), -Scalar.i()])
# Gaussian rationals, weighted toward 0 and the units +-1, +-i: those make the
# pivots (and the divisors of the fraction-free kernel) that need the most care
gaussian_entries = st.one_of(
    st.just(ZERO),
    units,
    st.builds(Scalar, small_fractions, small_fractions),
)


def mats(rows, cols, elements=entries):
    return st.lists(
        st.lists(elements, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda d: Mat(rows, cols, d))


square = st.integers(1, 4).flatmap(lambda n: mats(n, n))
rect = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda s: mats(s[0], s[1])
)
square_qi = st.integers(1, 4).flatmap(lambda n: mats(n, n, gaussian_entries))
rect_qi = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda s: mats(s[0], s[1], gaussian_entries)
)


def check_rref_idempotent_and_rank(A):
    R, piv = rref(A)
    R2, piv2 = rref(R)
    assert R == R2 and piv == piv2
    assert len(piv) == rank(A)


def check_kernel_annihilated(A):
    for v in kernel_basis(A):
        assert (A @ v).is_zero()
    assert len(kernel_basis(A)) == A.cols - rank(A)


def check_solve_consistency(A, x):
    # A times a fixed vector must be solvable, and the solution must work
    b = A @ x
    sol = solve_linear(A, b)
    assert sol is not None
    assert (A @ sol.particular) == b
    for k in sol.kernel:
        assert (A @ k).is_zero()
    assert len(sol.kernel) == A.cols - rank(A)


def check_invert_det(A):
    inv = invert(A)
    d = det(A)
    if inv is None:
        assert d.is_zero()
    else:
        assert not d.is_zero()
        assert (A @ inv).is_identity()
        assert (inv @ A).is_identity()
        assert det(inv) == ONE / d


@given(rect)
@settings(max_examples=60)
def test_rref_idempotent_and_rank(A):
    check_rref_idempotent_and_rank(A)


@given(rect)
@settings(max_examples=60)
def test_kernel_annihilated(A):
    check_kernel_annihilated(A)


@given(rect)
@settings(max_examples=60)
def test_solve_consistency(A):
    check_solve_consistency(A, Mat.col_vector([Scalar(j + 1) for j in range(A.cols)]))


@given(square)
@settings(max_examples=60)
def test_invert_det(A):
    check_invert_det(A)


@given(rect_qi)
@settings(max_examples=60)
def test_rref_idempotent_and_rank_qi(A):
    check_rref_idempotent_and_rank(A)


@given(rect_qi)
@settings(max_examples=60)
def test_kernel_annihilated_qi(A):
    check_kernel_annihilated(A)


@given(rect_qi)
@settings(max_examples=60)
def test_solve_consistency_qi(A):
    check_solve_consistency(A, Mat.col_vector([Scalar(j + 1, j % 2) for j in range(A.cols)]))


@given(square_qi)
@settings(max_examples=60)
def test_invert_det_qi(A):
    check_invert_det(A)


@st.composite
def degenerate_qi(draw):
    """Gaussian matrices with forced rank defects and zero columns."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    data = draw(
        st.lists(
            st.lists(gaussian_entries, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    if rows > 1 and draw(st.booleans()):
        k, src = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        u = draw(units)
        data[k] = [u * x for x in data[src]]
    if draw(st.booleans()):
        z = draw(st.integers(0, cols - 1))
        for row in data:
            row[z] = ZERO
    return Mat(rows, cols, data)


def _to_sympy(A):
    from sympy import QQ, QQ_I
    from sympy.polys.matrices import DomainMatrix

    def conv(x):
        return QQ_I(
            QQ(x.re.numerator, x.re.denominator), QQ(x.im.numerator, x.im.denominator)
        )

    return DomainMatrix([[conv(x) for x in row] for row in A.data], A.shape, QQ_I)


def _from_sympy(e):
    return Scalar(
        Fraction(int(e.x.numerator), int(e.x.denominator)),
        Fraction(int(e.y.numerator), int(e.y.denominator)),
    )


def check_against_sympy(A):
    dm = _to_sympy(A)
    R, piv = rref(A)
    want, want_piv = dm.rref()
    assert piv == list(want_piv)
    assert R.data == [[_from_sympy(e) for e in row] for row in want.to_list()]
    assert rank(A) == len(want_piv)
    if A.rows == A.cols:
        assert det(A) == _from_sympy(dm.det())


@given(degenerate_qi())
@settings(max_examples=150, deadline=None)
def test_rref_det_match_sympy_qi(A):
    check_against_sympy(A)


def test_unit_pivots_match_sympy_qi():
    # previous pivots of -1, i and -i still divide every later row
    i = Scalar.i()
    for d in (-ONE, i, -i):
        A = Mat(
            3,
            4,
            [[d, ONE, i, ZERO], [ONE, i, ZERO, Scalar(2)], [i, ZERO, ONE, -i]],
        )
        check_against_sympy(A)
        check_against_sympy(Mat(3, 3, [row[:3] for row in A.data]))
    # rank 1 with a zero column
    A = Mat(3, 3, [[ZERO, i, ONE], [ZERO, -ONE, i], [ZERO, ZERO, ZERO]])
    check_against_sympy(A)
    assert rank(A) == 1


@given(mats(3, 2), mats(2, 4))
@settings(max_examples=40)
def test_vec_kron(A, B):
    X = Mat(2, 2, [[Scalar(1), Scalar(2)], [Scalar(-1), Scalar(3)]])
    lhs = vec(A @ X @ B)
    rhs = kron(B.transpose(), A) @ vec(X)
    assert lhs == rhs
    assert unvec(vec(X), 2, 2) == X


def test_column_space_and_span():
    cols = [Mat.col_vector([Scalar(1), Scalar(0)]), Mat.col_vector([Scalar(2), Scalar(0)])]
    basis = column_space_basis(cols, 2)
    assert len(basis) == 1
    assert in_span(Mat.col_vector([Scalar(5), Scalar(0)]), basis)
    assert not in_span(Mat.col_vector([Scalar(0), Scalar(1)]), basis)


def test_complete_basis():
    B = Mat(3, 1, [[Scalar(1)], [Scalar(1)], [Scalar(0)]])
    extra = complete_basis(B)
    assert extra.cols == 2
    assert rank(B.hstack(extra)) == 3


def test_block_system_sylvester():
    # X with A X = X A for A a Jordan cell: polynomials in A (dim 2)
    A = Mat(2, 2, [[Scalar(3), Scalar(1)], [Scalar(0), Scalar(3)]])
    sys = BlockSystem()
    sys.add_unknown("X", 2, 2)
    sys.add_equation([("X", A, None, 1), ("X", None, A, -1)])
    sol = sys.solve()
    assert sol is not None
    _, kern = sol
    assert len(kern) == 2
    for k in kern:
        X = k["X"]
        assert (A @ X) == (X @ A)


def test_block_system_inhomogeneous():
    A = Mat(2, 2, [[Scalar(1), Scalar(2)], [Scalar(0), Scalar(1)]])
    sys = BlockSystem()
    sys.add_unknown("X", 2, 2)
    sys.add_equation([("X", A, None, 1)], Mat.identity(2))
    part, _ = sys.solve()
    assert (A @ part["X"]).is_identity()


def test_block_system_inconsistent():
    Z = Mat.zero(2, 2)
    sys = BlockSystem()
    sys.add_unknown("X", 2, 2)
    sys.add_equation([("X", Z, None, 1)], Mat.identity(2))
    assert sys.solve() is None
