import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intdiffops import classify
from intdiffops.classify import KroneckerBlockLabel, KroneckerRep, band_module, isomorphism, kronecker_block, string_module
from intdiffops.linalg import (
    BlockSystem,
    DomainError,
    Mat,
    QuiverRep,
    _int_rows,
    block_diag,
    column_space_basis,
    hom_space,
    invert,
    kernel_basis,
    rank,
    restrict,
    rref,
    solve_linear,
    split,
)
from intdiffops.scalars import ONE, ZERO, Scalar

entries = st.fractions(min_value=-20, max_value=20, max_denominator=6).map(Scalar)
small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)
units = st.sampled_from([ONE, -ONE, Scalar.i(), -Scalar.i()])
# Gaussian rationals, weighted toward 0 and the units +-1, +-i: those make the
# pivots that need the most care
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


def _unit(n, r):
    return Mat.col_vector([ONE if i == r else ZERO for i in range(n)])


def check_solve_consistency(A, X):
    # A times fixed columns must be solvable, and the solution must work
    B = A @ X
    sol = solve_linear(A, B)
    assert sol is not None
    assert sol.shape == (A.cols, B.cols)
    assert (A @ sol) == B
    # every column is the single-column answer
    for j in range(B.cols):
        assert solve_linear(A, Mat.col_vector(B.col(j))) == Mat.col_vector(sol.col(j))
    # one column outside the column space makes the whole system inconsistent
    outside = [e for e in (_unit(A.rows, r) for r in range(A.rows)) if solve_linear(A, e) is None]
    if outside:
        assert solve_linear(A, B.hstack(outside[0])) is None
        assert solve_linear(A, outside[0].hstack(B)) is None
    # zero-column shapes
    assert solve_linear(A, Mat(A.rows, 0)).shape == (A.cols, 0)
    none = solve_linear(Mat(A.rows, 0), B)
    if B.is_zero():
        assert none.shape == (0, B.cols)
    else:
        assert none is None


def with_rhs(matrices, elements):
    """(A, X) with X of A.cols rows and 0 to 3 columns."""
    return matrices.flatmap(
        lambda A: st.tuples(st.just(A), st.integers(0, 3).flatmap(lambda k: mats(A.cols, k, elements)))
    )


def check_invert_det(A):
    inv = invert(A)
    assert (inv is None) == _ref_det(A.data).is_zero()
    if inv is not None:
        assert (A @ inv).is_identity()
        assert (inv @ A).is_identity()
        assert invert(inv) == A


@given(rect)
@settings(max_examples=60)
def test_rref_idempotent_and_rank(A):
    check_rref_idempotent_and_rank(A)


@given(rect)
@settings(max_examples=60)
def test_kernel_annihilated(A):
    check_kernel_annihilated(A)


@given(with_rhs(rect, entries))
@settings(max_examples=60)
def test_solve_consistency(AX):
    check_solve_consistency(*AX)


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


@given(with_rhs(rect_qi, gaussian_entries))
@settings(max_examples=60)
def test_solve_consistency_qi(AX):
    check_solve_consistency(*AX)


@given(square_qi)
@settings(max_examples=60)
def test_invert_det_qi(A):
    check_invert_det(A)


rational_entries = st.one_of(st.just(ZERO), st.sampled_from([ONE, -ONE]), small_fractions.map(Scalar))


def _degenerate(draw, elements, scalings):
    """A matrix of the elements with forced rank defects (a row that is a
    multiple of another) and zero columns."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    data = draw(
        st.lists(
            st.lists(elements, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    if rows > 1 and draw(st.booleans()):
        k, src = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        u = draw(scalings)
        data[k] = [u * x for x in data[src]]
    if draw(st.booleans()):
        z = draw(st.integers(0, cols - 1))
        for row in data:
            row[z] = ZERO
    return Mat(rows, cols, data)


@st.composite
def degenerate_q(draw):
    """Rational matrices with forced rank defects and zero columns."""
    return _degenerate(draw, rational_entries, st.sampled_from([ONE, -ONE, Scalar(2), Scalar(Fraction(-1, 3))]))


@st.composite
def degenerate_qi(draw):
    """Gaussian matrices with forced rank defects and zero columns."""
    return _degenerate(draw, gaussian_entries, units)


def _to_sympy(A):
    """A as a DomainMatrix over QQ when every entry is rational, else over
    QQ_I."""
    from sympy import QQ, QQ_I
    from sympy.polys.matrices import DomainMatrix

    if A._int()[1] is None:
        return DomainMatrix([[QQ(x.re.numerator, x.re.denominator) for x in row] for row in A.data], A.shape, QQ)

    def conv(x):
        return QQ_I(
            QQ(x.re.numerator, x.re.denominator), QQ(x.im.numerator, x.im.denominator)
        )

    return DomainMatrix([[conv(x) for x in row] for row in A.data], A.shape, QQ_I)


def _from_sympy(e):
    if not hasattr(e, "x"):
        return Scalar(Fraction(int(e.numerator), int(e.denominator)))
    return Scalar(
        Fraction(int(e.x.numerator), int(e.x.denominator)),
        Fraction(int(e.y.numerator), int(e.y.denominator)),
    )


def check_against_sympy(A):
    """rref, pivots, rank and invertibility against sympy's DomainMatrix
    over QQ or QQ_I, an elimination independent of ours."""
    dm = _to_sympy(A)
    R, piv = rref(A)
    want, want_piv = dm.rref()
    assert piv == list(want_piv)
    assert R.data == [[_from_sympy(e) for e in row] for row in want.to_list()]
    assert rank(A) == len(want_piv)
    if A.rows == A.cols:
        assert (invert(A) is None) == (not dm.det())


@given(degenerate_q())
@settings(max_examples=150, deadline=None)
def test_rref_det_match_sympy_q(A):
    check_against_sympy(A)


@given(degenerate_qi())
@settings(max_examples=150, deadline=None)
def test_rref_det_match_sympy_qi(A):
    check_against_sympy(A)


def test_unit_pivots_match_sympy_qi():
    # the unit pivots -1, i and -i in the first column
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


def test_dense_35x40_matches_sympy_qi():
    # benchmark size, where coefficient growth would show: the hypothesis
    # tests above stop at 6 x 6
    rng = random.Random("rref-dense-qi")
    A = Mat(
        35,
        40,
        [[Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4)), rng.randint(-9, 9)) for _ in range(40)] for _ in range(35)],
    )
    check_against_sympy(A)


def test_dense_35x40_matches_sympy_q():
    rng = random.Random("rref-dense-q")
    A = Mat(35, 40, [[Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4))) for _ in range(40)] for _ in range(35)])
    check_against_sympy(A)


@st.composite
def quiver_reps(draw):
    """Two representations M, N of a random quiver on 1-3 vertices (loops
    and parallel arrows allowed) over Q or Q(i), with sparse entries;
    sometimes N = M, whose endomorphisms include more than the scalars."""
    elements = draw(st.sampled_from([entries, gaussian_entries]))
    sparse = st.one_of(st.just(ZERO), st.just(ZERO), st.just(ONE), elements)
    k = draw(st.integers(1, 3))
    dims_m = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    same = draw(st.booleans())
    dims_n = dims_m if same else draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    arrows = []
    for _ in range(draw(st.integers(0, 4))):
        s, t = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        f = draw(mats(dims_m[t], dims_m[s], sparse))
        g = f if same else draw(mats(dims_n[t], dims_n[s], sparse))
        arrows.append((s, t, f, g))
    return dims_m, dims_n, arrows


def _kron(A, B):
    return Mat(
        A.rows * B.rows,
        A.cols * B.cols,
        [[A[i, j] * B[k, l] for j in range(A.cols) for l in range(B.cols)] for i in range(A.rows) for k in range(B.rows)],
    )


def _vec(X):
    """Column-major flattening of X, as a list."""
    return [X[k, l] for l in range(X.cols) for k in range(X.rows)]


@given(quiver_reps())
@settings(max_examples=80, deadline=None)
def test_block_system_hom_space(quiver):
    dims_m, dims_n, arrows = quiver
    homs = BlockSystem(dims_m, dims_n, arrows).solve()
    for h in homs:
        assert [b.shape for b in h] == list(zip(dims_n, dims_m))
        for s, t, f, g in arrows:
            assert h[t] @ f == g @ h[s]
    # vec(phi_t f - g phi_s) = (f^T (x) 1) vec(phi_t) - (1 (x) g) vec(phi_s)
    offsets = [sum(m * n for m, n in zip(dims_m[:v], dims_n[:v])) for v in range(len(dims_m))]
    total = sum(m * n for m, n in zip(dims_m, dims_n))
    K = Mat(0, total)
    for s, t, f, g in arrows:
        block = Mat(g.rows * f.cols, total)
        for off, part in (
            (offsets[t], _kron(f.transpose(), Mat.identity(dims_n[t]))),
            (offsets[s], -_kron(Mat.identity(dims_m[s]), g)),
        ):
            for r, row in enumerate(part.data):
                for c, x in enumerate(row):
                    block.data[r][off + c] = block.data[r][off + c] + x
        K = K.vstack(block)
    assert len(homs) == total - rank(K)
    flat = [Mat.col_vector([x for b in h for x in _vec(b)]) for h in homs]
    assert rank(Mat.from_cols(flat, total)) == len(homs)


@st.composite
def restrictions(draw):
    """A direct sum R of two representations of one random quiver on 1-3
    vertices (loops allowed) over Q or Q(i), and per-vertex column bases:
    the image of a random endomorphism of R (stable) or random columns
    (mostly unstable)."""
    elements = draw(st.sampled_from([entries, gaussian_entries]))
    sparse = st.one_of(st.just(ZERO), st.just(ONE), elements)
    nonzero = sparse.map(lambda x: ONE if x.is_zero() else x)
    k = draw(st.integers(1, 3))
    halves = [draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)) for _ in range(2)]
    arrows = []
    for _ in range(draw(st.integers(1, 4))):
        s, t = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        arrows.append((s, t, block_diag(*(draw(mats(d[t], d[s], sparse)) for d in halves))))
    R = QuiverRep([a + b for a, b in zip(*halves)], arrows)
    stable = draw(st.booleans())
    if stable:
        homs = hom_space(R, R)
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(homs), max_size=len(homs)))
        blocks = [sum((h[v].scale(c) for c, h in zip(coeffs, homs)), Mat(d, d)) for v, d in enumerate(R.dims)]
    else:
        blocks = [draw(mats(d, draw(st.integers(0, d)), sparse)) for d in R.dims]
    bases = [Mat.from_cols(column_space_basis([Mat.col_vector(b.col(j)) for j in range(b.cols)], b.rows), b.rows) for b in blocks]
    return R, bases, stable


@given(restrictions())
@settings(max_examples=60, deadline=None)
def test_restrict_matches_per_arrow_solves(case):
    R, bases, stable = case
    ref = [solve_linear(bases[t], f @ bases[s]) for s, t, f in R.arrows]
    sub = restrict(R, bases)
    if any(sol is None for sol in ref):
        assert not stable and sub is None
        return
    assert sub.dims == tuple(B.cols for B in bases)
    assert sub.arrows == [(s, t, X) for (s, t, _), X in zip(R.arrows, ref)]


def test_restrict_rejects_an_unstable_line():
    # the loop swaps the two coordinates, so the first coordinate line is not stable
    R = QuiverRep([2], [(0, 0, Mat(2, 2, [[0, 1], [1, 0]]))])
    assert restrict(R, [Mat(2, 1, [[1], [0]])]) is None
    assert restrict(R, [Mat(2, 1, [[1], [1]])]).arrows == [(0, 0, Mat(1, 1, [[1]]))]


@st.composite
def planted_splits(draw):
    """A planted direct sum of 1-3 parts on a random quiver with 1-3 vertices
    (loops allowed) over Q or Q(i), scrambled by a random basis change G_v at
    every vertex, and per part the columns of G_v over its coordinates
    (stable) or over the same coordinates of an unrelated H_v (mostly not
    stable).

    Some loops carry c*I (c = 0 included), which every basis keeps, so
    `split` passes them through without conjugating.  Some cases give
    vertices 0 and 1 the same dimensions, G_1 = 2 G_0, and an arrow c*I, c
    nonzero, between them: its part maps are c/2 or 2c times the identity,
    which `split` finds only by conjugating."""
    elements = draw(st.sampled_from([entries, gaussian_entries]))
    sparse = st.one_of(st.just(ZERO), st.just(ONE), elements)
    nonzero = sparse.map(lambda x: ONE if x.is_zero() else x)
    k = draw(st.integers(1, 3))
    dims = [draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)) for _ in range(draw(st.integers(1, 3)))]
    tied = k > 1 and draw(st.booleans())
    if tied:
        # vertices 0 and 1 alike, part by part
        for d in dims:
            d[1] = d[0]
    sizes = [sum(d[v] for d in dims) for v in range(k)]

    def invertible(n):
        # unitriangular lower and upper factors around a diagonal of nonzeros
        L, U = draw(mats(n, n, sparse)), draw(mats(n, n, sparse))
        D = [draw(nonzero) for _ in range(n)]
        lower = Mat(n, n, [[D[i] if i == j else L[i, j] if i > j else ZERO for j in range(n)] for i in range(n)])
        upper = Mat(n, n, [[ONE if i == j else U[i, j] if i < j else ZERO for j in range(n)] for i in range(n)])
        return lower @ upper

    G = [invertible(n) for n in sizes]
    if tied:
        # vertex 1 in twice vertex 0's basis: an arrow c*I between them is
        # planted, as c/2*I or 2c*I in the parts' coordinates
        G[1] = G[0].scale(2)
    arrows = []
    for _ in range(draw(st.integers(1, 4))):
        s, t = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        if s == t and draw(st.booleans()):
            arrows.append((s, t, Mat.scalar(sizes[s], draw(st.one_of(st.just(ZERO), elements)))))
            continue
        planted = block_diag(*(draw(mats(d[t], d[s], sparse)) for d in dims))
        arrows.append((s, t, G[t] @ planted @ invert(G[s])))
    if tied and sizes[0]:
        s, c = draw(st.integers(0, 1)), draw(nonzero)
        arrows.insert(draw(st.integers(0, len(arrows))), (s, 1 - s, Mat.scalar(sizes[0], c)))
    stable = draw(st.booleans())
    H = G if stable else [invertible(n) for n in sizes]
    parts, offsets = [], [0] * k
    for d in dims:
        parts.append([H[v].select_cols(range(offsets[v], offsets[v] + d[v])) for v in range(k)])
        offsets = [o + n for o, n in zip(offsets, d)]
    return QuiverRep(sizes, arrows), parts, stable


@given(planted_splits())
@settings(max_examples=80, deadline=None)
def test_split_matches_restrict_per_part(case):
    R, parts, stable = case
    ref = [restrict(R, bases) for bases in parts]
    got = split(R, parts)
    if any(sub is None for sub in ref):
        assert not stable and got is None
        return
    assert got is not None and len(got) == len(parts)
    for sub, want in zip(got, ref):
        assert sub.dims == want.dims and sub.arrows == want.arrows


def test_split_needs_a_basis_at_every_vertex():
    # the loop swaps the two coordinates: the lines of (1, 1) and (1, -1) are stable
    R = QuiverRep([2], [(0, 0, Mat(2, 2, [[0, 1], [1, 0]]))])
    plus, minus = Mat(2, 1, [[1], [1]]), Mat(2, 1, [[1], [-1]])
    pieces = split(R, [[plus], [minus]])
    assert [p.arrows for p in pieces] == [[(0, 0, Mat(1, 1, [[1]]))], [(0, 0, Mat(1, 1, [[-1]]))]]
    assert split(R, [[Mat(2, 1, [[1], [0]])], [Mat(2, 1, [[0], [1]])]]) is None
    with pytest.raises(DomainError, match="do not form a basis at vertex 0"):
        split(R, [[plus], [plus]])
    with pytest.raises(DomainError, match="1 columns at vertex 0"):
        split(R, [[plus]])


def test_split_checks_the_parts_without_a_source():
    # an arrow 0 -> 1 between lines; part A holds vertex 0, part B vertex 1
    a = [Mat(1, 1, [[1]]), Mat(1, 0)]
    b = [Mat(1, 0), Mat(1, 1, [[1]])]
    # B has no source space, yet the arrow reaches its target row
    assert split(QuiverRep([1, 1], [(0, 1, Mat(1, 1, [[3]]))]), [a, b]) is None
    assert split(QuiverRep([1, 1], [(0, 1, Mat(1, 1, [[3]]))]), [b, a]) is None
    pieces = split(QuiverRep([1, 1], [(0, 1, Mat(1, 1)), (1, 1, Mat(1, 1, [[2]]))]), [a, b])
    assert [p.dims for p in pieces] == [(1, 0), (0, 1)]
    assert [[f for _, _, f in p.arrows] for p in pieces] == [[Mat(0, 1), Mat(0, 0)], [Mat(1, 0), Mat(1, 1, [[2]])]]


def test_column_space_and_span():
    cols = [Mat.col_vector([Scalar(1), Scalar(0)]), Mat.col_vector([Scalar(2), Scalar(0)])]
    basis = column_space_basis(cols, 2)
    assert len(basis) == 1

    def in_span(vec):
        B = Mat.from_cols(basis, 2)
        return rank(B.hstack(vec)) == rank(B)

    assert in_span(Mat.col_vector([Scalar(5), Scalar(0)]))
    assert not in_span(Mat.col_vector([Scalar(0), Scalar(1)]))


def test_block_system_sylvester():
    # X with X A = A X for A a Jordan cell: polynomials in A (dim 2)
    A = Mat(2, 2, [[Scalar(3), Scalar(1)], [Scalar(0), Scalar(3)]])
    homs = BlockSystem([2], [2], [(0, 0, A, A)]).solve()
    assert len(homs) == 2
    for (X,) in homs:
        assert (A @ X) == (X @ A)
    with pytest.raises(ValueError):
        BlockSystem([2], [2], [(0, 0, Mat(3, 2), A)])
    with pytest.raises(ValueError):
        BlockSystem([2], [3], [(0, 0, A, A)])


_I = Scalar.i()
# planted indecomposables by name, each a pencil or a module on one space with
# two loops; P2 and P3 have End/rad the fields Q(sqrt 2) and Q(sqrt 3)
_PENCILS = {
    "S1": kronecker_block(KroneckerBlockLabel("S1")),
    "S2(1)": kronecker_block(KroneckerBlockLabel("S2", 1)),
    "S3(1)": kronecker_block(KroneckerBlockLabel("S3", 1)),
    "S4(1,0)": kronecker_block(KroneckerBlockLabel("S4", 1, ZERO)),
    "S4(1,1)": kronecker_block(KroneckerBlockLabel("S4", 1, ONE)),
    "S4(2,1)": kronecker_block(KroneckerBlockLabel("S4", 2, ONE)),
    "S5(1)": kronecker_block(KroneckerBlockLabel("S5", 1)),
    "S5(2)": kronecker_block(KroneckerBlockLabel("S5", 2)),
    "P2": KroneckerRep(Mat.identity(2), Mat(2, 2, [[0, 2], [1, 0]])),
    "P3": KroneckerRep(Mat.identity(2), Mat(2, 2, [[0, 3], [1, 0]])),
}
_PENCILS_QI = {
    "S4(1,i)": kronecker_block(KroneckerBlockLabel("S4", 1, _I)),
    "S4(1,1+i)": kronecker_block(KroneckerBlockLabel("S4", 1, 1 + _I)),
}


def _loops(module):
    """A module on one space as a one-vertex rep, a loop per generator."""
    return QuiverRep([module.dim], [(0, 0, module.h1), (0, 0, module.h2)])


_ONE_SPACE = {
    "string": _loops(string_module("")),
    "string h1": _loops(string_module("h1")),
    "string h2": _loops(string_module("h2")),
    "string h1h2": _loops(string_module("h1h2")),
    "string h2h1": _loops(string_module("h2h1")),
    "band h1h2 1": _loops(band_module("h1h2", 1, 1)),
    "band h1h2 2": _loops(band_module("h1h2", 1, 2)),
}
_ONE_SPACE_QI = {"band h1h2 i": _loops(band_module("h1h2", 1, _I))}


def _direct_sum(reps):
    """The direct sum of reps of one quiver, block-diagonal arrow by arrow."""
    arrows = [(s, t, block_diag(*(R.arrows[k][2] for R in reps))) for k, (s, t, _) in enumerate(reps[0].arrows)]
    return QuiverRep([sum(d) for d in zip(*(R.dims for R in reps))], arrows)


def _rand_invertible(d, rng, gaussian):
    while True:
        rows = [[Scalar(rng.randint(-2, 2), rng.randint(-1, 1) if gaussian else 0) for _ in range(d)] for _ in range(d)]
        m = Mat(d, d, rows)
        if rank(m) == d:
            return m


def _scrambled(R, rng, gaussian):
    """R in random bases T_v: every arrow f : s -> t becomes T_t f T_s^-1."""
    T = [_rand_invertible(d, rng, gaussian) for d in R.dims]
    return QuiverRep(R.dims, [(s, t, T[t] @ f @ invert(T[s])) for s, t, f in R.arrows])


@st.composite
def planted_pairs(draw):
    """Scrambled sums M, N of one to three planted indecomposables, over Q or
    Q(i), with at most 4 dimensions at a vertex; in half of the pairs one
    summand of N is swapped for another of the same dimensions.  Returns
    (M, N, whether the planted multisets agree)."""
    gaussian = draw(st.booleans())
    pool, extra = draw(st.sampled_from([(_PENCILS, _PENCILS_QI), (_ONE_SPACE, _ONE_SPACE_QI)]))
    if gaussian:
        pool = {**pool, **extra}
    names = []
    for name in draw(st.lists(st.sampled_from(sorted(pool)), min_size=1, max_size=3)):
        if all(sum(d) <= 4 for d in zip(pool[name].dims, *(pool[n].dims for n in names))):
            names.append(name)
    others = list(names)
    if draw(st.booleans()):
        k = draw(st.integers(0, len(names) - 1))
        others[k] = draw(st.sampled_from(sorted(n for n in pool if pool[n].dims == pool[names[k]].dims)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    M, N = (_scrambled(_direct_sum([pool[n] for n in ns]), rng, gaussian) for ns in (names, others))
    return M, N, sorted(names) == sorted(others)


def _generic_det_vanishes(homs, sizes):
    """Oracle: some block's det(sum t_i h_i) is the zero polynomial, computed
    by sympy over Q[t] or Q(i)[t]."""
    from sympy import QQ, QQ_I
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.rings import ring

    gaussian = any(x.im for h in homs for m in h for row in m.data for x in row)
    dom = QQ_I if gaussian else QQ
    R, *ts = ring([f"t{i}" for i in range(max(len(homs), 1))], dom)
    for b, n in enumerate(sizes):
        gen = [[R.zero] * n for _ in range(n)]
        for t, h in zip(ts, homs):
            for r in range(n):
                for c in range(n):
                    x = h[b].data[r][c]
                    gen[r][c] += t * (QQ_I(x.re, x.im) if gaussian else QQ.convert(x.re))
        if n and not DomainMatrix(gen, (n, n), R.to_domain()).det():
            return True
    return False


def _check_isomorphism(phi, M, N):
    assert [b.shape for b in phi] == [(d, d) for d in M.dims]
    assert all(rank(b) == b.rows for b in phi)
    for (s, t, f), (_, _, g) in zip(M.arrows, N.arrows):
        assert phi[t] @ f == g @ phi[s]


@given(planted_pairs())
@settings(max_examples=60, deadline=None)
def test_isomorphism_matches_generic_det_and_planted_summands(pair):
    M, N, same = pair
    got = isomorphism(M, N)
    assert (got is not None) == same
    # Hom(M, N) holds an isomorphism iff the generic determinant is nonzero
    assert (got is None) == _generic_det_vanishes(hom_space(M, N), M.dims)
    if got is not None:
        _check_isomorphism(got, M, N)


def test_isomorphism_witness_and_certificate(monkeypatch):
    # no basis hom of End(S4(1,0) + S4(1,1)) is invertible, and the second
    # vertex needs both summands: the split summands are matched in pairs
    S = _direct_sum([_PENCILS["S4(1,0)"], _PENCILS["S4(1,1)"]])
    M = _scrambled(S, random.Random(1), False)
    assert not any(all(rank(b) == b.rows for b in h) for h in hom_space(M, S))
    _check_isomorphism(isomorphism(M, S), M, S)
    # no vector is killed by every hom from string h2h1 to string h1h2, but
    # End of the first is local: one split proves None
    splits = []
    real = classify.split_indecomposables
    monkeypatch.setattr(classify, "split_indecomposables", lambda R, field: splits.append(R) or real(R, field))
    assert isomorphism(_ONE_SPACE["string h2h1"], _ONE_SPACE["string h1h2"]) is None
    assert splits == [_ONE_SPACE["string h2h1"]]

    # a vector that every hom kills proves None before any split
    def no_split(R, field):
        raise AssertionError("split_indecomposables called")

    monkeypatch.setattr(classify, "split_indecomposables", no_split)
    J = QuiverRep([2], [(0, 0, Mat(2, 2, [[0, 1], [0, 0]]))])
    assert isomorphism(J, QuiverRep([2], [(0, 0, Mat(2, 2))])) is None
    assert isomorphism(QuiverRep([2], [(0, 0, Mat(2, 2))]), J) is None
    # 0x0 blocks are invertible, even with no homs at all
    assert isomorphism(QuiverRep([0, 0], []), QuiverRep([0, 0], [])) == (Mat(0, 0), Mat(0, 0))
    one, two = (QuiverRep([1], [(0, 0, Mat(1, 1, [[c]]))]) for c in (1, 2))
    assert hom_space(one, two) == [] and isomorphism(one, two) is None
    assert isomorphism(QuiverRep([0, 1], []), QuiverRep([1, 0], [])) is None


def naive_product(A, B):
    """A @ B by the Scalar triple loop."""
    out = [[ZERO] * B.cols for _ in range(A.rows)]
    for i in range(A.rows):
        for j in range(B.cols):
            acc = ZERO
            for k in range(A.cols):
                acc = acc + A.data[i][k] * B.data[k][j]
            out[i][j] = acc
    return Mat(A.rows, B.cols, out)


@st.composite
def scaled_operand(draw, rows, cols, gaussian, by_row):
    """Entries sharing one denominator along each row (by_row) or column,
    distinct from line to line, with some lines all zero."""
    lines = rows if by_row else cols
    dens = draw(st.lists(st.sampled_from([1, 2, 3, 4, 5, 7, 9]), min_size=lines, max_size=lines, unique=True))
    zero = draw(st.lists(st.booleans(), min_size=lines, max_size=lines))
    ints = st.integers(-6, 6)
    data = []
    for r in range(rows):
        row = []
        for c in range(cols):
            line = r if by_row else c
            den = dens[line]
            if zero[line]:
                row.append(ZERO)
            else:
                row.append(Scalar(Fraction(draw(ints), den), Fraction(draw(ints), den) if gaussian else 0))
        data.append(row)
    return Mat(rows, cols, data)


@pytest.mark.parametrize("a_gaussian, b_gaussian", [(False, False), (True, True), (True, False), (False, True)])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_matmul_matches_scalar_triple_loop(a_gaussian, b_gaussian, data):
    n, k, m = (data.draw(st.integers(0, 4)) for _ in range(3))
    A = data.draw(scaled_operand(n, k, a_gaussian, by_row=True))
    B = data.draw(scaled_operand(k, m, b_gaussian, by_row=False))
    C = A @ B
    assert C.shape == (n, m)
    assert C == naive_product(A, B)


def test_matmul_shapes():
    assert (Mat(0, 3) @ Mat(3, 2)).shape == (0, 2)
    assert (Mat(2, 0) @ Mat(0, 3)) == Mat.zero(2, 3)
    with pytest.raises(ValueError):
        Mat(2, 3) @ Mat(2, 3)


def test_integer_entries_get_scale_one():
    rows = [[Scalar(3), ZERO, Scalar(-7)], [ZERO, ZERO, ZERO], [Scalar(2, -5), ONE, Scalar(0, 4)]]
    re, im, sc = _int_rows(rows)
    assert sc == [1, 1, 1]
    assert re == [[3, 0, -7], [0, 0, 0], [2, 1, 0]] and im == [[0, 0, 0], [0, 0, 0], [-5, 0, 4]]
    M = Mat(3, 3, rows)
    for A in (M, M @ Mat.identity(3), M.scale(-1), M.transpose(), Mat.scalar(3, Scalar(2, 1))):
        assert A._int()[2] == [1, 1, 1]
    assert _int_rows([[Scalar(Fraction(1, 2)), Scalar(0, Fraction(1, 3))]])[2] == [6]


# -- the integer form against per-entry Scalar arithmetic -------------------


def _ref_rref(rows, ncols):
    """Gauss-Jordan on Scalars: unit pivots, first nonzero row as pivot."""
    R = [list(r) for r in rows]
    piv = []
    for c in range(ncols):
        r = len(piv)
        p = next((i for i in range(r, len(R)) if not R[i][c].is_zero()), None)
        if p is None:
            continue
        R[r], R[p] = R[p], R[r]
        inv = ONE / R[r][c]
        R[r] = [x * inv for x in R[r]]
        for i in range(len(R)):
            f = R[i][c]
            if i != r and not f.is_zero():
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        piv.append(c)
    return R, piv


def _ref_det(rows):
    R = [list(r) for r in rows]
    d = ONE
    for c in range(len(R)):
        p = next((i for i in range(c, len(R)) if not R[i][c].is_zero()), None)
        if p is None:
            return ZERO
        if p != c:
            R[c], R[p] = R[p], R[c]
            d = -d
        d = d * R[c][c]
        for i in range(c + 1, len(R)):
            f = R[i][c] / R[c][c]
            R[i] = [x - f * y for x, y in zip(R[i], R[c])]
    return d


def _born_both_ways(M):
    """M built from its Scalars, and M as a product (born in integer form)."""
    return Mat(M.rows, M.cols, M.data), Mat(M.rows, M.cols, M.data) @ Mat.identity(M.cols)


def _agrees(M, ref_rows, shape):
    assert M.shape == shape
    assert M.data == ref_rows
    assert M._int() == _int_rows(M.data)


@pytest.mark.parametrize("gaussian", [False, True])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_int_mat_ops_match_scalar_reference(gaussian, data):
    n, m, k = (data.draw(st.integers(0, 4)) for _ in range(3))
    pick = lambda: gaussian and data.draw(st.booleans())
    mixed = mats(n, m, gaussian_entries if gaussian else entries)
    a = data.draw(st.one_of(scaled_operand(n, m, gaussian, by_row=True), mixed)).data
    b = data.draw(scaled_operand(n, m, pick(), by_row=True)).data
    c = data.draw(scaled_operand(m, k, pick(), by_row=False)).data
    s = data.draw(scaled_operand(k, k, pick(), by_row=True)).data
    x = data.draw(gaussian_entries if gaussian else entries)
    js = data.draw(st.lists(st.integers(0, m - 1), max_size=4)) if m else []
    rs = data.draw(st.lists(st.integers(0, n - 1), max_size=4)) if n else []
    for A, B in product(_born_both_ways(Mat(n, m, a)), _born_both_ways(Mat(n, m, b))):
        C = _born_both_ways(Mat(m, k, c))[1]
        S = _born_both_ways(Mat(k, k, s))[1]
        _agrees(A @ C, naive_product(Mat(n, m, a), Mat(m, k, c)).data, (n, k))
        _agrees(A + B, [[u + v for u, v in zip(r, q)] for r, q in zip(a, b)], (n, m))
        _agrees(A - B, [[u - v for u, v in zip(r, q)] for r, q in zip(a, b)], (n, m))
        _agrees(A.hstack(B, A), [r + q + r for r, q in zip(a, b)], (n, 3 * m))
        _agrees(A.vstack(B), a + b, (2 * n, m))
        _agrees(A.transpose(), [list(col) for col in zip(*a)] if n else [[] for _ in range(m)], (m, n))
        _agrees(A.scale(x), [[x * u for u in r] for r in a], (n, m))
        _agrees(Mat.scalar(n, x), [[x if i == j else ZERO for j in range(n)] for i in range(n)], (n, n))
        _agrees(-A, [[-u for u in r] for r in a], (n, m))
        _agrees(A.select_cols(js), [[r[j] for j in js] for r in a], (n, len(js)))
        _agrees(A.select_rows(rs), [a[i] for i in rs], (len(rs), m))
        R, piv = rref(A)
        want, want_piv = _ref_rref(a, m)
        _agrees(R, want, (n, m))
        assert piv == want_piv and rank(A) == len(want_piv)
        for v in kernel_basis(A):
            assert v._int() == _int_rows(v.data) and (A @ v).is_zero()
        assert (invert(S) is None) == _ref_det(s).is_zero()
        assert A.is_zero() == all(u.is_zero() for r in a for u in r)
        assert (A - A).is_zero()
        assert (A == B) == (a == b) and A == Mat(n, m, a)
        assert (A == B) <= (hash(A) == hash(B))


def _reference_scalar_value(M):
    """c when M is square with a row and equals c*I, by comparison with
    `Mat.scalar`; None otherwise."""
    if not M.rows or M.rows != M.cols:
        return None
    c = M[0, 0]
    return c if M == Mat.scalar(M.rows, c) else None


@st.composite
def near_scalar_mats(draw, elements):
    """c*I as it is or with one entry redrawn, or a random matrix; up to
    4 x 4, empty and non-square shapes included."""
    n = draw(st.integers(0, 4))
    m = draw(st.sampled_from([n, n, n + 1, max(n - 1, 0)]))
    kind = draw(st.sampled_from(["scalar", "changed", "random"]))
    if kind == "random":
        return draw(mats(n, m, elements))
    c = draw(elements)
    rows = [[c if i == j else ZERO for j in range(m)] for i in range(n)]
    if kind == "changed" and n and m:
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, m - 1))] = draw(elements)
    return Mat(n, m, rows)


@pytest.mark.parametrize("elements", [entries, gaussian_entries], ids=["q", "qi"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_scalar_value_matches_comparison_with_scalar(elements, data):
    M = data.draw(near_scalar_mats(elements))
    want = _reference_scalar_value(M)
    for A in _born_both_ways(M):
        got = A.scalar_value()
        assert got == want and (got is None) == (want is None)
        assert A.is_identity() == (A.rows == A.cols and A == Mat.scalar(A.rows, ONE))


def test_scalar_value_cases():
    half, third = Scalar(Fraction(1, 2)), Scalar(Fraction(1, 3))
    g = Scalar(Fraction(2, 3), Fraction(-1, 3))
    i = Scalar.i()
    assert Mat(0, 0).scalar_value() is None and Mat(0, 0).is_identity()
    for shape in ((2, 3), (0, 2), (2, 0)):
        assert Mat(*shape).scalar_value() is None and not Mat(*shape).is_identity()
    assert Mat(3, 3).scalar_value() == ZERO and not Mat(3, 3).is_identity()
    assert Mat.identity(3).scalar_value() == ONE and Mat.identity(3).is_identity()
    # one off-diagonal entry, real or imaginary
    assert Mat(2, 2, [[1, 1], [0, 1]]).scalar_value() is None
    assert Mat(2, 2, [[1, 0], [i, 1]]).scalar_value() is None
    # equal numerators over unequal scales, and unequal numerators over one scale
    assert Mat(2, 2, [[half, 0], [0, third]]).scalar_value() is None
    assert Mat(2, 2, [[half, 0], [0, 3 * half]]).scalar_value() is None
    # Gaussian c, and diagonals that differ only in the imaginary part
    assert Mat.scalar(3, g).scalar_value() == g and Mat(2, 2, [[i, 0], [0, i]]).scalar_value() == i
    assert Mat(2, 2, [[1 + i, 0], [0, 1 - i]]).scalar_value() is None
    assert not Mat(2, 2, [[1, 0], [0, 1 + i]]).is_identity()
