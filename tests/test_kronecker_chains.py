"""`classify.kronecker_decompose_with_iso` builds the Kronecker chains from
the Wong limits, with no End: checked against the End-based path kept in
`kronecker_reference`, on planted sums scrambled over Q and Q(i)."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intdiffops import classify, linalg
from intdiffops.classify import (
    FieldError,
    KroneckerBlockLabel,
    KroneckerRep,
    kronecker_block,
    kronecker_decompose_with_iso,
    kronecker_sum,
)
from intdiffops.linalg import DomainError, Mat, QuiverRep, block_diag, rank
from intdiffops.scalars import QQ, QQI, Scalar

from kronecker_reference import reference_decompose_with_iso, reference_label


def _scramble(d, rng, gaussian):
    while True:
        m = Mat(d, d, [[Scalar(rng.randint(-2, 2), rng.randint(-1, 1) if gaussian else 0) for _ in range(d)] for _ in range(d)])
        if rank(m) == d:
            return m


def _planted(labels, field, rng):
    S = kronecker_sum([kronecker_block(l) for l in labels])
    U, V = _scramble(S.d1, rng, field is QQI), _scramble(S.d2, rng, field is QQI)
    return KroneckerRep(V @ S.A @ U, V @ S.B @ U)


def _multiplies_back(R, labels, P, Q):
    can = kronecker_sum([kronecker_block(l) for l in labels])
    return rank(P) == R.d2 and rank(Q) == R.d1 and R.A @ Q == P @ can.A and R.B @ Q == P @ can.B


def _labels(field):
    """Lists of labels from every series, S1 and S2(0) included, whose sum
    has d1 + d2 <= 10; S4 eigenvalues repeat, 0 among them."""
    lams = [Scalar(v) for v in (0, 2)] + ([Scalar(0, 1)] if field is QQI else [Scalar(-1)])
    label = st.one_of(
        st.sampled_from(
            [KroneckerBlockLabel("S1")]
            + [KroneckerBlockLabel("S2", n) for n in (0, 1, 2)]
            + [KroneckerBlockLabel(s, n) for s in ("S3", "S5") for n in (1, 2)]
        ),
        st.builds(KroneckerBlockLabel, st.just("S4"), st.integers(1, 3), st.sampled_from(lams)),
    )
    return st.lists(label, min_size=1, max_size=5).filter(
        lambda labels: sum(sum(kronecker_block(l).dims) for l in labels) <= 10
    )


@given(
    st.sampled_from([QQ, QQI]).flatmap(lambda field: st.tuples(st.just(field), _labels(field))),
    st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_chains_match_the_end_based_reference(case, seed):
    field, labels_in = case
    R = _planted(labels_in, field, random.Random(seed))
    labels, P, Q = kronecker_decompose_with_iso(R, field)
    ref_labels, ref_P, ref_Q = reference_decompose_with_iso(R, field)
    assert labels == ref_labels == sorted(labels_in, key=KroneckerBlockLabel.sort_key)
    assert _multiplies_back(R, labels, P, Q)
    assert _multiplies_back(R, ref_labels, ref_P, ref_Q)


def test_no_end_is_solved(monkeypatch):
    def refused(*args):
        raise AssertionError("End-based step called")

    for name in ("hom_space", "split_indecomposables", "_splitting_element"):
        monkeypatch.setattr(classify, name, refused)
    monkeypatch.setattr(linalg, "hom_space", refused)
    labels_in = [
        KroneckerBlockLabel("S1"),
        KroneckerBlockLabel("S2", 0),
        KroneckerBlockLabel("S2", 2),
        KroneckerBlockLabel("S3", 1),
        KroneckerBlockLabel("S4", 2, Scalar(3)),
        KroneckerBlockLabel("S5", 2),
    ]
    R = _planted(labels_in, QQ, random.Random(4))
    labels, P, Q = kronecker_decompose_with_iso(R, QQ)
    assert labels == sorted(labels_in, key=KroneckerBlockLabel.sort_key)
    assert _multiplies_back(R, labels, P, Q)


def test_the_first_factor_outside_the_field_is_named():
    # B has min poly (x^2 - 2)(x^2 - 3): the error names the factor that
    # comes first in factor order, with the message of a single factor
    B = block_diag(Mat(2, 2, [[0, 2], [1, 0]]), Mat(2, 2, [[0, 3], [1, 0]]))
    first = classify.factor_unipoly(classify.min_poly(B), QQ)[0][0]
    message = f"pencil eigenvalue not in the field q: min poly {first}"
    with pytest.raises(FieldError, match=re.escape(message) + "$"):
        kronecker_decompose_with_iso(KroneckerRep(Mat.identity(4), B), QQ)
    single = KroneckerRep(Mat.identity(2), Mat(2, 2, [[0, 2], [1, 0]]))
    with pytest.raises(FieldError, match=re.escape("pencil eigenvalue not in the field q: min poly H^2 - 2") + "$"):
        kronecker_decompose_with_iso(single, QQ)


def test_a_piece_in_no_series_is_named_by_its_dimensions():
    R = QuiverRep((3, 1), [(0, 1, Mat.zero(1, 3)), (0, 1, Mat.zero(1, 3))])
    with pytest.raises(DomainError, match=r"dimensions \(3,1\) is in no series"):
        reference_label(R, QQ)
