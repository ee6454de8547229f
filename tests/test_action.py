import pytest

from intdiffops import action
from intdiffops.action import (
    TruncatedSpace,
    act_monomial,
    compose,
    is_zero_by_action,
    matrices_equal_on_overlap,
    to_matrix,
)
from intdiffops.modules import DomainError
from intdiffops.operators import Operator
from intdiffops.scalars import ONE, Scalar


def test_generator_actions_on_divided_powers():
    H = Operator.gen_H(1, 1)
    d = Operator.gen_d(1, 1)
    I = Operator.gen_int(1, 1)
    for s in range(5):
        assert act_monomial(H, (s,)) == {(s,): Scalar(s + 1)}
        assert act_monomial(I, (s,)) == {(s + 1,): ONE}
        if s == 0:
            assert act_monomial(d, (s,)) == {}
        else:
            assert act_monomial(d, (s,)) == {(s - 1,): ONE}
    e = Operator.gen_e(1, 2, 3, 1)
    assert act_monomial(e, (3,)) == {(2,): ONE}
    assert act_monomial(e, (2,)) == {}


def test_multi_slot_action():
    a = Operator.gen_d(2, 1) * Operator.gen_int(2, 2)
    assert act_monomial(a, (1, 0)) == {(0, 1): ONE}
    assert act_monomial(a, (0, 0)) == {}


def test_zero_detection_at_index_bound():
    d = Operator.gen_d(1, 1)
    I = Operator.gen_int(1, 1)
    e = Operator.gen_e(1, 0, 0, 1)
    a = I * d - Operator.one(1) + e
    assert a.is_zero()
    assert is_zero_by_action(a)
    b = I * d - Operator.one(1)
    assert not is_zero_by_action(b)


def test_composition_matches_product():
    a = Operator.gen_H(1, 1) * Operator.gen_d(1, 1)
    b = Operator.gen_int(1, 1) ** 2
    pa = to_matrix(a, 8)
    pb = to_matrix(b, 6)
    pa_wide = to_matrix(a, 6 + b.max_positive_degree())
    prod = to_matrix(a * b, 6)
    composed = compose(pa_wide, pb)
    wrapped = type(prod)(pb.domain, pa_wide.codomain, composed)
    assert matrices_equal_on_overlap(prod, wrapped)


def test_truncated_space_indexing():
    sp = TruncatedSpace(2, 3)
    assert sp.dim == 16
    assert sp.basis[sp.index[(1, 2)]] == (1, 2)


def test_action_size_limit_is_checked_before_any_work(monkeypatch):
    a = Operator.gen_int(2, 1) ** 2  # domain (N+1)^2, codomain (N+3)^2
    monkeypatch.setattr(action, "MAX_ACTION_CELLS", 16 * 36)
    assert to_matrix(a, 3).matrix.shape == (36, 16)
    monkeypatch.setattr(action, "MAX_ACTION_CELLS", 16 * 36 - 1)
    monkeypatch.setattr(action, "TruncatedSpace", None)  # reached only past the check
    with pytest.raises(DomainError, match=r"16 domain x 36 codomain monomials \(576 cells\)"):
        to_matrix(a, 3)
