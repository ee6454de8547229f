"""Scalars, and the objects that hold them, survive pickle and deepcopy.

A Scalar forbids writes to its slots, so restoring it must go around the
guard; every object holding Scalars inherits that.
"""

import copy
import pickle

import pytest

from intdiffops.classify import KroneckerBlockLabel
from intdiffops.linalg import Mat
from intdiffops.parser import parse_expression
from intdiffops.scalars import Scalar


def _read(m: Mat) -> Mat:
    m.data
    return m


CASES = {
    "scalar_q": lambda: Scalar(-7) / 3,
    "scalar_qi": lambda: Scalar(3, 1),
    "mat_fresh": lambda: Mat.identity(2) @ Mat(2, 2, [[1, Scalar(0, 1)], [Scalar(1, 2), 3]]),
    "mat_read": lambda: _read(Mat(2, 2, [[1, Scalar(0, 1)], [Scalar(1, 2), 3]])),
    "operator": lambda: parse_expression("(2+i)*d_1*H_2 - 1/3*int_2 + 5"),
    "kronecker_label": lambda: KroneckerBlockLabel("S4", 2, Scalar(3)),
}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("how", ["pickle", "deepcopy"])
def test_round_trip_keeps_value_and_hash(name, how):
    x = CASES[name]()
    y = pickle.loads(pickle.dumps(x)) if how == "pickle" else copy.deepcopy(x)
    assert type(y) is type(x)
    assert y == x and hash(y) == hash(x)


def test_a_restored_scalar_is_still_immutable():
    y = pickle.loads(pickle.dumps(Scalar(3, 1)))
    assert (y.nre, y.nim, y.den) == (3, 1, 1)
    with pytest.raises(AttributeError, match="Scalar is immutable"):
        y.nre = 4
