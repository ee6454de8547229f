"""Every elimination of `linalg` runs on one kernel: `rref`, `rank`,
`kernel_basis`, `solve_linear` and `invert` all reach `_sparse_echelon`,
over Q and over Q(i) alike."""

import pytest

from intdiffops import linalg
from intdiffops.linalg import Mat, invert, kernel_basis, rank, rref, solve_linear
from intdiffops.scalars import ONE, ZERO, Scalar

I = Scalar.i()
RATIONAL = Mat(3, 3, [[Scalar(2), ONE, ZERO], [ONE, Scalar(3), ONE], [ZERO, ONE, Scalar(4)]])
GAUSSIAN = Mat(3, 3, [[ONE, I, ZERO], [ZERO, Scalar(2), ONE + I], [ONE, ZERO, ONE]])
CALLS = {
    "rref": rref,
    "rank": rank,
    "kernel_basis": kernel_basis,
    "solve_linear": lambda A: solve_linear(A, Mat.col_vector([ONE, ZERO, -ONE])),
    "invert": invert,
}


@pytest.mark.parametrize("A", [RATIONAL, GAUSSIAN], ids=["q", "qi"])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_every_elimination_reaches_the_sparse_kernel(monkeypatch, name, A):
    calls = []
    kernel = linalg._sparse_echelon

    def counted(rows, ncols, gaussian):
        calls.append(gaussian)
        return kernel(rows, ncols, gaussian)

    monkeypatch.setattr(linalg, "_sparse_echelon", counted)
    CALLS[name](A)
    assert calls == [A._int()[1] is not None]
