"""Hand-written references for the local quotients D_n/I and the tameness
test.

`local_ideals.QuotientBasis` reads every normal form as one product against
its reduced span, and `classify.tame_local_ideal` reads the span of the
quotient by I + m^3.  The code here does both the long way:

- `HandQuotient` reduces a coefficient vector against the pivot rows of
  `rref` one row at a time, entry by entry on Scalars;
- `hand_tame_verdict` builds the rows g*m (truncated at degree 3) of the
  ideal itself, adds every monomial of degree >= order when the order is
  below 3, and reads the quadratic forms of its span.
"""

from typing import List

from intdiffops.classify import TameVerdict
from intdiffops.linalg import Mat, kernel_basis, rank, rref
from intdiffops.poly import MultiPoly, monomials_below
from intdiffops.scalars import ZERO, Scalar


def poly_vec(p: MultiPoly, col_of) -> List[Scalar]:
    v = [ZERO] * len(col_of)
    for e, c in p.coeffs.items():
        v[col_of[e]] = c
    return v


class HandQuotient:
    """Monomial basis, normal forms and multiplication matrices of D_n/I by
    row-at-a-time reduction."""

    def __init__(self, ideal):
        self.ideal = ideal
        n, i = ideal.n, ideal.order
        self.window = monomials_below(n, i)
        self.col_of = {e: j for j, e in enumerate(self.window)}
        rows = []
        for g in ideal.shifted:
            for m in self.window:
                prod = (g * MultiPoly.monomial(n, m)).truncate(i)
                if not prod.is_zero():
                    rows.append(poly_vec(prod, self.col_of))
        if rows:
            R, piv = rref(Mat.from_rows(rows, len(self.window)))
            self.red_rows = [R.data[r] for r in range(len(piv))]
            self.pivots = piv
        else:
            self.red_rows = []
            self.pivots = []
        piv_set = set(self.pivots)
        self.basis_monomials = [e for j, e in enumerate(self.window) if j not in piv_set]
        self.basis_index = {e: k for k, e in enumerate(self.basis_monomials)}

    @property
    def dim(self) -> int:
        return len(self.basis_monomials)

    def reduce(self, p: MultiPoly) -> MultiPoly:
        v = poly_vec(p.truncate(self.ideal.order), self.col_of)
        for row, c in zip(self.red_rows, self.pivots):
            f = v[c]
            if not f.is_zero():
                v = [v[j] - f * row[j] for j in range(len(v))]
        return MultiPoly(self.ideal.n, {e: v[j] for j, e in enumerate(self.window)})

    def coordinates(self, p: MultiPoly) -> Mat:
        col = [ZERO] * self.dim
        for e, c in self.reduce(p).coeffs.items():
            col[self.basis_index[e]] = c
        return Mat.col_vector(col)

    def multiplication_matrix(self, j: int) -> Mat:
        hj = MultiPoly.var(self.ideal.n, j)
        cols = [self.coordinates(hj * MultiPoly.monomial(self.ideal.n, e)) for e in self.basis_monomials]
        return Mat.from_cols(cols, self.dim)


def hand_tame_verdict(ideal, field) -> TameVerdict:
    """The tameness verdict of a two-variable local ideal from its own
    rows: the span of the pure quadratic forms it holds modulo m^3."""
    window = monomials_below(2, 3)
    col_of = {e: j for j, e in enumerate(window)}
    rows = []
    for g in ideal.shifted:
        for m in window:
            prod = (g * MultiPoly.monomial(2, m)).truncate(3)
            if not prod.is_zero():
                rows.append(poly_vec(prod, col_of))
    if ideal.order < 3:
        for e in window:
            if sum(e) >= ideal.order:
                rows.append(poly_vec(MultiPoly.monomial(2, e), col_of))
    R, piv = rref(Mat.from_rows(rows, len(window)))
    space = R.data[: len(piv)]
    low = Mat(3, len(space), [[row[col_of[e]] for row in space] for e in window if sum(e) < 2])
    quad = Mat(3, len(space), [[row[col_of[e]] for row in space] for e in ((2, 0), (1, 1), (0, 2))])
    forms = quad @ Mat.from_cols(kernel_basis(low), len(space))
    m = rank(forms)
    if m == 0:
        return TameVerdict(False, False)
    if m >= 2:
        return TameVerdict(True, False)
    a, b, c = next(q for q in map(forms.col, range(forms.cols)) if any(not x.is_zero() for x in q))
    disc = b * b - a * c * Scalar(4)
    square = field.sqrt(disc) is not None
    return TameVerdict(not disc.is_zero() and square, not disc.is_zero() and not square)
