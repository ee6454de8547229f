"""Local ideals of D_n = K[H_1..H_n] at a maximal ideal, and finite quotients.

A LocalIdeal I satisfies m >= I >= m^i for the maximal ideal m at its center,
so D_n/I is finite dimensional.  Internally everything is computed in shifted
coordinates h_j = H_j - lambda_j, which turns m^i into a monomial ideal.
"""

from __future__ import annotations

from typing import List, Sequence

from .linalg import Mat, rref
from .poly import Expo, MultiPoly, monomials_below
from .scalars import ZERO, Scalar


class MaxIdeal:
    """The maximal ideal (H_1 - lambda_1, ..., H_n - lambda_n)."""

    __slots__ = ("center",)

    def __init__(self, center: Sequence):
        self.center = tuple(Scalar.of(c) for c in center)

    @property
    def n(self) -> int:
        return len(self.center)

    def __eq__(self, other):
        return isinstance(other, MaxIdeal) and self.center == other.center

    def __hash__(self):
        return hash(self.center)

    def __repr__(self):
        inside = ", ".join(f"H_{j+1}-{c}" for j, c in enumerate(self.center))
        return f"MaxIdeal({inside})"


class LocalIdeal:
    """An ideal I with m >= I >= m^i, given by generators inside m.

    Generators are MultiPoly in the original H coordinates; they are shifted
    to h coordinates on construction and must have zero constant term there.
    """

    __slots__ = ("center", "order", "generators", "shifted")

    def __init__(self, center: MaxIdeal, order: int, generators: Sequence[MultiPoly] = ()):
        if order <= 0:
            raise ValueError("nilpotency order must be positive")
        self.center = center
        self.order = order
        self.generators = tuple(generators)
        shifted = []
        for g in self.generators:
            if g.n != center.n:
                raise ValueError("generator arity mismatch")
            h = g
            for j, lam in enumerate(center.center, start=1):
                h = h.shift_slot(j, lam)
            if h.coeffs.get((0,) * center.n, ZERO) != ZERO:
                raise ValueError(f"generator {g} does not lie in the maximal ideal")
            shifted.append(h)
        self.shifted = tuple(shifted)

    @staticmethod
    def from_shifted(center: MaxIdeal, order: int, shifted_gens: Sequence[MultiPoly]) -> "LocalIdeal":
        """Build from generators already written in h_j = H_j - lambda_j."""
        back = []
        for g in shifted_gens:
            h = g
            for j, lam in enumerate(center.center, start=1):
                h = h.shift_slot(j, -lam)
            back.append(h)
        return LocalIdeal(center, order, back)

    @property
    def n(self) -> int:
        return self.center.n

    def __repr__(self):
        return f"LocalIdeal(center={self.center!r}, order={self.order}, gens={list(self.generators)})"


class QuotientBasis:
    """Monomial basis and normal-form reduction of D_n/I.

    basis_monomials are exponent vectors in shifted coordinates, graded-lex.
    Reduction is linear and idempotent; every element of I (below the
    truncation order) reduces to zero.
    """

    def __init__(self, ideal: LocalIdeal):
        self.ideal = ideal
        n, i = ideal.n, ideal.order
        self.window = monomials_below(n, i)
        self.col_of = {e: j for j, e in enumerate(self.window)}
        rows = []
        for g in ideal.shifted:
            for m in self.window:
                prod = (g * MultiPoly.monomial(n, m)).truncate(i)
                if not prod.is_zero():
                    rows.append(self._vector(prod))
        if rows:
            R, piv = rref(Mat.from_rows(rows, len(self.window)))
            self.red_rows = [R.data[r] for r in range(len(piv))]
            self.pivots = piv
        else:
            self.red_rows = []
            self.pivots = []
        piv_set = set(self.pivots)
        self.basis_monomials: List[Expo] = [
            e for j, e in enumerate(self.window) if j not in piv_set
        ]
        self.basis_index = {e: k for k, e in enumerate(self.basis_monomials)}

    @property
    def dim(self) -> int:
        return len(self.basis_monomials)

    def _vector(self, p: MultiPoly) -> List[Scalar]:
        v = [ZERO] * len(self.window)
        for e, c in p.coeffs.items():
            v[self.col_of[e]] = c
        return v

    def reduce(self, p: MultiPoly) -> MultiPoly:
        """Normal form of p in D_n/I (shifted coordinates in, shifted out)."""
        if p.n != self.ideal.n:
            raise ValueError("arity mismatch")
        v = self._vector(p.truncate(self.ideal.order))
        for row, c in zip(self.red_rows, self.pivots):
            f = v[c]
            if not f.is_zero():
                v = [v[j] - f * row[j] for j in range(len(v))]
        return MultiPoly(self.ideal.n, {e: v[j] for j, e in enumerate(self.window)})

    def coordinates(self, p: MultiPoly) -> Mat:
        """Coordinate column of the normal form of p in the monomial basis."""
        nf = self.reduce(p)
        col = [ZERO] * self.dim
        for e, c in nf.coeffs.items():
            col[self.basis_index[e]] = c
        return Mat.col_vector(col)

    def multiplication_matrix(self, j: int) -> Mat:
        """Matrix of multiplication by h_j on D_n/I (nilpotent, 1-based slot)."""
        hj = MultiPoly.var(self.ideal.n, j)
        cols = [
            self.coordinates(hj * MultiPoly.monomial(self.ideal.n, e))
            for e in self.basis_monomials
        ]
        return Mat.from_cols(cols, self.dim)


def quotient_basis(ideal: LocalIdeal) -> QuotientBasis:
    return QuotientBasis(ideal)
