"""Local ideals of D_n = K[H_1..H_n] at a maximal ideal, and finite quotients.

A LocalIdeal I satisfies m >= I >= m^i for the maximal ideal m at its center,
so D_n/I is finite dimensional.  Internally everything is computed in shifted
coordinates h_j = H_j - lambda_j, which turns m^i into a monomial ideal.

`QuotientBasis` keeps the span of I modulo m^i as one reduced Mat from
`linalg.rref`, and each normal form (a reduction, a coordinate column, a
multiplication matrix) is one product against it, so every elimination runs
in the linalg kernel.
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
    """Monomial basis and normal forms of D_n/I.

    The window is every monomial of degree below the order, graded-lex, in
    shifted coordinates; the products g*m of the generators with the window,
    terms of degree >= order dropped, span I modulo m^order.  Their `rref`
    is kept as one Mat, `span`, with no zero rows: its pivot columns are the
    leading monomials of I, and basis_monomials are the other ones.  As
    `span` is reduced, the normal form of a coefficient row v is
    v - v[pivots] @ span, so `reduce`, `coordinates` and
    `multiplication_matrix` each take it as one product against `span`.
    Reduction is linear and idempotent; every element of I (below the
    truncation order) reduces to zero.
    """

    def __init__(self, ideal: LocalIdeal):
        self.ideal = ideal
        n, i = ideal.n, ideal.order
        self.window = monomials_below(n, i)
        self.col_of = {e: j for j, e in enumerate(self.window)}
        products = [(g * MultiPoly.monomial(n, m)).truncate(i) for g in ideal.shifted for m in self.window]
        R, self.pivots = rref(self._rows([p for p in products if not p.is_zero()]))
        self.span = R.select_rows(range(len(self.pivots)))
        piv_set = set(self.pivots)
        self.free = [j for j in range(len(self.window)) if j not in piv_set]
        self.basis_monomials: List[Expo] = [self.window[j] for j in self.free]

    @property
    def dim(self) -> int:
        return len(self.basis_monomials)

    def _rows(self, polys: Sequence[MultiPoly]) -> Mat:
        """One row per polynomial: its coefficients at the window monomials,
        so terms of degree >= order drop out."""
        rows = [[p.coeffs.get(e, ZERO) for e in self.window] for p in polys]
        return Mat(len(polys), len(self.window), rows)

    def _normal_forms(self, polys: Sequence[MultiPoly]) -> Mat:
        """One row per polynomial: the coordinates of its normal form in the
        monomial basis."""
        V = self._rows(polys)
        return (V - V.select_cols(self.pivots) @ self.span).select_cols(self.free)

    def reduce(self, p: MultiPoly) -> MultiPoly:
        """Normal form of p in D_n/I (shifted coordinates in, shifted out)."""
        if p.n != self.ideal.n:
            raise ValueError("arity mismatch")
        return MultiPoly(p.n, dict(zip(self.basis_monomials, self._normal_forms([p]).row(0))))

    def coordinates(self, p: MultiPoly) -> Mat:
        """Coordinate column of the normal form of p in the monomial basis."""
        return self._normal_forms([p]).transpose()

    def multiplication_matrix(self, j: int) -> Mat:
        """Matrix of multiplication by h_j on D_n/I (nilpotent, 1-based slot)."""
        hj = MultiPoly.var(self.ideal.n, j)
        images = [hj * MultiPoly.monomial(self.ideal.n, e) for e in self.basis_monomials]
        return self._normal_forms(images).transpose()


def quotient_basis(ideal: LocalIdeal) -> QuotientBasis:
    return QuotientBasis(ideal)
