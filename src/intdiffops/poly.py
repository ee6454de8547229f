"""Sparse exact polynomials: univariate in H and multivariate in H_1..H_n.

Term order everywhere is graded lexicographic on exponent vectors; the zero
polynomial has degree None.
"""

from __future__ import annotations

from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .scalars import ONE, ZERO, Scalar, power, signed_sum


class UniPoly:
    """Polynomial in one variable (written H) with Scalar coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Dict[int, Scalar] | None = None):
        clean: Dict[int, Scalar] = {}
        if coeffs:
            for d, c in coeffs.items():
                c = Scalar.of(c)
                if d < 0:
                    raise ValueError("negative degree")
                if not c.is_zero():
                    clean[d] = c
        self.coeffs = clean

    @staticmethod
    def const(c) -> "UniPoly":
        return UniPoly({0: Scalar.of(c)})

    @staticmethod
    def var() -> "UniPoly":
        return UniPoly({1: ONE})

    @staticmethod
    def monomial(d: int, c=1) -> "UniPoly":
        return UniPoly({d: Scalar.of(c)})

    @staticmethod
    def linear_shifted(shift) -> "UniPoly":
        """The polynomial H + shift."""
        return UniPoly({1: ONE, 0: Scalar.of(shift)})

    def degree(self) -> Optional[int]:
        if not self.coeffs:
            return None
        return max(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Scalar:
        d = self.degree()
        if d is None:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[d]

    def __add__(self, other: "UniPoly") -> "UniPoly":
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            out[d] = out.get(d, ZERO) + c
        return UniPoly(out)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            out[d] = out.get(d, ZERO) - c
        return UniPoly(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly({d: -c for d, c in self.coeffs.items()})

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        out: Dict[int, Scalar] = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                d = d1 + d2
                out[d] = out.get(d, ZERO) + c1 * c2
        return UniPoly(out)

    def scale(self, c) -> "UniPoly":
        c = Scalar.of(c)
        return UniPoly({d: c * x for d, x in self.coeffs.items()})

    def __pow__(self, k: int) -> "UniPoly":
        if k < 0:
            raise ValueError("negative power")
        return power(self, k, UniPoly.const(1))

    def shift(self, d) -> "UniPoly":
        """Substitute H -> H + d, fully expanded."""
        d = Scalar.of(d)
        out: Dict[int, Scalar] = {}
        for deg, c in self.coeffs.items():
            for j in range(deg + 1):
                coeff = c * comb(deg, j) * d ** (deg - j)
                out[j] = out.get(j, ZERO) + coeff
        return UniPoly(out)

    def eval(self, x) -> Scalar:
        x = Scalar.of(x)
        total = ZERO
        for d, c in self.coeffs.items():
            total = total + c * x ** d
        return total

    def divmod(self, other: "UniPoly") -> Tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        q: Dict[int, Scalar] = {}
        rem = self
        dd = other.degree()
        lead = other.leading()
        while not rem.is_zero() and rem.degree() >= dd:
            d = rem.degree() - dd
            c = rem.leading() / lead
            q[d] = q.get(d, ZERO) + c
            rem = rem - other * UniPoly.monomial(d, c)
        return UniPoly(q), rem

    def divisible_by(self, other: "UniPoly") -> bool:
        _, r = self.divmod(other)
        return r.is_zero()

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        return f"UniPoly({self})"

    def __str__(self):
        body = lambda d: "1" if d == 0 else "H" if d == 1 else f"H^{d}"
        return signed_sum((self.coeffs[d], body(d)) for d in sorted(self.coeffs, reverse=True))


Expo = Tuple[int, ...]


def graded_lex_key(exp: Expo) -> Tuple:
    # ascending total degree, then lexicographic on the exponent vector
    return (sum(exp), exp)


class MultiPoly:
    """Polynomial in H_1..H_n, n fixed per instance."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Dict[Expo, Scalar] | None = None):
        if n < 0:
            raise ValueError("negative arity")
        self.n = n
        clean: Dict[Expo, Scalar] = {}
        if coeffs:
            for e, c in coeffs.items():
                e = tuple(e)
                if len(e) != n or any(k < 0 for k in e):
                    raise ValueError(f"bad exponent vector {e} for arity {n}")
                c = Scalar.of(c)
                if not c.is_zero():
                    clean[e] = c
        self.coeffs = clean

    @staticmethod
    def const(n: int, c) -> "MultiPoly":
        return MultiPoly(n, {(0,) * n: Scalar.of(c)})

    @staticmethod
    def var(n: int, j: int) -> "MultiPoly":
        """The variable H_j (1-based slot index)."""
        if not 1 <= j <= n:
            raise ValueError(f"slot {j} out of range 1..{n}")
        e = [0] * n
        e[j - 1] = 1
        return MultiPoly(n, {tuple(e): ONE})

    @staticmethod
    def monomial(n: int, exp: Sequence[int], c=1) -> "MultiPoly":
        return MultiPoly(n, {tuple(exp): Scalar.of(c)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def total_degree(self) -> Optional[int]:
        if not self.coeffs:
            return None
        return max(sum(e) for e in self.coeffs)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, ZERO) + c
        return MultiPoly(self.n, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, ZERO) - c
        return MultiPoly(self.n, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.n, {e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out: Dict[Expo, Scalar] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, ZERO) + c1 * c2
        return MultiPoly(self.n, out)

    def scale(self, c) -> "MultiPoly":
        c = Scalar.of(c)
        return MultiPoly(self.n, {e: c * x for e, x in self.coeffs.items()})

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power")
        return power(self, k, MultiPoly.const(self.n, 1))

    def shift_slot(self, j: int, d) -> "MultiPoly":
        """Substitute H_j -> H_j + d, fully expanded (1-based slot)."""
        if not 1 <= j <= self.n:
            raise ValueError(f"slot {j} out of range 1..{self.n}")
        d = Scalar.of(d)
        out: Dict[Expo, Scalar] = {}
        for exp, c in self.coeffs.items():
            k = exp[j - 1]
            for m in range(k + 1):
                e = list(exp)
                e[j - 1] = m
                coeff = c * comb(k, m) * d ** (k - m)
                key = tuple(e)
                out[key] = out.get(key, ZERO) + coeff
        return MultiPoly(self.n, out)

    def truncate(self, max_total_degree: int) -> "MultiPoly":
        """Drop all terms of total degree >= max_total_degree."""
        return MultiPoly(
            self.n,
            {e: c for e, c in self.coeffs.items() if sum(e) < max_total_degree},
        )

    def eval(self, point: Sequence) -> Scalar:
        if len(point) != self.n:
            raise ValueError("evaluation point arity mismatch")
        pt = [Scalar.of(x) for x in point]
        total = ZERO
        for e, c in self.coeffs.items():
            term = c
            for x, k in zip(pt, e):
                term = term * x ** k
            total = total + term
        return total

    def terms_sorted(self) -> List[Tuple[Expo, Scalar]]:
        return [(e, self.coeffs[e]) for e in sorted(self.coeffs, key=graded_lex_key)]

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, frozenset(self.coeffs.items())))

    def __repr__(self):
        return f"MultiPoly(n={self.n}, {self})"

    def __str__(self):
        def body(e):
            factors = [f"H_{j}" if k == 1 else f"H_{j}^{k}" for j, k in enumerate(e, start=1) if k]
            return "*".join(factors) or "1"

        return signed_sum((c, body(e)) for e, c in reversed(self.terms_sorted()))

    def _check(self, other: "MultiPoly"):
        if self.n != other.n:
            raise ValueError("arity mismatch")


def monomials_below(n: int, bound: int) -> List[Expo]:
    """All exponent vectors in n variables of total degree < bound, graded-lex."""
    out: List[Expo] = []

    def rec(prefix: List[int], remaining: int, budget: int):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for k in range(budget + 1):
            rec(prefix + [k], remaining - 1, budget - k)

    for total in range(bound):
        start = len(out)
        rec([], n, total)
        chunk = [e for e in out[start:] if sum(e) == total]
        out[start:] = sorted(chunk)
    return out
