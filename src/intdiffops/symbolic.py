"""The one module that imports sympy: univariate factorization.

Nothing imports this module when the package loads.  `classify.factor_unipoly`
imports it inside its body for polynomials of degree >= 3, so a process that
factors nothing of higher degree never loads sympy.
Scalars cross into sympy as exact QQ or QQ_I domain elements and come back
from the numerators and denominators of those elements, never through
strings or floats.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from sympy import QQ, QQ_I, Poly, Symbol

from .poly import UniPoly
from .scalars import ZERO, Field, Scalar


def _to_domain(c: Scalar, dom):
    if dom is QQ and c.im:
        raise ValueError(f"coefficient {c} is not rational")
    re, im = (QQ(x.numerator, x.denominator) for x in (c.re, c.im))
    return re if dom is QQ else QQ_I(re, im)


def _from_domain(e, dom) -> Scalar:
    """Back from a QQ or QQ_I element; int() also reads gmpy2's mpq parts."""
    parts = (e,) if dom is QQ else (e.x, e.y)
    return Scalar(*(Fraction(int(q.numerator), int(q.denominator)) for q in parts))


def factor(p: UniPoly, field: Field) -> List[Tuple[UniPoly, int]]:
    """Monic irreducible factors over the field, with multiplicities."""
    dom = QQ_I if field.has_i else QQ
    top = p.degree() or 0
    f = Poly.from_list(
        [_to_domain(p.coeffs.get(d, ZERO), dom) for d in range(top, -1, -1)], Symbol("t"), domain=dom
    )
    out = []
    for g, mult in f.factor_list()[1]:
        coeffs = g.monic().rep.to_list()
        n = len(coeffs) - 1
        out.append((UniPoly({n - j: _from_domain(c, dom) for j, c in enumerate(coeffs)}), int(mult)))
    return out
