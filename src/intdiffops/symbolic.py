"""The one module that imports sympy: univariate factorization and generic
determinants.

Nothing imports this module when the package loads.  `classify.factor_unipoly`
imports it for polynomials of degree >= 3, and `linalg.invertible_combination`
for certificates whose integer grid is larger than MAX_CERTIFICATE_POINTS,
both inside their bodies; a process that asks for neither never loads sympy.
Scalars cross into sympy as exact QQ or QQ_I domain elements and come back
from the numerators and denominators of those elements, never through
strings or floats.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from sympy import QQ, QQ_I, Poly, Symbol
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import ring

from .linalg import Mat
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


def invertible_point(blocks: Sequence[Sequence[Mat]]) -> Optional[List[int]]:
    """Integers c_i with every sum_i c_i * mats[i] invertible, for mats in
    blocks (square, nonempty, one matrix per variable), or None when no
    combination is.

    Each det_b(t) = det(sum_i t_i * mats[i]) is computed over K[t].  If one
    is the zero polynomial, no combination is invertible.  Otherwise t_1,
    t_2, ... are fixed in turn, each to the first value in 0..D keeping every
    det_b nonzero, where D is the degree of their product in that variable;
    a nonzero polynomial of degree D in one variable has at most D roots.
    """
    k = len(blocks[0])
    gaussian = any(x.im for mats in blocks for m in mats for row in m.data for x in row)
    dom = QQ_I if gaussian else QQ
    R, *ts = ring([f"t{i}" for i in range(k)], dom)
    dets = []
    for mats in blocks:
        n = mats[0].rows
        hs = [[[_to_domain(x, dom) for x in row] for row in m.data] for m in mats]
        gen = [[sum((t * h[r][c] for t, h in zip(ts, hs)), R.zero) for c in range(n)] for r in range(n)]
        d = DomainMatrix(gen, (n, n), R.to_domain()).det()
        if not d:
            return None
        dets.append(d)
    point = []
    for t in ts:
        for v in range(sum(d.degree(t) for d in dets) + 1):
            fixed = [d.subs(t, v) for d in dets]
            if all(fixed):
                dets = fixed
                point.append(v)
                break
    return point
