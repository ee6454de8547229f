"""Exact checks that do not run through the library's elimination code.

A matrix over Q(i) is checked through its realification: A + iB becomes the
rational block matrix [[A, -B], [B, A]].  That map is an injective ring
homomorphism that doubles the rank, so products, equality and rank over Q(i)
reduce to plain Fraction arithmetic here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from intdiffops.action import act_monomial
from intdiffops.scalars import ZERO

RatMat = List[List[Fraction]]


def real_form(m) -> RatMat:
    """Realification of a library `Mat` over Q(i)."""
    r, c = m.rows, m.cols
    out = [[Fraction(0)] * (2 * c) for _ in range(2 * r)]
    for i, row in enumerate(m.data):
        for j, x in enumerate(row):
            out[i][j] = out[i + r][j + c] = x.re
            out[i][j + c] = -x.im
            out[i + r][j] = x.im
    return out


def mul(a: RatMat, b: RatMat, inner: int) -> RatMat:
    """Product of realified matrices; `inner` is the shared dimension."""
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [Fraction(0)] * cols
        for k in range(inner):
            x = row[k]
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def product(*mats) -> RatMat:
    """Realified product of a chain of library matrices."""
    out = real_form(mats[0])
    for m in mats[1:]:
        out = mul(out, real_form(m), 2 * m.rows)
    return out


def rank(m) -> int:
    """Rank over Q(i) of a library `Mat`, by Gaussian elimination on Fractions."""
    rows = [row[:] for row in real_form(m)]
    r = 0
    for c in range(2 * m.cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        head = rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            if f:
                f /= head[c]
                rows[i] = [x - f * y for x, y in zip(rows[i], head)]
        r += 1
    return r // 2


def composed_action(outer, inner, alpha):
    """x^[alpha] pushed through `inner`, then through `outer`."""
    out = {}
    for beta, c in act_monomial(inner, alpha).items():
        for gamma, c2 in act_monomial(outer, beta).items():
            out[gamma] = out.get(gamma, ZERO) + c * c2
    return {g: c for g, c in out.items() if not c.is_zero()}


def sparse_sub(p, q):
    """Difference of two sparse monomial combinations."""
    out = dict(p)
    for g, c in q.items():
        out[g] = out.get(g, ZERO) - c
    return {g: c for g, c in out.items() if not c.is_zero()}
