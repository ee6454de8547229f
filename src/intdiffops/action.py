"""Exact action of operators on truncated polynomial spaces.

The representation space is spanned by divided-power monomials
x^[alpha] = x^alpha / alpha!; on that basis every generator acts with
integer matrix entries:

    H_i   x^[a] = (a_i + 1) x^[a]
    d_i   x^[a] = x^[a - e_i]         (0 when a_i = 0)
    int_i x^[a] = x^[a + e_i]
    e[s,t]_i x^[a] = [a_i = t] * x^[a with slot i set to s]

This module is the verification oracle for the symbolic engine: a canonical
operator is zero iff its action matrix vanishes on a large enough window.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional, Tuple

from .linalg import DomainError, Mat, _lowest, _mat, _unzip
from .operators import Operator, Slot, TermN, over_denominator
from .scalars import Scalar

# largest action matrix (codomain x domain cells) `to_matrix` builds
MAX_ACTION_CELLS = 1_000_000

Monomial = Tuple[int, ...]


class TruncatedSpace:
    """Divided-power monomials with every exponent in [0..N], lex ordered."""

    def __init__(self, n: int, N: int):
        if N < 0:
            raise ValueError("negative degree bound")
        self.n = n
        self.N = N
        self.basis: List[Monomial] = [
            tuple(a) for a in product(range(N + 1), repeat=n)
        ]
        self.index = {a: j for j, a in enumerate(self.basis)}

    @property
    def dim(self) -> int:
        return len(self.basis)


def act_slot_term(slot: Slot, s: int) -> Optional[Tuple[int, int]]:
    """Apply one slot term to x^[s]; returns (new exponent, int coeff) or None."""
    kind = slot[0]
    if kind == "H":
        return s, (s + 1) ** slot[1]
    if kind == "D":
        i, k = slot[1], slot[2]
        if s < i:
            return None
        return s - i, (s - i + 1) ** k
    if kind == "I":
        i, k = slot[1], slot[2]
        return s + i, (s + 1) ** k
    # E(u, v)
    u, v = slot[1], slot[2]
    if s != v:
        return None
    return u, 1


def act_term(term: TermN, alpha: Monomial) -> Optional[Tuple[Monomial, int]]:
    out = []
    coeff = 1
    for slot, s in zip(term, alpha):
        hit = act_slot_term(slot, s)
        if hit is None:
            return None
        s2, c = hit
        out.append(s2)
        coeff *= c
    return tuple(out), coeff


def _image(a: Operator, alpha: Monomial) -> Tuple[Dict[Monomial, int], Dict[Monomial, int]]:
    """Integer numerators (re, im) of x^[alpha] under a, over a.den; the
    sums may hold zeros."""
    re: Dict[Monomial, int] = {}
    im: Dict[Monomial, int] = {}
    ims = a.im or {}
    for term, cr in a.re.items():
        hit = act_term(term, alpha)
        if hit is None:
            continue
        beta, k = hit
        re[beta] = re.get(beta, 0) + cr * k
        ci = ims.get(term)
        if ci:
            im[beta] = im.get(beta, 0) + ci * k
    return re, im


def act_monomial(a: Operator, alpha: Monomial) -> Dict[Monomial, Scalar]:
    """Image of x^[alpha] under a, as a sparse monomial combination, summed
    on a's integer numerators."""
    if len(alpha) != a.n:
        raise ValueError("monomial arity mismatch")
    return over_denominator(a.den, *_image(a, alpha))


class ActionMatrix:
    """Exact matrix of an operator from bound N_in into bound N_out."""

    def __init__(self, domain: TruncatedSpace, codomain: TruncatedSpace, matrix: Mat):
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix

    @property
    def N_in(self) -> int:
        return self.domain.N

    @property
    def N_out(self) -> int:
        return self.codomain.N


def _check_action_cells(a: Operator, N: int):
    """Refuse, before any work, an action window on exponents up to N whose
    matrix would exceed MAX_ACTION_CELLS."""
    _check_cells(a.n, max(N + 1, 0), max(N + 1 + a.max_positive_degree(), 0))


def check_action_window(n: int, N: int):
    """Refuse an action window of arity n on exponents up to N from its
    sizes alone.  No operator lowers the codomain bound below N, so every
    action matrix there has at least (N + 1)^(2n) cells; a caller that
    refuses here need not build the operator at all.  `to_matrix` still
    makes the exact check once the operator is known."""
    base = max(N + 1, 0)
    _check_cells(n, base, base, "at least ")


def _check_cells(n: int, dom_base: int, cod_base: int, bound: str = ""):
    """DomainError when (dom_base * cod_base)^n cells exceed the limit;
    `bound` prefixes the codomain and cell counts when they are bounds."""
    if (dom_base * cod_base) ** n > MAX_ACTION_CELLS:
        raise DomainError(
            f"action matrix on {_power(dom_base, n)} domain x {bound}{_power(cod_base, n)} codomain "
            f"monomials ({bound}{_power(dom_base * cod_base, n)} cells) exceeds the limit "
            f"MAX_ACTION_CELLS = {MAX_ACTION_CELLS}"
        )


def _power(base: int, n: int) -> str:
    """base^n in decimal while short, else as written: Python refuses to
    print an int of more than about 4,300 digits."""
    v = base**n
    return str(v) if v.bit_length() <= 256 else f"{base}^{n}"


def to_matrix(a: Operator, N: int) -> ActionMatrix:
    """Action matrix on exponents up to N; the codomain bound is enlarged by
    the operator's maximal positive degree so no image is truncated.  The
    integer images over a.den fill the matrix's integer rows directly."""
    _check_action_cells(a, N)
    dom = TruncatedSpace(a.n, N)
    cod = TruncatedSpace(a.n, N + a.max_positive_degree())
    re = [[0] * dom.dim for _ in range(cod.dim)]
    im = [[0] * dom.dim for _ in range(cod.dim)] if a.im else None
    for j, alpha in enumerate(dom.basis):
        image_re, image_im = _image(a, alpha)
        for beta, v in image_re.items():
            re[cod.index[beta]][j] = v
        for beta, v in image_im.items():
            im[cod.index[beta]][j] = v
    rows = [_lowest(r, None if im is None else im[i], a.den) for i, r in enumerate(re)]
    return ActionMatrix(dom, cod, _mat(cod.dim, dom.dim, *_unzip(rows)))


def matrices_equal_on_overlap(p: ActionMatrix, q: ActionMatrix) -> bool:
    """Compare two action matrices on their common domain/codomain window."""
    if p.domain.n != q.domain.n:
        return False
    n = p.domain.n
    N_in = min(p.N_in, q.N_in)
    N_out = min(p.N_out, q.N_out)
    dom = TruncatedSpace(n, N_in)
    cod = TruncatedSpace(n, N_out)
    for alpha in dom.basis:
        for beta in cod.basis:
            va = p.matrix.data[p.codomain.index[beta]][p.domain.index[alpha]]
            vb = q.matrix.data[q.codomain.index[beta]][q.domain.index[alpha]]
            if va != vb:
                return False
    return True


def compose(outer: ActionMatrix, inner: ActionMatrix) -> Mat:
    """Matrix of outer applied after inner, restricting the middle bound."""
    if outer.N_in < inner.N_out:
        raise ValueError("composition window mismatch")
    if outer.N_in == inner.N_out:
        return outer.matrix @ inner.matrix
    # inner's codomain embeds in outer's domain: keep outer's columns there
    return outer.matrix.select_cols(outer.domain.index[beta] for beta in inner.codomain.basis) @ inner.matrix


def is_zero_by_action(a: Operator) -> bool:
    """Faithfulness check on a finite window.

    Beyond the largest d/int/e index every graded component acts as a shift
    composed with a polynomial in the slot degrees, so probing one more point
    per polynomial degree decides vanishing exactly.  Decided from the
    integer images of the window's monomials, stopping at the first nonzero
    one."""
    B = a.index_bound() + a.max_poly_degree() + 1
    _check_action_cells(a, B)
    for alpha in TruncatedSpace(a.n, B).basis:
        re, im = _image(a, alpha)
        if any(re.values()) or any(im.values()):
            return False
    return True
