"""Representation-type verdicts and tame-case classification machinery.

Covers: the two-arrow quiver (pencil) representations with their five series
of indecomposables, string and band modules over K[h1,h2]/(h1h2), the
four-dimensional local algebra K[h1,h2]/(h1^2,h2^2), Jordan data of
one-variable fibers, and a factorizable-quadratic tameness test for local
ideals in two variables.

Pencils (two vertices, two arrows), modules on one space (one vertex, a
loop per action matrix) and module windows are `linalg.QuiverRep`s, so
`linalg.hom_space`, one Krull-Schmidt splitter, `split_indecomposables`, and
the isomorphism decision built on it, `isomorphism`, serve all of them.  A
window is first contracted along its opposite forest
(`linalg.ForestTransport.contracted`), whose End is the window's; pencils
and one-space modules have no opposite pairs and are taken as they are.
The splitter takes End from the intertwining equations, as tuples of
vertex blocks, its radical from the trace form (characteristic zero), and
splits along an element whose minimal polynomial factors into coprime
parts, all block by block on the integer form; a rep whose End/rad is
certified to be a field is returned whole, so a pencil is reported outside
the field only by its label.  `factor_unipoly` factors polynomials of
degree <= 2 in closed form and hands higher degrees to the `symbolic`
adapter, which loads sympy on first use.

Every decision goes through that splitter: `is_indecomposable` is its
first step, and `isomorphism` splits what its first test leaves open, both
over the field of the entries, Q when every entry is real and Q(i)
otherwise (`_entry_field`).  An End/rad that is not commutative, such as a
quaternion algebra over Q, is neither split nor certified a field, so
whether it is a division algebra stays undecided and raises DomainError.
"""

from __future__ import annotations

import random as _random
import re as _re
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations
from math import lcm
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .linalg import (
    ForestTransport,
    Mat,
    QuiverRep,
    _eliminate_q,
    _eliminate_qi,
    _real_pivot,
    block_diag,
    hom_space,
    invert,
    kernel_basis,
    opposite_forest,
    rank,
    retraction,
    sparse_rank,
    split,
)
from .local_ideals import LocalIdeal, QuotientBasis
from .modules import DSet, DomainError, Fiber, Orbit
from .poly import UniPoly
from .scalars import ONE, QQ, QQI, ZERO, Field, Scalar


class FieldError(DomainError):
    """A required eigenvalue or square root lies outside the base field."""


# -- representation type ----------------------------------------------------


class RepTypeVerdict(NamedTuple):
    kind: str  # finite | tame | wild
    witness: str

    def __repr__(self):
        return f"{self.kind} ({self.witness})"


def rep_type(dset: DSet) -> RepTypeVerdict:
    n = dset.n
    full_integer = all(dset.orbit.integer)
    if full_integer and len(dset.D) == n:
        return RepTypeVerdict("finite", "integer orbit with all slots degenerate")
    if len(dset.D) == n - 1:
        return RepTypeVerdict("tame", "exactly one non-degenerate slot")
    return RepTypeVerdict(
        "wild", f"{n - len(dset.D)} non-degenerate slots with arity {n}"
    )


def rep_type_orbit(orbit: Orbit) -> RepTypeVerdict:
    if orbit.n == 1:
        return RepTypeVerdict("tame", "single slot orbit")
    return RepTypeVerdict("wild", f"orbit arity {orbit.n} >= 2")


# -- generic finite-dimensional module machinery ----------------------------


def _one_space(mats: Sequence[Mat]) -> QuiverRep:
    """Square action matrices on one space: one vertex, one loop per matrix."""
    return QuiverRep([mats[0].rows if mats else 0], [(0, 0, A) for A in mats])


def min_poly(M) -> UniPoly:
    """Minimal polynomial of a square Mat, or of the block-diagonal matrix a
    tuple of square blocks stands for (an End element per vertex): the first
    linear dependence among the powers.

    Power k enters as the integer row s*[vec(M^k) | e_k], the entries of
    every block flattened over one common scale s and a tag column for k,
    and is reduced against the pivot rows of the earlier powers in one
    incremental sparse elimination (`_eliminate_q`, or `_eliminate_qi` with
    `_real_pivot` over Q(i)).  Reduced to tags t_j alone, it says
    Sum t_j M^j = 0 with t_k != 0, so the polynomial is Sum (t_j/t_k) x^j.
    The blocks' off-diagonal zeros never enter, and no Scalar is built
    before the coefficients."""
    blocks = (M,) if isinstance(M, Mat) else tuple(M)
    gaussian = any(X._int()[1] is not None for X in blocks)
    eliminate = _eliminate_qi if gaussian else _eliminate_q
    n = sum(X.rows * X.rows for X in blocks)
    pivots: List[Tuple[int, dict]] = []
    powers = tuple(Mat.scalar(X.rows, ONE) for X in blocks)
    # n + 1 vectors in n entries: the loop always ends at a dependence
    for k in range(n + 1):
        if k:
            powers = blocks if k == 1 else tuple(P @ X for P, X in zip(powers, blocks))
        row = _power_row(powers, n + k, gaussian)
        for c, prow in pivots:
            if c in row:
                row = eliminate(row, c, prow)
        c = min((j for j in row if j < n), default=None)
        if c is None:
            break
        pivots.append((c, _real_pivot(row, c) if gaussian else row))
    tk = row[n + k]
    coeffs = {k: ONE}
    for j in range(k):
        t = row.get(n + j)
        if t is None:
            continue
        if gaussian:
            (a, b), (c, e) = t, tk
            coeffs[j] = Scalar.frac(a * c + b * e, b * c - a * e, c * c + e * e)
        else:
            coeffs[j] = Scalar.frac(t, 0, tk)
    return UniPoly(coeffs)


def _power_row(powers: Tuple[Mat, ...], tag: int, gaussian: bool) -> dict:
    """The sparse integer row s*[vec(P) | e_tag] of one power P given by its
    square blocks, flattened in order."""
    s, entries = _block_entries(powers, gaussian)
    row = {}
    off = 0
    for P, here in zip(powers, entries):
        for pos, v in here.items():
            row[off + pos] = v
        off += P.rows * P.rows
    row[tag] = (s, 0) if gaussian else s
    return row


def _block_entries(blocks: Sequence[Mat], gaussian: bool) -> Tuple[int, List[Dict[int, object]]]:
    """(s, entries): s the lcm of the row scales of all the square blocks,
    and per block the nonzero entries of s times it by position a*d + b, an
    int, or an (re, im) pair when gaussian."""
    forms = [X._int() for X in blocks]
    s = lcm(*chain.from_iterable(sc for _, _, sc in forms))
    out = []
    for (re, im, sc), X in zip(forms, blocks):
        d = X.cols
        here = {}
        for a, (row, x) in enumerate(zip(re, sc)):
            irow = None if im is None else im[a]
            if not (any(row) or irow is not None and any(irow)):
                continue
            u = s // x
            for b, v in enumerate(row):
                w = 0 if irow is None else irow[b]
                if v or w:
                    here[a * d + b] = (v * u, w * u) if gaussian else v * u
        out.append(here)
    return s, out


def factor_unipoly(p: UniPoly, field: Field) -> List[Tuple[UniPoly, int]]:
    """Irreducible factorization over the configured field (monic factors),
    in sympy's order: `_splitting_element` splits on the first factor.

    Degrees up to 2 are solved in closed form from `Field.sqrt` of the
    discriminant; higher degrees go to `symbolic.factor`.
    """
    for k in sorted(p.coeffs, reverse=True):
        if not field.contains(p.coeffs[k]):
            raise ValueError(f"coefficient {p.coeffs[k]} is not rational")
    d = p.degree()
    if not d:
        return []
    if d > 2:
        from .symbolic import factor

        return factor(p, field)
    c, b = (p.coeffs.get(k, ZERO) / p.leading() for k in (0, 1))
    if d == 1:
        return [(UniPoly({1: ONE, 0: c}), 1)]
    s = field.sqrt(b * b - 4 * c)
    if s is None:
        return [(UniPoly({2: ONE, 1: b, 0: c}), 1)]
    if s.is_zero():
        return [(UniPoly({1: ONE, 0: b / 2}), 2)]
    # monic t - r with constant -r; sympy sorts Q factors by their primitive
    # integer form d*t - n (r = n/d) and Q(i) factors by -r as (im, re)
    consts = [(b + s) / 2, (b - s) / 2]
    if field.has_i:
        consts.sort(key=lambda k: (k.im, k.re))
    else:
        consts.sort(key=lambda k: (k.den, k.nre))
    return [(UniPoly({1: ONE, 0: k}), 1) for k in consts]


def _eval_poly(p: UniPoly, X: Mat) -> Mat:
    """p(X) for a square X, by Horner's rule on the integer form."""
    d, k = X.rows, p.degree() or 0
    out = X.scale(p.coeffs[k]) if k else Mat.scalar(d, p.coeffs.get(0, ZERO))
    for j in range(k - 1, -1, -1):
        c = p.coeffs.get(j)
        if c is not None:
            out = out + Mat.scalar(d, c)
        if j:
            out = out @ X
    return out


def _radical_dim(end: List[Tuple[Mat, ...]]) -> int:
    """dim rad of the algebra spanned by end, whose elements are tuples of
    square blocks (one per vertex, as `hom_space` gives them): k - rank T,
    T the Gram matrix tr(N_i N_j) = Sum_v tr(N_i,v N_j,v) of the trace form
    on the integer forms N_j = s_j E_j, s_j the lcm of the row scales of all
    of E_j's blocks.  In characteristic 0 the radical is the kernel of the
    trace form, and scaling a basis element leaves the rank."""
    k = len(end)
    gaussian = any(X._int()[1] is not None for e in end for X in e)
    dims = [X.cols for X in end[0]] if k else []
    # per vertex, the nonzero entries of the N_j by position a*d + b, as (j, entry)
    at: List[Dict[int, list]] = [{} for _ in dims]
    for j, e in enumerate(end):
        for here, entries in zip(at, _block_entries(e, gaussian)[1]):
            for pos, v in entries.items():
                here.setdefault(pos, []).append((j, v))
    # tr(N_i N_j) = sum over v, a, b of N_i,v[a, b] * N_j,v[b, a]
    gram = [{} for _ in range(k)]
    for d, here in zip(dims, at):
        for pos, left in here.items():
            right = here.get(pos % d * d + pos // d)
            if right is None:
                continue
            for i, x in left:
                row = gram[i]
                for j, y in right:
                    if gaussian:
                        p, q = row.get(j, (0, 0))
                        row[j] = (p + x[0] * y[0] - x[1] * y[1], q + x[0] * y[1] + x[1] * y[0])
                    else:
                        row[j] = row.get(j, 0) + x * y
    if gaussian:
        gram = [{j: t for j, t in row.items() if t[0] or t[1]} for row in gram]
    else:
        gram = [{j: t for j, t in row.items() if t} for row in gram]
    return k - sparse_rank(gram, k, gaussian)


def is_indecomposable(module) -> bool:
    """Whether the module is indecomposable over the field of its entries
    (Q, or Q(i) when an entry is not real).  Accepts a QuiverRep (a pencil,
    say) or a sequence of square action matrices on one space.

    A finite-dimensional module is indecomposable iff End is local, that is
    End/rad is a division algebra (Fitting's lemma).  This is the
    splitter's first step, `_splitting_element`: End/rad of dimension 1,
    or certified a field, means True; a splitting element means False; and
    a search that does neither raises DomainError."""
    R = module if isinstance(module, QuiverRep) else _one_space(list(module))
    if not any(R.dims):
        return False
    return _splitting_element(R, _entry_field(R)) is None


def modules_isomorphic(mats_m: Sequence[Mat], mats_n: Sequence[Mat]) -> Optional[Mat]:
    """An invertible intertwiner between one-space modules, or None."""
    iso = isomorphism(_one_space(mats_m), _one_space(mats_n))
    return None if iso is None else iso[0]


# -- Kronecker quiver -------------------------------------------------------


class KroneckerRep(QuiverRep):
    """Two spaces M1, M2 with two maps A, B : M1 -> M2 (shapes d2 x d1): the
    quiver with vertices 0, 1 and arrows (0, 1, A), (0, 1, B)."""

    def __init__(self, A: Mat, B: Mat):
        if A.shape != B.shape:
            raise ValueError("pencil matrices must share a shape")
        super().__init__((A.cols, A.rows), [(0, 1, A), (0, 1, B)])
        self.A, self.B = A, B
        self.d1, self.d2 = self.dims

    def __repr__(self):
        return f"KroneckerRep(dims=({self.d1},{self.d2}))"


class _KroneckerLabelFields(NamedTuple):
    series: str
    n: int = 0
    lam: Optional[Scalar] = None


class KroneckerBlockLabel(_KroneckerLabelFields):
    """One of the five series: S1, S2(n), S3(n), S4(n, lam), S5(n)."""

    __slots__ = ()

    def __new__(cls, series: str, n: int = 0, lam: Optional[Scalar] = None):
        if series not in ("S1", "S2", "S3", "S4", "S5"):
            raise ValueError(f"unknown series {series!r}")
        if series != "S1" and n < 1:
            raise ValueError("series parameter n must be >= 1")
        if series == "S4" and lam is None:
            raise ValueError("series S4 needs an eigenvalue")
        return super().__new__(cls, series, n, lam)

    def sort_key(self):
        lam_key = self.lam.sort_key() if self.lam is not None else (Fraction(0), Fraction(0))
        return (self.series, self.n, lam_key)

    def __repr__(self):
        if self.series == "S1":
            return "S1"
        if self.series == "S4":
            return f"S4({self.n},{self.lam})"
        return f"{self.series}({self.n})"


def kronecker_block(label: KroneckerBlockLabel) -> KroneckerRep:
    """Explicit matrices of one indecomposable from the five series."""
    s = label.series
    if s == "S1":
        return KroneckerRep(Mat.zero(0, 1), Mat.zero(0, 1))
    n = label.n
    if s == "S2":
        A = Mat.zero(n + 1, n)
        B = Mat.zero(n + 1, n)
        for i in range(n):
            A.data[i][i] = ONE
            B.data[i + 1][i] = ONE
        return KroneckerRep(A, B)
    if s == "S3":
        A = Mat.zero(n, n + 1)
        B = Mat.zero(n, n + 1)
        for i in range(n):
            A.data[i][i] = ONE
            B.data[i][i + 1] = ONE
        return KroneckerRep(A, B)
    if s == "S4":
        return KroneckerRep(Mat.identity(n), _jordan_block(n, label.lam))
    A = Mat.zero(n, n)
    for i in range(n - 1):
        A.data[i][i + 1] = ONE
    return KroneckerRep(A, Mat.identity(n))


def _jordan_block(n: int, lam) -> Mat:
    """The n x n Jordan block: lam on the diagonal, 1 just above it."""
    return Mat(n, n, [[lam if c == r else ONE if c == r + 1 else ZERO for c in range(n)] for r in range(n)])


def _entry_field(*reps: QuiverRep) -> Field:
    """Q when every entry of the reps' maps is real, else Q(i)."""
    real = all(f._int()[1] is None for R in reps for _, _, f in R.arrows)
    return QQ if real else QQI


def _splitting_element(R: QuiverRep, field: Field) -> Optional[Tuple[Tuple[Mat, ...], UniPoly, UniPoly]]:
    """An endomorphism of R (a tuple of blocks, one per vertex) whose min
    poly splits into two coprime parts over the field, or None when End(R)
    is local.

    None is a proof: End/rad has dimension 1, or the search below certifies
    it a field.  Candidates are the basis elements of End, sums and
    differences of two of them, then seeded pseudo-random combinations, all
    taken block by block.  The search stops at the first candidate m whose
    min poly either has two distinct irreducible factors or is g^e with g
    irreducible of degree dim End/rad >= 2; then K[m mod rad] fills End/rad,
    so End/rad is a field bigger than K (split or certify, as in the
    MeatAxe).  A search that does neither raises DomainError: an End/rad
    that is not commutative, such as a quaternion algebra over Q, holds no
    element of that degree and stays undecided.
    """
    end = hom_space(R, R)
    residue_dim = len(end) - _radical_dim(end)
    if residue_dim == 1:
        return None

    def candidates():
        yield from end
        for i, j in combinations(range(len(end)), 2):
            yield tuple(x + y for x, y in zip(end[i], end[j]))
            yield tuple(x - y for x, y in zip(end[i], end[j]))
        rng = _random.Random(0x5EED)
        zero = tuple(Mat.scalar(X.rows, ZERO) for X in end[0])
        for _ in range(300):
            m = zero
            for e in end:
                c = rng.randint(-4, 4)
                if c:
                    m = tuple(x + X.scale(c) for x, X in zip(m, e))
            yield m

    for m in candidates():
        p = min_poly(m)
        if (p.degree() or 0) < 1:
            continue
        factors = factor_unipoly(p, field)
        if len(factors) >= 2:
            f1 = factors[0][0] ** factors[0][1]
            f2 = UniPoly.const(1)
            for f, mult in factors[1:]:
                f2 = f2 * f ** mult
            return m, f1, f2
        if factors[0][0].degree() == residue_dim:
            return None
    raise DomainError(
        f"End/rad of dimension {residue_dim} is undecided: no split and no degree-{residue_dim} "
        "certificate among the basis, pair and 300 seeded candidates"
    )


def _kron_indecomposable_label(R: QuiverRep, field: Field) -> KroneckerBlockLabel:
    d1, d2 = R.dims
    (_, _, A), (_, _, B) = R.arrows
    if d2 == 0 or d1 == 0:
        # one-dimensional socle-type pieces; both shapes read as the simple
        if d1 + d2 != 1:
            raise DomainError("map-free piece of dimension > 1 is decomposable")
        return KroneckerBlockLabel("S1")
    if d1 < d2:
        if d2 != d1 + 1:
            raise DomainError(f"unexpected indecomposable dims ({d1},{d2})")
        return KroneckerBlockLabel("S2", d1)
    if d1 > d2:
        if d1 != d2 + 1:
            raise DomainError(f"unexpected indecomposable dims ({d1},{d2})")
        return KroneckerBlockLabel("S3", d2)
    Ainv = invert(A)
    if Ainv is not None:
        C = B @ Ainv
        p = min_poly(C)
        factors = factor_unipoly(p, field)
        if len(factors) != 1:
            raise DomainError("square piece with split spectrum is decomposable")
        f, mult = factors[0]
        if f.degree() != 1:
            raise FieldError(
                f"pencil eigenvalue not in the field {field.name}: min poly {f}"
            )
        lam = -f.coeffs.get(0, ZERO)
        if mult != d1:
            raise DomainError("square piece is not a single Jordan cell")
        return KroneckerBlockLabel("S4", d1, lam)
    Binv = invert(B)
    if Binv is None:
        raise DomainError("square indecomposable with both maps singular")
    C = A @ Binv
    p = min_poly(C)
    if p != UniPoly.monomial(d1, 1):
        raise FieldError(f"pencil eigenvalue not in the field {field.name}")
    return KroneckerBlockLabel("S5", d1)


def split_indecomposables(R: QuiverRep, field: Field) -> List[Tuple[QuiverRep, Tuple[Mat, ...]]]:
    """Indecomposable summands of R, each with its embeddings into R, one
    per vertex (Krull-Schmidt by splitting End(R)).  R comes back whole,
    with identity embeddings, exactly when End(R) is local.

    A representation with opposite pairs (a module window) is split as its
    contraction along its `opposite_forest`, whose End is End(R) as an
    algebra; each summand comes back as a representation of R's quiver
    (`ForestTransport.expand_rep`), with its embeddings carried down the
    trees (`expand_map`).  End(R) stays the per-vertex block tuples of
    `hom_space`: a splitting element m = (m_v) with min poly f1*f2 gives
    the parts ker f_i(m_v) at each vertex v.  A summand whose End/rad
    `_splitting_element` can neither split nor certify a field raises
    DomainError."""
    if not any(R.dims):
        return []
    transport = _contraction(R)
    if transport is not None:
        return [
            (transport.expand_rep(piece), tuple(transport.expand_map(emb)))
            for piece, emb in split_indecomposables(transport.contracted(), field)
        ]
    split_by = _splitting_element(R, field)
    if split_by is None:
        return [(R, tuple(Mat.scalar(d, ONE) for d in R.dims))]
    m, f1, f2 = split_by
    parts = [
        [Mat.from_cols(kernel_basis(_eval_poly(f, X)) if d else [], d) for X, d in zip(m, R.dims)]
        for f in (f1, f2)
    ]
    subs = split(R, parts)
    if subs is None:
        raise DomainError("subspace is not invariant")
    out = []
    for bases, sub in zip(parts, subs):
        for piece, emb in split_indecomposables(sub, field):
            out.append((piece, tuple(B @ E for B, E in zip(bases, emb))))
    return out


def _contraction(R: QuiverRep) -> Optional[ForestTransport]:
    """The transport of R along its `opposite_forest`, or None when the
    forest has no tree arrow (as for pencils and one-space modules)."""
    forest = opposite_forest(R)
    return None if all(x is None for x in forest[1]) else ForestTransport(R, forest)


def _invertible_hom(homs: List[Tuple[Mat, ...]]) -> Optional[Tuple[Mat, ...]]:
    """The first hom whose blocks are all invertible, or None."""
    return next((h for h in homs if all(rank(b) == b.rows for b in h)), None)


def isomorphism(M: QuiverRep, N: QuiverRep) -> Optional[Tuple[Mat, ...]]:
    """The blocks of an isomorphism M -> N, one per vertex, or None when
    there is none.  An exact decision, over Q(i) if an entry of M or N is
    not real and over Q otherwise; by Noether-Deuring the answer is the same.

    When M has opposite pairs (a module window), the decision runs on M and
    N contracted along M's `opposite_forest`, and only the blocks it
    returns are expanded (`ForestTransport.expand_map`).  An isomorphism
    conjugates g f, so a tree pair of M that is not inverse in N proves
    None first.  See `_isomorphism` for the decision itself.
    """
    if M.dims != N.dims:
        return None
    if not any(M.dims):
        return tuple(Mat(0, 0) for _ in M.dims)
    field = _entry_field(M, N)
    tm = _contraction(M)
    if tm is None:
        return _isomorphism(M, N, field)
    pairs = [(k, l) for _, k, l in filter(None, tm.up)]
    if not all((N.arrows[l][2] @ N.arrows[k][2]).is_identity() for k, l in pairs):
        return None
    tn = ForestTransport(N, (tm.order, tm.up))
    X = _isomorphism(tm.contracted(), tn.contracted(), field)
    return None if X is None else tuple(tn.expand_map(X, tm))


def _isomorphism(M: QuiverRep, N: QuiverRep, field: Field) -> Optional[Tuple[Mat, ...]]:
    """The decision of `isomorphism`, splitting over the given field.

    A hom is an isomorphism when every block is invertible.  The first such
    basis element of Hom(M, N) wins, and a vector that every hom's block at
    one vertex kills, on either side, proves None.  Otherwise M is split.
    If End(M) is local, None is proved too: for an isomorphism phi the
    non-isomorphisms in Hom(M, N) = phi End(M) form the proper subspace
    phi rad End(M), which holds no basis, so the first test would have
    found one.  Else N is split as well and the summands are matched in
    pairs by the first test, which decides for indecomposables; by
    Krull-Schmidt greedy matching is complete.  The matched isomorphisms
    phi_j, put side by side through the embeddings E_j of M and F_j of N,
    give phi_v = [F_j phi_j ...] [E_j ...]^-1.
    """
    homs = hom_space(M, N)
    iso = _invertible_hom(homs)
    if iso is not None or not homs:
        return iso
    for d, *blocks in zip(M.dims, *homs):
        # a vector that every hom's block kills on the left or on the right
        if d and (rank(blocks[0].hstack(*blocks[1:])) < d or rank(reduce(Mat.vstack, blocks)) < d):
            return None
    pieces_m = split_indecomposables(M, field)
    if len(pieces_m) == 1:
        return None
    unmatched = split_indecomposables(N, field)
    # per summand of M, the blocks F_j phi_j of its image in N
    images = []
    for piece, _ in pieces_m:
        for k, (other, F) in enumerate(unmatched):
            phi = _invertible_hom(hom_space(piece, other)) if piece.dims == other.dims else None
            if phi is not None:
                break
        else:
            return None
        images.append([Fv @ phi_v for Fv, phi_v in zip(F, phi)])
        del unmatched[k]
    return tuple(
        Mat(d, 0).hstack(*(im[v] for im in images)) @ invert(Mat(d, 0).hstack(*(E[v] for _, E in pieces_m)))
        for v, d in enumerate(M.dims)
    )


def _kron_labeled(R: KroneckerRep, field: Field):
    """(label, piece, (P1, P2)) per indecomposable summand, in label order."""
    labeled = [(_kron_indecomposable_label(p, field), p, emb) for p, emb in split_indecomposables(R, field)]
    return sorted(labeled, key=lambda item: item[0].sort_key())


def kronecker_decompose(R: KroneckerRep, field: Field = QQ) -> List[KroneckerBlockLabel]:
    """Label multiset (sorted) of the indecomposable summands."""
    return [label for label, _, _ in _kron_labeled(R, field)]


def kronecker_decompose_with_iso(R: KroneckerRep, field: Field = QQ):
    """Labels plus an explicit isomorphism from the canonical direct sum.

    Returns (labels, P, Q) with R.A @ Q = P @ A_can and R.B @ Q = P @ B_can,
    where (A_can, B_can) is the block-diagonal sum of the canonical series
    matrices in label order, and P, Q are invertible.
    """
    labeled = _kron_labeled(R, field)
    Qs, Ps = [], []
    for label, piece, (P1, P2) in labeled:
        iso = isomorphism(kronecker_block(label), piece)
        if iso is None:
            raise DomainError(f"piece does not match its label {label!r}")
        Qs.append(P1 @ iso[0])
        Ps.append(P2 @ iso[1])
    return [label for label, _, _ in labeled], Mat(R.d2, 0).hstack(*Ps), Mat(R.d1, 0).hstack(*Qs)


def kronecker_sum(reps: Sequence[KroneckerRep]) -> KroneckerRep:
    """Direct sum of pencils."""
    return KroneckerRep(block_diag(*(r.A for r in reps)), block_diag(*(r.B for r in reps)))


# -- string and band modules ------------------------------------------------

Letter = int  # 1 for h1, 2 for h2
Word = Tuple[Letter, ...]
_WORD = _re.compile(r"(?:h[12])*")

# largest string or band module the command line may build: word length + 1
# for a string, n times the word length for a band.  Deciding
# indecomposability solves a Hom system of 2*dim^2 equations in dim^2
# unknowns.  At dim 160 the `string` and `band` commands measured took
# 1.7-2.3 s each on a 2-CPU machine (slowest: the alternating string
# h1h2...h1), with a peak RSS of 73 MB; at dim 200 that string took 4.8 s
# and 117 MB.
MAX_GAMMA_DIM = 160


def parse_word(text) -> Word:
    if isinstance(text, (tuple, list)):
        w = tuple(int(x) for x in text)
    else:
        s = text.replace(" ", "")
        end = _WORD.match(s).end()
        if end < len(s):
            raise ValueError(f"bad word near {s[end:]!r}")
        w = tuple(int(x) for x in s[1::2])
    if any(x not in (1, 2) for x in w):
        raise ValueError("word letters must be h1 or h2")
    return w


def word_str(w: Word) -> str:
    return "".join(f"h{x}" for x in w)


class BandOrbit:
    """A non-periodic cyclic word, stored by its least rotation (h1 < h2)."""

    def __init__(self, word) -> None:
        w = parse_word(word)
        if not w:
            raise ValueError("empty band word")
        if _is_periodic(w):
            raise DomainError(f"band word {word_str(w)} is periodic")
        r = least_rotation(w)
        self.word = w[r:] + w[:r]

    @property
    def length(self) -> int:
        return len(self.word)

    def __eq__(self, other):
        return isinstance(other, BandOrbit) and self.word == other.word

    def __hash__(self):
        return hash(self.word)

    def __repr__(self):
        return f"BandOrbit({word_str(self.word)})"


def least_rotation(w: Word) -> int:
    """The start r of the least rotation w[r:] + w[:r], in linear time and
    constant extra memory: two candidate starts i, j and a matched length k
    compared in place.  When the rotations at i and j first differ at k, the
    larger one's start and the k starts after it are beaten by the matching
    starts after the other, so it jumps past them."""
    n = len(w)
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = w[(i + k) % n], w[(j + k) % n]
        if a == b:
            k += 1
            continue
        if a > b:
            i, j = j, max(j + 1, i + k + 1)
        else:
            j += k + 1
        k = 0
    return i


def _is_periodic(w: Word) -> bool:
    l = len(w)
    for p in range(1, l):
        if l % p == 0 and w == w[p:] + w[:p]:
            return True
    return False


class GammaModule(NamedTuple):
    """Module over K[h1,h2]/(h1h2) with explicit h1, h2 matrices."""

    kind: str  # "string" or "band"
    descriptor: str
    h1: Mat
    h2: Mat

    @property
    def dim(self) -> int:
        return self.h1.rows

    @property
    def matrices(self) -> Tuple[Mat, Mat]:
        return (self.h1, self.h2)

    def check_relation(self):
        if not (self.h1 @ self.h2).is_zero() or not (self.h2 @ self.h1).is_zero():
            raise AssertionError("h1 h2 = h2 h1 = 0 violated")


def string_module(word) -> GammaModule:
    """Basis e_1..e_{l+1}; letter j acts e_j -> e_{j+1} (h1 forward,
    h2 backward)."""
    w = parse_word(word)
    l = len(w)
    h1 = Mat.zero(l + 1, l + 1)
    h2 = Mat.zero(l + 1, l + 1)
    for j, letter in enumerate(w):
        if letter == 1:
            h1.data[j + 1][j] = ONE
        else:
            h2.data[j][j + 1] = ONE
    mod = GammaModule("string", word_str(w), h1, h2)
    mod.check_relation()
    return mod


def band_module(orbit, n: int, lam) -> GammaModule:
    """n copies of the cyclic word; the wrap letter carries a Jordan cell."""
    if not isinstance(orbit, BandOrbit):
        orbit = BandOrbit(orbit)
    lam = Scalar.of(lam)
    if n < 1:
        raise DomainError("band multiplicity must be positive")
    if lam.is_zero():
        raise DomainError("band parameter must be nonzero")
    w = orbit.word
    l = len(w)
    dim = n * l
    jordan = _jordan_block(n, lam)
    h1 = Mat.zero(dim, dim)
    h2 = Mat.zero(dim, dim)
    for j, letter in enumerate(w):
        src = j
        dst = (j + 1) % l
        carrier = jordan if j == l - 1 else Mat.identity(n)
        target = h1 if letter == 1 else h2
        if letter == 1:
            # block src -> block dst
            for a in range(n):
                for b in range(n):
                    c = carrier.data[a][b]
                    if not c.is_zero():
                        target.data[dst * n + a][src * n + b] = c
        else:
            for a in range(n):
                for b in range(n):
                    c = carrier.data[a][b]
                    if not c.is_zero():
                        target.data[src * n + a][dst * n + b] = c
    mod = GammaModule("band", f"{word_str(w)};n={n};lam={lam}", h1, h2)
    mod.check_relation()
    return mod


# -- Jordan data of one-variable fibers -------------------------------------


def jordan_fiber_decompose(fiber: Fiber) -> Dict[Tuple[int, Scalar], int]:
    """Multiset of Jordan block data (size, eigenvalue) of a k=1 fiber."""
    if fiber.k != 1:
        raise DomainError("Jordan decomposition needs a one-variable fiber")
    A = fiber.matrices[0]
    lam = fiber.center[0]
    d = fiber.dim
    N = A - Mat.scalar(d, lam)
    kers = [0]
    P = Mat.identity(d)
    for _ in range(d):
        P = N @ P
        kers.append(d - rank(P))
    if kers[-1] != d:
        raise DomainError("matrix is not nilpotent after the shift")
    at_least = [kers[k] - kers[k - 1] for k in range(1, d + 1)]
    out: Dict[Tuple[int, Scalar], int] = {}
    for s in range(1, d + 1):
        exact = at_least[s - 1] - (at_least[s] if s < d else 0)
        if exact > 0:
            out[(s, lam)] = exact
    return out


# -- the algebra K[h1,h2]/(h1^2, h2^2) --------------------------------------


def regular_A_module() -> Tuple[Mat, Mat]:
    """Left regular module on the basis {1, h1, h2, h1h2}."""
    h1 = Mat.zero(4, 4)
    h2 = Mat.zero(4, 4)
    h1.data[1][0] = ONE
    h1.data[3][2] = ONE
    h2.data[2][0] = ONE
    h2.data[3][1] = ONE
    return h1, h2


def gamma_to_A(module: GammaModule, field: Field = QQI) -> Tuple[Mat, Mat]:
    """Transport a square-killed Gamma-module to the algebra with relations
    h1^2 = h2^2 = 0 via h1 = (g1+g2)/2, h2 = (g1-g2)/(2i)."""
    if not field.has_i:
        raise FieldError("the change of variables needs i in the base field")
    g1, g2 = module.h1, module.h2
    if not (g1 @ g1).is_zero() or not (g2 @ g2).is_zero():
        raise DomainError("module is not annihilated by the squared maximal ideal")
    half = Scalar(Fraction(1, 2))
    inv2i = ONE / (Scalar(0, 2))
    h1 = (g1 + g2).scale(half)
    h2 = (g1 - g2).scale(inv2i)
    if not (h1 @ h1).is_zero() or not (h2 @ h2).is_zero():
        raise AssertionError("square relations lost in translation")
    return h1, h2


class AModuleDescriptor(NamedTuple):
    """Entry of the indecomposable list: simple, string, band family, or the
    regular module itself."""

    kind: str  # simple | string | band | regular
    word: str = ""
    n: int = 0

    def __repr__(self):
        if self.kind == "simple":
            return "K"
        if self.kind == "string":
            return f"string({self.word})"
        if self.kind == "band":
            return f"band({self.word}, n={self.n}, lam=*)"
        return "A"


def lambda_members(bound: int) -> List[AModuleDescriptor]:
    """Indecomposables of the square-killed quotient up to the dim bound:
    alternating strings and the single alternating band family."""
    out = [AModuleDescriptor("simple")]
    for l in range(1, bound):
        for start in (1, 2):
            word = tuple((start if j % 2 == 0 else 3 - start) for j in range(l))
            out.append(AModuleDescriptor("string", word_str(word)))
    for n in range(1, bound // 2 + 1):
        out.append(AModuleDescriptor("band", "h1h2", n))
    return out


def ind_A_members(bound: int, field: Field = QQI) -> List[AModuleDescriptor]:
    """All indecomposables of dimension <= bound: the square-killed list plus
    the four-dimensional regular module."""
    if not field.has_i:
        raise FieldError("classification over this algebra needs i in the field")
    out = lambda_members(bound)
    if bound >= 4:
        out.append(AModuleDescriptor("regular"))
    return out


def realize_A_member(
    desc: AModuleDescriptor, lam=None, field: Field = QQI
) -> Tuple[Mat, Mat]:
    if desc.kind == "simple":
        return Mat.zero(1, 1), Mat.zero(1, 1)
    if desc.kind == "regular":
        return regular_A_module()
    if desc.kind == "string":
        return gamma_to_A(string_module(desc.word), field)
    if desc.kind == "band":
        if lam is None:
            raise DomainError("band realization needs a parameter")
        return gamma_to_A(band_module(desc.word, desc.n, lam), field)
    raise ValueError(f"unknown descriptor {desc!r}")


def find_regular_copy(h1: Mat, h2: Mat) -> Optional[Mat]:
    """Columns v, h1v, h2v, h1h2v spanning a free rank-1 submodule, for v
    the first basis vector that h1h2 does not kill; None when h1h2 = 0.

    A is local with simple socle K h1h2, which every nonzero ideal holds, so
    the annihilator of v is zero, and A v is free, exactly when h1h2 v != 0.
    DomainError when the matrices break the relations h1^2 = h2^2 =
    h1h2 - h2h1 = 0 of A."""
    P = h1 @ h2
    for name, rel in (("h1^2", h1 @ h1), ("h2^2", h2 @ h2), ("h1h2 - h2h1", P - h2 @ h1)):
        if not rel.is_zero():
            raise DomainError(f"not a module over K[h1,h2]/(h1^2,h2^2): {name} != 0")
    c = next((j for j in range(P.cols) if not P.select_cols([j]).is_zero()), None)
    if c is None:
        return None
    v = Mat.col_vector([ONE if r == c else ZERO for r in range(h1.rows)])
    return Mat.from_cols([v, h1 @ v, h2 @ v, P @ v], h1.rows)


def contains_regular_summand(h1: Mat, h2: Mat) -> bool:
    """Whether A = K[h1,h2]/(h1^2,h2^2) is a direct summand of the module,
    that is, whether h1h2 acts by a nonzero map.

    A is a Frobenius algebra, so self-injective: a free submodule is
    injective and splits off (Lam, Lectures on Modules and Rings, section
    3), and `find_regular_copy` finds one exactly when h1h2 != 0.  The
    retraction onto its copy is solved for as a check.  DomainError when
    the matrices break the relations of A."""
    emb = find_regular_copy(h1, h2)
    if emb is None:
        return False
    homs = hom_space(_one_space([h1, h2]), _one_space(regular_A_module()))
    if retraction(homs, [emb]) is None:
        raise AssertionError("a free submodule over a self-injective algebra has no retraction")
    return True


# -- tameness of local ideals in two variables ------------------------------


class TameVerdict(NamedTuple):
    tame: bool
    over_closure: bool  # splits only after a quadratic extension

    def __repr__(self):
        if self.tame:
            return "tame"
        if self.over_closure:
            return "wild over the base field (tame over its closure)"
        return "wild"


def tame_local_ideal(ideal: LocalIdeal, field: Field = QQ) -> TameVerdict:
    """Whether the ideal contains a product of two independent linear forms
    in the shifted coordinates (a factorizable quadratic), decided over the
    configured field with an over-the-closure flag.  The decision reads the
    dimension of the span of the pure quadratic forms in I + m^3, off the
    reduced span of its `QuotientBasis`; no search.  At order <= 2, m^2 lies
    in I and with it h1 h2."""
    if ideal.n != 2:
        raise DomainError("tameness test is for two-variable local ideals")
    if ideal.order <= 2:
        return TameVerdict(True, False)
    qb = QuotientBasis(LocalIdeal(ideal.center, 3, ideal.generators))
    # the quadratic parts (h1^2, h1 h2, h2^2) of the elements with no lower terms
    low = qb.span.select_cols(qb.col_of[e] for e in qb.window if sum(e) < 2).transpose()
    quad = qb.span.select_cols(qb.col_of[e] for e in ((2, 0), (1, 1), (0, 2))).transpose()
    forms = quad @ Mat.from_cols(kernel_basis(low), qb.span.rows)
    m = rank(forms)
    if m == 0:
        return TameVerdict(False, False)
    if m >= 2:
        # the span holds a form (0, b, c): h2 (b h1 + c h2) if b != 0, else
        # h2^2, and q' + t h2^2 has any discriminant for q' = (a', b', c')
        # outside K h2^2 with a' != 0 (and b'^2 itself when a' = 0)
        return TameVerdict(True, False)
    # one form up to scaling: it factors into independent linear forms over
    # K iff its discriminant is a nonzero square there
    a, b, c = next(q for q in map(forms.col, range(forms.cols)) if any(not x.is_zero() for x in q))
    disc = b * b - a * c * Scalar(4)
    square = field.sqrt(disc) is not None
    return TameVerdict(not disc.is_zero() and square, not disc.is_zero() and not square)
