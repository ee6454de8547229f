"""Representation-type verdicts and tame-case classification machinery.

Covers: the two-arrow quiver (pencil) representations with their five series
of indecomposables, string and band modules over K[h1,h2]/(h1h2), the
four-dimensional local algebra K[h1,h2]/(h1^2,h2^2), Jordan data of
one-variable fibers, and a factorizable-quadratic tameness test for local
ideals in two variables.

Modules on one space (one vertex, a loop per action matrix) and module
windows are `linalg.QuiverRep`s, so `linalg.hom_space`, one Krull-Schmidt
splitter, `split_indecomposables`, and the isomorphism decision built on
it, `isomorphism`, serve all of them, pencils included.  A window is first
contracted along its opposite forest (`linalg.ForestTransport.contracted`),
whose End is the window's; pencils and one-space modules have no opposite
pairs and are taken as they are.  The splitter takes End from the
intertwining equations, as tuples of vertex blocks, its radical from the
trace form (characteristic zero), and splits along an element whose
minimal polynomial factors into coprime parts, all block by block on the
integer form; a rep whose End/rad is certified to be a field is returned
whole.  `factor_unipoly` factors polynomials of degree <= 2 in closed form
and hands higher degrees to the `symbolic` adapter, which loads sympy on
first use.

Every decision goes through that splitter: `is_indecomposable` is its
first step, and `isomorphism` splits what its first test leaves open, both
over the field of the entries, Q when every entry is real and Q(i)
otherwise (`_entry_field`).  An End/rad that is not commutative, such as a
quaternion algebra over Q, is neither split nor certified a field, so
whether it is a division algebra stays undecided and raises DomainError.

Pencils (two vertices, two arrows A, B : V -> Y) are decomposed without
End, by one path, `kronecker_decompose_with_iso`: the Wong limits of the
pencil give its S3/S1 domain, its regular parts and its S2 part; minimal
polynomial bases give the S3 and S2 chains, and `linalg.jordan_chains` of
the regular quotients the S4 and S5 chains, each lifted exactly into V.
The chains are verified once, by multiplying back against the canonical
sum, so every label it returns is verified; `kronecker_decompose` is its
label list.  The simple K -> 0 is S1 and the simple 0 -> K is S2(0).
"""

from __future__ import annotations

import random as _random
import re as _re
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, combinations
from math import lcm
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .linalg import (
    ForestTransport,
    Mat,
    QuiverRep,
    _eliminate_q,
    _eliminate_qi,
    _lowest,
    _mat,
    _real_pivot,
    _unzip,
    _zeros,
    block_diag,
    hom_space,
    invert,
    jordan_chains,
    kernel_basis,
    opposite_forest,
    rank,
    retraction,
    rref,
    solve_linear,
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
    d = _in_field(p, field).degree()
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


def _in_field(p: UniPoly, field: Field) -> UniPoly:
    """p, once each coefficient is checked to lie in the field."""
    for k in sorted(p.coeffs, reverse=True):
        if not field.contains(p.coeffs[k]):
            raise ValueError(f"coefficient {p.coeffs[k]} is not rational")
    return p


def _squarefree(p: UniPoly) -> UniPoly:
    """p / gcd(p, p'), monic: the roots of p, each once."""
    g, r = p, UniPoly({k - 1: c * k for k, c in p.coeffs.items() if k})
    while not r.is_zero():
        g, r = r, g.divmod(r)[1]
    q = p.divmod(g)[0]
    return q.scale(ONE / q.leading())


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


# largest max(d1, d2) of a pencil the `kronecker` command decomposes.  A
# scrambled sum of seven blocks of every series over Q(i) (S1, S2(k), S3(k),
# S4(k, -i), S4(k+1, 1+i), S4(k+2, 1+i), S5(k+1)) took 0.9 s as a full
# process at (24, 23) and 1.7-1.9 s at (30, 29) on a 2-vCPU machine.
MAX_PENCIL_DIM = 30


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
    """One of the five series: S1, S2(n), S3(n), S4(n, lam), S5(n).  S2
    starts at n = 0, the simple 0 -> K, the others at n = 1."""

    __slots__ = ()

    def __new__(cls, series: str, n: int = 0, lam: Optional[Scalar] = None):
        if series not in ("S1", "S2", "S3", "S4", "S5"):
            raise ValueError(f"unknown series {series!r}")
        if series == "S1" and n:
            raise ValueError("series S1 takes no parameter")
        if series != "S1" and n < (0 if series == "S2" else 1):
            raise ValueError("series parameter n must be >= 1, or >= 0 for S2")
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
    """Explicit matrices of one indecomposable from the five series.  S1,
    the simple K -> 0, is a 0 x 1 pencil, the S3 formula at n = 0; S2(0),
    the simple 0 -> K, is the S2 formula at n = 0, a 1 x 0 pencil."""
    s, n = label.series, label.n
    if s == "S1":
        return KroneckerRep(Mat.zero(0, 1), Mat.zero(0, 1))
    if s == "S4":
        return KroneckerRep(Mat.identity(n), _jordan_block(n, label.lam))
    if s == "S5":
        return KroneckerRep(_jordan_block(n, ZERO), Mat.identity(n))
    diagonal = [(i, i) for i in range(n)]
    if s == "S2":
        return KroneckerRep(_ones(n + 1, n, diagonal), _ones(n + 1, n, [(i + 1, i) for i in range(n)]))
    return KroneckerRep(_ones(n, n + 1, diagonal), _ones(n, n + 1, [(i, i + 1) for i in range(n)]))


def _jordan_block(n: int, lam) -> Mat:
    """The n x n Jordan block: lam on the diagonal, 1 just above it."""
    return Mat(n, n, [[lam if c == r else ONE if c == r + 1 else ZERO for c in range(n)] for r in range(n)])


def _from_entries(rows: int, cols: int, entries: Dict[Tuple[int, int], Scalar]) -> Mat:
    """The rows x cols matrix of the entries by (row, col), ZERO elsewhere."""
    return Mat(rows, cols, [[entries.get((r, c), ZERO) for c in range(cols)] for r in range(rows)])


def _ones(rows: int, cols: int, cells) -> Mat:
    """The rows x cols matrix with ONE at the given (row, col) cells."""
    return _from_entries(rows, cols, dict.fromkeys(cells, ONE))


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
    X = _isomorphism(tm.contracted(tn), tn.contracted(tm), field)
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


def kronecker_decompose(R: KroneckerRep, field: Field = QQ) -> List[KroneckerBlockLabel]:
    """Label multiset (sorted) of the indecomposable summands: the labels of
    `kronecker_decompose_with_iso`, whose chains multiply back to R, so each
    label is verified."""
    return kronecker_decompose_with_iso(R, field)[0]


def kronecker_decompose_with_iso(R: KroneckerRep, field: Field = QQ):
    """Labels plus an explicit isomorphism from the canonical direct sum.

    Returns (labels, P, Q) with R.A @ Q = P @ A_can and R.B @ Q = P @ B_can,
    where (A_can, B_can) is the block-diagonal sum of the canonical series
    matrices in label order, and P, Q are invertible.

    The Kronecker chains are built directly, with no End (Wong, J.
    Differential Equations 16 (1974); Van Dooren, Linear Algebra Appl. 27
    (1979)).  For A, B : V -> Y, the Wong limits V* of V_{k+1} =
    B^-1(A V_k) from V_0 = V and W* of W_{k+1} = A^-1(B W_k) from W_0 = 0
    (`_wong_limit`) meet in V_I, the S3 and S1 domain:
    - S3(k) and S1 (k = 0) are a minimal polynomial basis of ker(sA - B)
      in V_I, degree by degree (`_minimal_chains`);
    - S4 and S5 are the Jordan chains (`linalg.jordan_chains`) of the
      quotient pencils (I, N) on V*/V_I and (N', I) on W*/V_I, per
      eigenvalue of N, each lifted exactly into V (`_regular_part`); a
      non-linear factor of N's min poly raises FieldError;
    - S2 blocks span a complement of V* + W* (`_s2_part`).
    A part whose dimension, counted from the limits, is zero is skipped.
    The blocks are sorted by label, and P and Q must be square, of full
    rank and multiply back against `kronecker_sum`: otherwise one
    DomainError, so no label goes unverified.
    """
    A, B = R.A, R.B
    d1, d2 = R.dims
    TV, EV, pv, NV = _wong_limit(B, A, True)
    TW, EW, pw, NW = _wong_limit(A, B, False)
    TI, C4, C5 = _zeros(d1, 0), TV, TW
    if TV.cols and TW.cols:
        TI, C4 = _meet(TV, EW, pw)
        if TI.cols:
            C5 = _meet(TW, EV, pv)[1] if TW.cols > TI.cols else _zeros(d1, 0)
            NV = NW = None
    AI = A @ TI
    lift = None if AI.is_zero() else TI
    parts = []  # (label, Q columns, P columns) per block
    for chain in _minimal_chains(AI, B @ TI, TI.cols):
        k = chain.cols - 1
        Q = TI @ chain
        parts.append((KroneckerBlockLabel("S3", k) if k else KroneckerBlockLabel("S1"), Q, A @ Q.select_cols(range(k))))
    if C4.cols:
        parts += _regular_part(A, B, C4, NV, lift, field)
    if C5.cols:
        parts += _regular_part(B, A, C5, NW, lift, None)
    parts += _s2_part(A, B, parts)
    parts.sort(key=lambda part: part[0].sort_key())
    labels = [label for label, _, _ in parts]
    Q = _zeros(d1, 0).hstack(*(q for _, q, _ in parts))
    P = _zeros(d2, 0).hstack(*(p for _, _, p in parts))
    can = kronecker_sum([kronecker_block(label) for label in labels])
    if not (
        (Q.cols, P.cols) == (d1, d2)
        and rank(Q) == d1
        and rank(P) == d2
        and A @ Q == P @ can.A
        and B @ Q == P @ can.B
    ):
        raise DomainError(f"the Kronecker chains {labels!r} do not multiply back to the pencil")
    return labels, P, Q


def _wong_limit(F: Mat, G: Mat, full: bool) -> Tuple[Mat, Mat, List[int], Optional[Mat]]:
    """The limit S of S_{k+1} = F^-1(G S_k), from S_0 the whole domain
    (full) or 0, as (T, E, piv, N): a basis T of S by columns, E in reduced
    row echelon form with S = ker E and row r's pivot at piv[r], and N with
    F T = G T N when G T has full column rank (else None).

    Each step is one rref of [G T | F], T a basis of S_k (G itself for the
    whole domain; F alone from 0).  Its rows with a pivot among F's columns
    have no entry in G T's, so their F parts are the equations of
    F^-1(G S_k), and a basis is read off them (`_null_space`).  The limit is
    reached when the dimension stops changing.  On the limit, when every
    column of G T is a pivot, the kernel vectors (y, T z) of [G T | F]
    have y = -N z, and the other rows' F parts R give N = R T."""
    d = F.cols
    T, dim = None, d if full else 0
    while True:
        M = (G if T is None else G @ T).hstack(F) if full or T is not None else F
        t = M.cols - d
        Rm, piv = rref(M)
        k = sum(c < t for c in piv)
        E = Rm.select_rows(range(k, len(piv))).select_cols(range(t, M.cols))
        epiv = [c - t for c in piv[k:]]
        S = _null_space(E, epiv)
        if S.cols == dim:
            T = S if T is None else T
            N = Rm.select_rows(range(k)).select_cols(range(t, M.cols)) @ T if k == t else None
            return T, E, epiv, N
        T, dim = S, S.cols


def _null_space(E: Mat, piv: Sequence[int]) -> Mat:
    """A basis, by columns, of {x : E x = 0} for E in reduced row echelon
    form with row r's pivot (entry 1) at column piv[r]: per free column f,
    1 at f and minus each row's entry in column f at that row's pivot."""
    n = E.cols
    pivots = set(piv)
    free = [c for c in range(n) if c not in pivots]
    re, im, sc = E._int()
    rows = [None] * n
    for j, f in enumerate(free):
        unit = [0] * len(free)
        unit[j] = 1
        rows[f] = (unit, None, 1)
    for r, p in enumerate(piv):
        rows[p] = _lowest([-re[r][f] for f in free], None if im is None else [-im[r][f] for f in free], sc[r])
    return _mat(n, len(free), *_unzip(rows))


def _meet(T: Mat, E: Mat, piv: Sequence[int]) -> Tuple[Mat, Mat]:
    """(I, C) for the span S of T's columns and the subspace ker E, E in
    reduced row echelon form with pivots piv: a basis of S & ker E and a
    complement C of it in S, by columns.  I = T K for K the null space of
    E T, read off its rref, and C the columns of T at that rref's pivots.
    When T is the whole space's identity basis, E is its own rref."""
    if T.cols == T.rows:
        return _null_space(E, piv), T.select_cols(piv)
    Rm, p = rref(E @ T)
    return T @ _null_space(Rm.select_rows(range(len(p))), p), T.select_cols(p)


def _grid(cells: Dict[Tuple[int, int], Mat], rows: Sequence[int], cols: Sequence[int]) -> Mat:
    """The block matrix with block rows and columns of the given sizes, the
    given blocks at their (block row, block column) and zeros elsewhere,
    built row by row on the integer form over the lcm of the row scales."""
    offsets = list(accumulate(cols, initial=0))
    width = offsets[-1]
    forms = [(i, offsets[j], X._int()) for (i, j), X in cells.items()]
    gaussian = any(im is not None for _, _, (_, im, _) in forms)
    out = []
    for i, height in enumerate(rows):
        here = [(off, form) for k, off, form in forms if k == i]
        for a in range(height):
            s = lcm(*(sc[a] for _, (_, _, sc) in here))
            re = [0] * width
            im = [0] * width if gaussian else None
            for off, (xre, xim, xsc) in here:
                f = s // xsc[a]
                re[off : off + len(xre[a])] = [v * f for v in xre[a]]
                if xim is not None:
                    im[off : off + len(xim[a])] = [v * f for v in xim[a]]
            out.append((re, im, s))
    return _mat(sum(rows), width, *_unzip(out))


def _minimal_chains(A: Mat, B: Mat, total: int) -> List[Mat]:
    """A minimal polynomial basis of ker(sA - B), as chains x_0..x_k, the
    columns of one Mat each, with B x_0 = 0, B x_i = A x_{i-1} and
    A x_k = 0: the pencil's S3(k) blocks (S1 for k = 0), when every vector
    of the domain lies in one and the domain has dimension `total`.

    Degree k solves the block system for x_0..x_k at once, and keeps the
    kernel vectors independent of the shifts of the shorter chains (the
    pivot columns of one `rref`, shifts first).  It stops when the chains
    hold `total` vectors, and raises DomainError if they cannot."""
    m, r = A.cols, A.rows
    minus_A = -A
    chains: List[Mat] = []
    held = k = 0
    while held < total:
        if k >= total:
            raise DomainError(f"no minimal basis of the pencil's kernel fills dimension {total}")
        cells = {(0, 0): B, (k + 1, k): A}
        for i in range(1, k + 1):
            cells[i, i - 1] = minus_A
            cells[i, i] = B
        kernel = kernel_basis(_grid(cells, [r] * (k + 2), [m] * (k + 1)))
        shifts = [
            _grid({(t + j, 0): X.select_cols([j]) for j in range(X.cols)}, [m] * (k + 1), [1])
            for X in chains
            for t in range(k + 2 - X.cols)
        ]
        new = kernel
        if shifts and kernel:
            _, piv = rref(Mat.from_cols(shifts + kernel, (k + 1) * m))
            new = [kernel[j - len(shifts)] for j in piv if j >= len(shifts)]
        for v in new:
            chains.append(_zeros(m, 0).hstack(*(v.select_rows(range(i * m, (i + 1) * m)) for i in range(k + 1))))
        held += len(new) * (k + 1)
        k += 1
    return chains


def _regular_part(F: Mat, G: Mat, C: Mat, N: Optional[Mat], lift: Optional[Mat], field: Optional[Field]):
    """(label, Q, P) per Jordan chain of a regular part: S4 for (F, G) =
    (A, B) and C a complement of V_I in V*, S5 for (F, G) = (B, A), C a
    complement of V_I in W* and field None.

    With D = F C, G C = D N + F T_I X, so the quotient pencil is (I, N) (N
    is given when V_I = 0 and C is the Wong basis).  Its chains for N - lam
    are lifted into V by q_j = C z_j + T_I u_j with (G - lam F) q_j =
    F q_{j-1}, one `solve_linear` per level.  The solve always succeeds,
    since G - lam F maps V_I onto F V_I for every lam; it is skipped (lift
    None) when F V_I = 0, where C z_j is already exact.  For S4, the
    squarefree part of N's min poly, which has its roots, is factored over
    the field (unless N is lam I), and a non-linear factor raises
    FieldError; for S5, N must be nilpotent."""
    c = C.cols
    if N is None:
        D = F @ C
        X = solve_linear(D if lift is None else D.hstack(F @ lift), G @ C)
        if X is None:
            raise DomainError("the quotient pencil of a Wong limit is not (I, N)")
        N = X.select_rows(range(c))
    lams = [ZERO]
    if field is not None:
        lam = N.scalar_value()
        if lam is not None and field.contains(lam):
            lams = [lam]
        else:
            lams = []
            for f, _ in factor_unipoly(_squarefree(_in_field(min_poly(N), field)), field):
                if f.degree() != 1:
                    raise FieldError(f"pencil eigenvalue not in the field {field.name}: min poly {f}")
                lams.append(-f.coeffs.get(0, ZERO))
    out, held = [], 0
    for lam in lams:
        L = None if lift is None else (G - F.scale(lam)) @ lift
        for chain in jordan_chains(N - Mat.scalar(c, lam) if lam else N):
            n = len(chain)
            held += n
            Q = C @ _zeros(c, 0).hstack(*chain)
            if lift is not None:
                cols = []
                for j in range(n):
                    base = Q.select_cols([j])
                    rhs = (F @ base).scale(lam) - G @ base
                    if cols:
                        rhs = rhs + F @ cols[-1]
                    U = solve_linear(L, rhs)
                    if U is None:
                        raise DomainError("a Jordan chain does not lift into the pencil")
                    cols.append(base + lift @ U)
                Q = _zeros(C.rows, 0).hstack(*cols)
            label = KroneckerBlockLabel("S5", n) if field is None else KroneckerBlockLabel("S4", n, lam)
            out.append((label, Q, F @ Q))
    if held != c:
        raise DomainError("the quotient pencil of a Wong limit is not (I, N) with N nilpotent")
    return out


def _s2_part(A: Mat, B: Mat, parts):
    """(label, Q, P) per S2 block, given every other block's (label, Q, P).

    The other blocks' Q columns span V* + W* and their P columns Z =
    A V* + B W*.  When every S2 block has n <= 1 (one block, or A G, B G
    independent modulo Z), each vector e of a complement G of V* + W* is an
    S2(1) with P columns A e, B e.  Otherwise, the annihilator of Z holds
    the S3 part of the transposed pencil: its chains phi_0..phi_n
    (`_minimal_chains` on (Phi A)^T, (Phi B)^T for a basis Phi) are the
    dual rows of the S2(n) blocks, and e*_i = phi_i A those of their
    domains.  Each chain with n >= 1 is lifted by one solve for e_0..e_{n-1}
    with B e_i = A e_{i+1} and e*(e_i) the unit at its own index; its P
    columns are A e_0, ..., A e_{n-1}, B e_{n-1}.  The solve succeeds as
    Ext^1(S2, the other series) = 0.  Each S2(0) takes a unit vector off
    the span of every other P column."""
    d2, d1 = A.shape
    P = _zeros(d2, 0).hstack(*(p for _, _, p in parts))
    h = d2 - P.cols
    if not h:
        return []
    Q = _zeros(d1, 0).hstack(*(q for _, q, _ in parts))
    g = d1 - Q.cols
    out, zeros = [], h
    if g:
        G = _complement(Q)
        if g == 1 or rank(P.hstack(A @ G, B @ G)) == P.cols + 2 * g:
            for j in range(g):
                e = G.select_cols([j])
                out.append((KroneckerBlockLabel("S2", 1), e, (A @ e).hstack(B @ e)))
            zeros = h - 2 * g
        else:
            out, zeros = _s2_chains(A, B, P, g)
        P = P.hstack(*(p for _, _, p in out))
    if zeros:
        units = _complement(P)
        out += [(KroneckerBlockLabel("S2", 0), _zeros(d1, 0), units.select_cols([j])) for j in range(zeros)]
    return out


def _s2_chains(A: Mat, B: Mat, P: Mat, g: int):
    """The S2(n) blocks with n >= 1 and the number of S2(0) blocks, from the
    dual chains on the annihilator of P's columns (see `_s2_part`)."""
    d2, d1 = A.shape
    PhiT = Mat.from_cols(kernel_basis(P.transpose()), d2)
    Phi = PhiT.transpose()
    chains = _minimal_chains((Phi @ A).transpose(), (Phi @ B).transpose(), PhiT.cols)
    duals = [(PhiT @ W).transpose() for W in chains]
    E = reduce(Mat.vstack, [F.select_rows(range(F.rows - 1)) @ A for F in duals])
    if E.rows != g:
        raise DomainError("the S2 chains do not fill the quotient by the Wong limits")
    out, zeros, o = [], 0, 0
    for W in chains:
        n = W.cols - 1
        if not n:
            zeros += 1
            continue
        cells = {(i, i): B for i in range(n - 1)}
        cells.update({(i, i + 1): -A for i in range(n - 1)})
        cells.update({(n - 1 + i, i): E for i in range(n)})
        height = (n - 1) * d2 + n * g
        ones = {(n - 1) * d2 + i * g + o + i for i in range(n)}
        rhs = _mat(height, 1, [[int(r in ones)] for r in range(height)], None, [1] * height)
        X = solve_linear(_grid(cells, [d2] * (n - 1) + [g] * n, [d1] * n), rhs)
        if X is None:
            raise DomainError("an S2 chain does not lift into the pencil")
        Q = _zeros(d1, 0).hstack(*(X.select_rows(range(i * d1, (i + 1) * d1)) for i in range(n)))
        out.append((KroneckerBlockLabel("S2", n), Q, (A @ Q).hstack(B @ Q.select_cols([n - 1]))))
        o += n
    return out, zeros


def _complement(M: Mat) -> Mat:
    """Unit vectors, by columns, completing M's independent columns to a
    basis: those at the non-pivot columns of rref(M^T)."""
    _, piv = rref(M.transpose())
    pivots = set(piv)
    return Mat.scalar(M.rows, ONE).select_cols(c for c in range(M.rows) if c not in pivots)


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
    d = len(w) + 1
    h1 = _ones(d, d, [(j + 1, j) for j, letter in enumerate(w) if letter == 1])
    h2 = _ones(d, d, [(j, j + 1) for j, letter in enumerate(w) if letter == 2])
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
    # the entries of h1 and h2 by (row, col): letter j maps block j to block
    # j + 1 (h1) or back (h2) by the identity, the wrap letter by the Jordan cell
    entries = ({}, {})
    for j, letter in enumerate(w):
        k = (j + 1) % l
        r, c = (k * n, j * n) if letter == 1 else (j * n, k * n)
        wrap = j == l - 1
        for a in range(n):
            entries[letter - 1][r + a, c + a] = lam if wrap else ONE
            if wrap and a + 1 < n:
                entries[letter - 1][r + a, c + a + 1] = ONE
    h1, h2 = (_from_entries(n * l, n * l, e) for e in entries)
    mod = GammaModule("band", f"{word_str(w)};n={n};lam={lam}", h1, h2)
    mod.check_relation()
    return mod


# -- Jordan data of one-variable fibers -------------------------------------


def jordan_fiber_decompose(fiber: Fiber) -> Dict[Tuple[int, Scalar], int]:
    """Multiset of Jordan block data (size, eigenvalue) of a k=1 fiber: the
    lengths of the `jordan_chains` of A - lam, which must fill the fiber."""
    if fiber.k != 1:
        raise DomainError("Jordan decomposition needs a one-variable fiber")
    lam = fiber.center[0]
    chains = jordan_chains(fiber.matrices[0] - Mat.scalar(fiber.dim, lam))
    if sum(map(len, chains)) != fiber.dim:
        raise DomainError("matrix is not nilpotent after the shift")
    sizes = [len(chain) for chain in chains]
    return {(s, lam): sizes.count(s) for s in sorted(set(sizes))}


# -- the algebra K[h1,h2]/(h1^2, h2^2) --------------------------------------


def regular_A_module() -> Tuple[Mat, Mat]:
    """Left regular module on the basis {1, h1, h2, h1h2}."""
    return _ones(4, 4, [(1, 0), (3, 2)]), _ones(4, 4, [(2, 0), (3, 1)])


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
