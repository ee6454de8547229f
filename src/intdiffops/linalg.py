"""Exact linear algebra over Q / Q(i).

Matrices carry explicit (rows, cols) so zero-dimensional spaces (which occur
as weight spaces outside a module's support) are handled uniformly.  This is
the one place that assembles matrices from columns (`Mat.from_cols`) or
blocks (`block_diag`) and solves for them: `solve_linear` takes any number
of right-hand sides.  It is also the one place that writes and solves
Hom spaces.  Pencils, modules on one space and module windows are all
`QuiverRep`s; `hom_space` turns the intertwining equations phi_t f = g phi_s
of two of them into one `BlockSystem`, `restrict` gives the
sub-representation on per-vertex bases, and `split`, in one pass over the
arrows, the summands of a direct sum given by bases that fill every
vertex.  `opposite_forest` spans a representation by opposite pairs,
arrows f : s -> t and g : t -> s with g f = 1, such as d_i and int_i of a
module window off its degenerate layer, and `ForestTransport` contracts it
along them to one vertex per tree.  Hom, isomorphism and splitting of a
window are solved on its contraction and carried back: End of a scrambled
M(5,0) + M(2,0) on 21 points (147 dimensions) is a 7x7 system at one root,
49 unknowns instead of 1,029, and takes 0.04 s instead of 26.6 s.  A
window's blocks are the `split` of its contraction by their bases at the
roots.  Deciding isomorphism needs the Krull-Schmidt splitter, so it lives
in `classify`.

A `Mat` works on integer rows.  Row i is a list of ints over one positive
scale (and a second list for the imaginary parts over Q(i)), in lowest
terms, so the form is canonical.  Products, sums, stacks, slices and scalar
multiples compute the integer result directly and reduce each output row by
one gcd with its scale; a right operand of `@` keeps its columns over a
common scale.  A product of two real matrices, as most products of a
contracted window are (1x1 to 3x3), runs one loop of dense dot products,
taking a mostly zero row nonzero by nonzero.  Scalars are built only when
`.data` is read: for printing, JSON, and the callers that walk entries.
Rows are never written once a Mat holds them, so Mats may share rows.

Elimination has one kernel, `_sparse_echelon` and `_sparse_rref`, on rows
that are dicts of their nonzero integer entries (`_sparse_rows`), with the
row operations `_eliminate_q`, `_eliminate_qi` and `_real_pivot`.  `rref`,
`rank` and `kernel_basis` (the column Mats of `sparse_kernel`) run every
matrix through it, over Q and Q(i) alike, and so do `solve_linear`,
`invert` and `column_space_basis` through `rref`, every Hom system
(`BlockSystem`), and the trace form and the power rows of `min_poly` in
`classify`.  The reduced echelon form is unique, so the pivot rule never
shows in results.  `jordan_chains` reads Jordan chains of a square matrix
off the kernels of its powers, for the pencil chains and fiber labels of
`classify`.  A Hom system has Sum_v m_v*n_v unknowns but at most
d_s + d_t nonzeros per row, so sparsity is what keeps large strings, bands
and pencils affordable.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import accumulate, chain
from math import gcd, lcm
from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .scalars import ONE, ZERO, Scalar, common_den

class DomainError(ValueError):
    """A well-formed request whose mathematical preconditions fail."""


class Mat:
    """Dense matrix over Q or Q(i) with explicit (rows, cols).

    A Mat holds its entries in integer form (re_rows, im_rows, scales): entry
    (i, j) is (re_rows[i][j] + im_rows[i][j]*i) / scales[i].  Each row is in
    lowest terms, so its scale is the lcm of the row's reduced denominators
    and a zero row has scale 1; im_rows is None exactly when every entry is
    rational.  The form is canonical: two matrices are equal iff their forms
    are, and it is what `_int_rows` makes of the same Scalars.

    `.data` is the rows of Scalars.  A matrix born of arithmetic or of
    `scalar` builds them once, on first read; a matrix built from Scalars
    (`Mat(rows, cols, data)`, `zero`, `identity`, ...) has them from the
    start and derives its integer form on first use as an operand or in a
    comparison.  A right operand of `@` also caches its columns.  So a Mat
    may be written (through `.data`) only while fresh, before its first use
    as an operand.  The package builds every matrix from its entries and
    writes none; only callers outside it fill a fresh `zero` or `identity`.
    """

    __slots__ = ("rows", "cols", "_data", "_ints", "_colform")

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence] | None = None):
        self.rows = rows
        self.cols = cols
        self._ints = self._colform = None
        if data is None:
            self._data = [[ZERO] * cols for _ in range(rows)]
        else:
            if len(data) != rows:
                raise ValueError("row count mismatch")
            self._data = [[Scalar.of(x) for x in row] for row in data]
            for row in self._data:
                if len(row) != cols:
                    raise ValueError("column count mismatch")

    @property
    def data(self) -> List[List[Scalar]]:
        """The rows of Scalars, built from the integer form on first read."""
        if self._data is None:
            self._data = _scalar_rows(*self._ints)
        return self._data

    def _int(self):
        """The integer form (re_rows, im_rows, scales), derived from the
        Scalars on first use.  Shared, never written: callers that eliminate
        copy the outer lists and replace rows."""
        if self._ints is None:
            self._ints = _int_rows(self._data)
        return self._ints

    def _columns(self):
        """The columns as int tuples over one common scale: (re_cols,
        im_cols, scale), cached for right operands of products."""
        if self._colform is None:
            re, im, sc = self._int()
            s = lcm(*sc)
            if s > 1:
                fs = [s // t for t in sc]
                re = [[v * f for v in row] for row, f in zip(re, fs)]
                if im is not None:
                    im = [[v * f for v in row] for row, f in zip(im, fs)]
            self._colform = (list(zip(*re)), None if im is None else list(zip(*im)), s)
        return self._colform

    @staticmethod
    def identity(n: int) -> "Mat":
        m = Mat(n, n)
        for i in range(n):
            m._data[i][i] = ONE
        return m

    @staticmethod
    def scalar(n: int, c) -> "Mat":
        """c times the n x n identity, built in integer form: c = (p + r*i)/q
        in lowest terms on every diagonal entry."""
        c = Scalar.of(c)
        if c.is_zero():
            return _zeros(n, n)
        pr, pi, q = c.nre, c.nim, c.den
        re = [[0] * n for _ in range(n)]
        im = [[0] * n for _ in range(n)] if pi else None
        for i in range(n):
            re[i][i] = pr
            if pi:
                im[i][i] = pi
        return _mat(n, n, re, im, [q] * n)

    @staticmethod
    def zero(rows: int, cols: int) -> "Mat":
        return Mat(rows, cols)

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: int | None = None) -> "Mat":
        if cols is None:
            if not rows:
                raise ValueError("cannot infer column count of empty matrix")
            cols = len(rows[0])
        return Mat(len(rows), cols, rows)

    @staticmethod
    def col_vector(entries: Sequence) -> "Mat":
        return Mat(len(entries), 1, [[x] for x in entries])

    @staticmethod
    def from_cols(vectors: Sequence["Mat"], rows: int) -> "Mat":
        """The rows x len(vectors) matrix whose columns are the given column
        vectors."""
        return _zeros(rows, 0).hstack(*vectors)

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i: int) -> List[Scalar]:
        return list(self.data[i])

    def col(self, j: int) -> List[Scalar]:
        return [row[j] for row in self.data]

    def select_rows(self, rs: Iterable[int]) -> "Mat":
        """The matrix of the rows rs, in that order."""
        re, im, sc = self._int()
        rs = list(rs)
        im = None if im is None else [im[r] for r in rs]
        return _mat(len(rs), self.cols, [re[r] for r in rs], im, [sc[r] for r in rs])

    def select_cols(self, js: Iterable[int]) -> "Mat":
        """The matrix of the columns js, in that order."""
        re, im, sc = self._int()
        js = list(js)
        out = [
            _lowest([row[j] for j in js], None if im is None else [im[i][j] for j in js], s)
            for i, (row, s) in enumerate(zip(re, sc))
        ]
        return _mat(self.rows, len(js), *_unzip(out))

    def __matmul__(self, other: "Mat") -> "Mat":
        """Row i of A times B's columns over a common scale s: integer dot
        products, then one gcd with the row's denominator scale_i * s.

        When both operands are real, one loop builds the result's rows and
        scales directly: a row with at least half its entries nonzero takes
        the dense dot sum(map(mul, row, col)), a sparser one a dot over its
        nonzero entries (a dense dot everywhere took a 120x120, 5 %-dense
        product from 8 ms to 50 ms).  That loop is what the contracted
        window Hom spaces spend their time in, on 1x1 to 3x3 blocks: a 2x2
        product takes 3.4 us against 5.9 us through the (re, im, scale) row
        tuples of the Gaussian loop below (CPython 3.11, 2 vCPUs)."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        if not (self.rows and self.cols and other.cols):
            return _zeros(self.rows, other.cols)
        are, aim, asc = self._int()
        bre, bim, s = other._columns()
        zero = [0] * other.cols
        if aim is None and bim is None:
            half = self.cols // 2
            rows, scales = [], []
            for ar, d in zip(are, asc):
                zeros = ar.count(0)
                if zeros <= half:
                    re = [sum(map(mul, ar, col)) for col in bre]
                elif zeros == self.cols:
                    rows.append(zero)
                    scales.append(1)
                    continue
                else:
                    nz = [(k, a) for k, a in enumerate(ar) if a]
                    re = [sum([a * col[k] for k, a in nz]) for col in bre]
                d *= s
                if d != 1:
                    g = gcd(d, *re)
                    if g != 1:
                        re = [v // g for v in re]
                        d //= g
                rows.append(re)
                scales.append(d)
            return _mat(self.rows, other.cols, rows, None, scales)
        out = []
        for i, ar in enumerate(are):
            ai = None if aim is None else aim[i]
            if ai is None or not any(ai):
                nz = [(k, a) for k, a in enumerate(ar) if a]
                if not nz:
                    out.append((zero, None, 1))
                    continue
                re = [sum([a * col[k] for k, a in nz]) for col in bre]
                im = None if bim is None else [sum([a * col[k] for k, a in nz]) for col in bim]
            else:
                nz = [(k, a, b) for k, (a, b) in enumerate(zip(ar, ai)) if a or b]
                re = [sum([a * col[k] for k, a, _ in nz]) for col in bre]
                im = [sum([b * col[k] for k, _, b in nz]) for col in bre]
                if bim is not None:
                    for j, col in enumerate(bim):
                        re[j] -= sum([b * col[k] for k, _, b in nz])
                        im[j] += sum([a * col[k] for k, a, _ in nz])
            out.append(_lowest(re, im, asc[i] * s))
        return _mat(self.rows, other.cols, *_unzip(out))

    def __add__(self, other: "Mat") -> "Mat":
        return self._plus(other, 1)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._plus(other, -1)

    def _plus(self, other: "Mat", sign: int) -> "Mat":
        """self + sign * other, row by row over the lcm of the two scales."""
        self._same_shape(other)
        are, aim, asc = self._int()
        bre, bim, bsc = other._int()
        gaussian = aim is not None or bim is not None
        zero = [0] * self.cols
        out = []
        for i, (sa, sb) in enumerate(zip(asc, bsc)):
            s = sa if sa == sb else lcm(sa, sb)
            fa, fb = s // sa, sign * (s // sb)
            re = [a * fa + b * fb for a, b in zip(are[i], bre[i])]
            im = None
            if gaussian:
                ai = zero if aim is None else aim[i]
                bi = zero if bim is None else bim[i]
                im = [a * fa + b * fb for a, b in zip(ai, bi)]
            out.append(_lowest(re, im, s))
        return _mat(self.rows, self.cols, *_unzip(out))

    def __neg__(self) -> "Mat":
        return self.scale(-1)

    def scale(self, c) -> "Mat":
        """c times the matrix: each row times c's numerator p over the row's
        scale times c's denominator q."""
        c = Scalar.of(c)
        pr, pi, q = c.nre, c.nim, c.den
        re, im, sc = self._int()
        out = []
        for i, (row, s) in enumerate(zip(re, sc)):
            irow = None if im is None else im[i]
            if irow is None:
                nre = [a * pr for a in row]
                nim = [a * pi for a in row] if pi else None
            else:
                nre = [a * pr - b * pi for a, b in zip(row, irow)]
                nim = [a * pi + b * pr for a, b in zip(row, irow)]
            out.append(_lowest(nre, nim, s * q))
        return _mat(self.rows, self.cols, *_unzip(out))

    def transpose(self) -> "Mat":
        if not (self.rows and self.cols):
            return _zeros(self.cols, self.rows)
        re, im, s = self._columns()
        out = [
            _lowest(list(col), None if im is None else list(im[j]), s) for j, col in enumerate(re)
        ]
        return _mat(self.cols, self.rows, *_unzip(out))

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        re, im, _ = self._int()
        return im is None and not any(map(any, re))

    def is_identity(self) -> bool:
        if not (self.rows or self.cols):
            return True
        c = self.scalar_value()
        return c is not None and c.is_one()

    def scalar_value(self) -> Optional[Scalar]:
        """c when the matrix is square with at least one row and equals c
        times the identity, else None.  Read off the integer rows: those of
        c*I all hold c's numerators on the diagonal over c's denominator."""
        n = self.rows
        if not n or n != self.cols:
            return None
        re, im, sc = self._int()
        p, q = re[0][0], sc[0]
        pi = 0 if im is None else im[0][0]
        zeros, izeros = n - (p != 0), n - (pi != 0)
        for i, row in enumerate(re):
            if sc[i] != q or row[i] != p or row.count(0) != zeros:
                return None
            if im is not None and (im[i][i] != pi or im[i].count(0) != izeros):
                return None
        return Scalar.frac(p, pi, q)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.shape == other.shape and self._int() == other._int()

    def __hash__(self):
        re, im, sc = self._int()
        im = None if im is None else tuple(map(tuple, im))
        return hash((self.rows, self.cols, tuple(map(tuple, re)), im, tuple(sc)))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"Mat({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Mat[{body}]"

    def hstack(self, *others: "Mat") -> "Mat":
        """Rows side by side over the lcm of their scales, which is already
        the lowest common denominator."""
        if any(o.rows != self.rows for o in others):
            raise ValueError("hstack row mismatch")
        parts = [(m._int(), m.cols) for m in (self, *others)]
        gaussian = any(im is not None for (_, im, _), _ in parts)
        out = []
        for i in range(self.rows):
            s = lcm(*(sc[i] for (_, _, sc), _ in parts))
            re, im = [], [] if gaussian else None
            for (pre, pim, sc), cols in parts:
                f = s // sc[i]
                re += pre[i] if f == 1 else [v * f for v in pre[i]]
                if gaussian:
                    im += [0] * cols if pim is None else pim[i] if f == 1 else [v * f for v in pim[i]]
            out.append((re, im, s))
        return _mat(self.rows, sum(cols for _, cols in parts), *_unzip(out))

    def vstack(self, other: "Mat") -> "Mat":
        if self.cols != other.cols:
            raise ValueError("vstack column mismatch")
        (are, aim, asc), (bre, bim, bsc) = self._int(), other._int()
        im = None
        if aim is not None or bim is not None:
            im = (aim or [[0] * self.cols] * self.rows) + (bim or [[0] * self.cols] * other.rows)
        return _mat(self.rows + other.rows, self.cols, are + bre, im, asc + bsc)

    def _same_shape(self, other: "Mat"):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")


def _mat(rows: int, cols: int, re, im, sc) -> Mat:
    """A Mat born of its integer form.  The rows must be in lowest terms;
    im may hold None for a real row, and becomes None when no entry is
    non-real."""
    if im is not None:
        if not any(map(any, filter(None, im))):
            im = None
        elif None in im:
            im = [[0] * cols if r is None else r for r in im]
    m = object.__new__(Mat)
    m.rows, m.cols, m._data, m._ints, m._colform = rows, cols, None, (re, im, sc), None
    return m


@lru_cache(maxsize=1024)
def _zeros(rows: int, cols: int) -> Mat:
    """The zero matrix, one per shape while it stays in the cache: a Mat
    built by the package is never written, and its rows share one list."""
    return _mat(rows, cols, [[0] * cols] * rows, None, [1] * rows)


def _unzip(rows):
    """(re_rows, im_rows, scales) from a list of (re, im, scale) rows."""
    if not rows:
        return [], None, []
    re, im, sc = zip(*rows)
    return list(re), list(im), list(sc)


def _lowest(re: List[int], im: Optional[List[int]], den: int):
    """The row (re + im*i) / den in lowest terms, den > 0: one gcd."""
    if den == 1:
        return re, im, 1
    g = gcd(den, *re) if im is None else gcd(den, *re, *im)
    if g == 1:
        return re, im, den
    return [v // g for v in re], None if im is None else [v // g for v in im], den // g


def _scalar_rows(re, im, sc) -> List[List[Scalar]]:
    """The rows of Scalars of an integer form."""
    frac = Scalar.frac
    out = []
    for i, (row, s) in enumerate(zip(re, sc)):
        irow = None if im is None else im[i]
        if irow is None or not any(irow):
            out.append([frac(a, 0, s) if a else ZERO for a in row])
        else:
            out.append([frac(a, b, s) if a or b else ZERO for a, b in zip(row, irow)])
    return out


def _int_rows(data: Sequence[Sequence[Scalar]]):
    """The integer form of rows of Scalars: each row times the lcm of its
    denominators, as plain ints.

    Returns (re_rows, im_rows, scales); im_rows is None when every entry is
    rational.  This is the one way from Scalars into a Mat's integer form.
    """
    gaussian = any(x.nim for row in data for x in row)
    re_rows, scales = [], []
    im_rows = [] if gaussian else None
    for row in data:
        m = common_den(row)
        re_rows.append([x.nre * (m // x.den) for x in row])
        if gaussian:
            im_rows.append([x.nim * (m // x.den) for x in row])
        scales.append(m)
    return re_rows, im_rows, scales


def rref(matrix: Mat):
    """Reduced row echelon form; returns (Mat, pivot_columns).  The reduced
    form depends only on the row space, so the integer rows enter the sparse
    kernel without their scales, and each pivot row comes back over its
    (real) pivot in lowest terms."""
    re, im, _ = matrix._int()
    rows, cols = matrix.rows, matrix.cols
    gaussian = im is not None
    pivots = _sparse_rref(_sparse_rows(re, im), cols, gaussian)
    out = [([0] * cols, None, 1)] * rows
    for r, (c, row) in enumerate(pivots):
        if gaussian:
            P = row[c][0]
            g = gcd(*chain.from_iterable(row.values()))
        else:
            P = row[c]
            g = gcd(*row.values())
        g = g if P > 0 else -g
        nre, nim = [0] * cols, [0] * cols if gaussian else None
        for k, v in row.items():
            if gaussian:
                nre[k], nim[k] = v[0] // g, v[1] // g
            else:
                nre[k] = v // g
        out[r] = (nre, nim, P // g)
    return _mat(rows, cols, *_unzip(out)), [c for c, _ in pivots]


def rank(matrix: Mat) -> int:
    re, im, _ = matrix._int()
    return sparse_rank(_sparse_rows(re, im), matrix.cols, im is not None)


def kernel_basis(matrix: Mat) -> List[Mat]:
    """Basis of {x : A x = 0} as column vectors: the vectors of
    `sparse_kernel`, one per free column of rref(A) in order.  A rational
    vector is scaled to coprime integers."""
    re, im, _ = matrix._int()
    n = matrix.cols
    basis = []
    for vec in sparse_kernel(_sparse_rows(re, im), n, im is not None):
        entries = [vec.get(k, (0, 0, 1)) for k in range(n)]
        vre = [[a] for a, _, _ in entries]
        vim = [[b] for _, b, _ in entries] if any(b for _, b, _ in entries) else None
        basis.append(_mat(n, 1, vre, vim, [d for _, _, d in entries]))
    return basis


# -- sparse elimination ------------------------------------------------------
#
# A sparse row is a dict of its nonzero entries, column -> int over Q and
# column -> (re, im) over Q(i), with no scale: these rows are homogeneous
# equations, so only the row space matters and every row elimination writes
# is made primitive (divided by the gcd of all its integer parts).  Rows may
# enter with a common factor; making them primitive first costs more than
# it saves on the small matrices of `rref`.


def _sparse_rows(re: List[List[int]], im: Optional[List[List[int]]]) -> List[dict]:
    """The sparse rows of integer rows, scales dropped: ints over Q (im is
    None), (re, im) pairs over Q(i).  Plain loops: a comprehension over
    enumerate(zip(...)) took 1.8x as long."""
    out = []
    if im is None:
        for r in re:
            row = {}
            for k, a in enumerate(r):
                if a:
                    row[k] = a
            out.append(row)
        return out
    for r, i in zip(re, im):
        row = {}
        for k, a in enumerate(r):
            b = i[k]
            if a or b:
                row[k] = (a, b)
        out.append(row)
    return out


def _primitive_q(row: dict) -> dict:
    g = gcd(*row.values())
    return {k: v // g for k, v in row.items()} if g > 1 else row


def _primitive_qi(row: dict) -> dict:
    g = gcd(*chain.from_iterable(row.values()))
    return {k: (a // g, b // g) for k, (a, b) in row.items()} if g > 1 else row


def _eliminate_q(row: dict, c: int, prow: dict) -> dict:
    """P*row - h*prow, primitive, where P = prow[c] and h = row[c]."""
    P, h = prow[c], row[c]
    g = gcd(P, h)
    P, h = P // g, h // g
    new = {k: P * v for k, v in row.items()} if P != 1 else dict(row)
    for k, v in prow.items():
        x = new.get(k, 0) - h * v
        if x:
            new[k] = x
        else:
            del new[k]
    return _primitive_q(new) if new else new


def _eliminate_qi(row: dict, c: int, prow: dict) -> dict:
    """P*row - h*prow over Z[i], primitive; the pivot P = prow[c] is real."""
    P = prow[c][0]
    hr, hi = row[c]
    g = gcd(P, hr, hi)
    P, hr, hi = P // g, hr // g, hi // g
    new = {k: (P * a, P * b) for k, (a, b) in row.items()} if P != 1 else dict(row)
    for k, (x, y) in prow.items():
        a, b = new.get(k, (0, 0))
        a -= hr * x - hi * y
        b -= hr * y + hi * x
        if a or b:
            new[k] = (a, b)
        else:
            del new[k]
    return _primitive_qi(new) if new else new


def _real_pivot(row: dict, c: int) -> dict:
    """The row times the conjugate of its entry at c, primitive: the pivot
    becomes the rational integer |row[c]|^2.  Without this, content
    reduction alone lets the Gaussian entries grow without bound."""
    pr, pi = row[c]
    if not pi:
        return row
    return _primitive_qi({k: (a * pr + b * pi, b * pr - a * pi) for k, (a, b) in row.items()})


def _sparse_echelon(rows: List[dict], ncols: int, gaussian: bool) -> List[Tuple[int, int]]:
    """Forward elimination of sparse rows, in place; returns the pivots as
    (column, row index) in column order.

    For each column in order the pivot is the sparsest live row holding it,
    found through a column -> live rows index, and only the live rows that
    hold the column are eliminated.  Over Q(i) the pivot row is first made
    to have a real pivot (`_real_pivot`).  A pivot row holds no earlier pivot
    column.  It serves `sparse_rank` and `_sparse_rref`, so every
    elimination in the package."""
    holders = [set() for _ in range(ncols)]
    for r, row in enumerate(rows):
        for k in row:
            holders[k].add(r)
    eliminate = _eliminate_qi if gaussian else _eliminate_q
    pivots = []
    for c in range(ncols):
        hs = holders[c]
        if not hs:
            continue
        p = min(hs, key=lambda r: (len(rows[r]), r))
        prow = rows[p]
        for k in prow:
            holders[k].discard(p)
        if gaussian:
            prow = rows[p] = _real_pivot(prow, c)
        for r in list(hs):
            new = rows[r] = eliminate(rows[r], c, prow)
            for k in prow:
                if k in new:
                    holders[k].add(r)
                else:
                    holders[k].discard(r)
        pivots.append((c, p))
        if len(pivots) == len(rows):
            break
    return pivots


def _sparse_rref(rows: List[dict], ncols: int, gaussian: bool) -> List[Tuple[int, dict]]:
    """The pivot rows of the reduced echelon form of sparse rows, as
    (pivot column, row) in column order; row / row[c] is the reduced row,
    and its pivot is a positive or negative rational integer.  It serves
    `sparse_kernel` and `rref`."""
    pivots = _sparse_echelon(rows, ncols, gaussian)
    eliminate = _eliminate_qi if gaussian else _eliminate_q
    # the earlier pivot rows holding each pivot column; back-substituting a
    # later pivot adds only free columns, so these lists stay exact
    above = {c: [] for c, _ in pivots}
    for c, r in pivots:
        for k in rows[r]:
            if k != c and k in above:
                above[k].append(r)
    for c, p in reversed(pivots):
        prow = rows[p]
        for r in above[c]:
            rows[r] = eliminate(rows[r], c, prow)
    return [(c, rows[r]) for c, r in pivots]


def sparse_rank(rows: List[dict], ncols: int, gaussian: bool) -> int:
    """Rank of sparse rows; the list is rewritten in place, the row dicts
    are never written.  `rank` calls it on every matrix, and `classify` on
    its trace forms."""
    return len(_sparse_echelon(rows, ncols, gaussian))


def sparse_kernel(rows: List[dict], ncols: int, gaussian: bool) -> List[dict]:
    """Kernel basis of sparse rows (the list is rewritten in place), one
    vector per free column in order, as a dict of its nonzero entries column -> (re,
    im, den), each in lowest terms with den > 0: 1 at the free column and
    minus the reduced row's entry at each pivot column, scaled to coprime
    integers (den 1) when every entry is rational.  Read off the pivot rows
    in time linear in their entries; `kernel_basis` gives the same vectors
    as column Mats."""
    pivots = _sparse_rref(rows, ncols, gaussian)
    # per free column, its (pivot column, entry, pivot) in the pivot rows
    hits = {}
    for c, row in pivots:
        P = row[c][0] if gaussian else row[c]
        for k, v in row.items():
            if k != c:
                hits.setdefault(k, []).append((c, v, P))
    piv_set = {c for c, _ in pivots}
    basis = []
    for fc in range(ncols):
        if fc in piv_set:
            continue
        entries = hits.get(fc, ())
        if gaussian and any(v[1] for _, v, _ in entries):
            vec = {fc: (1, 0, 1)}
            for c, (a, b), P in entries:
                g = gcd(a, b, P) if P > 0 else -gcd(a, b, P)
                vec[c] = (-a // g, -b // g, P // g)
            basis.append(vec)
            continue
        # -v / P at each pivot column, over the common denominator L
        L = lcm(*(P for _, _, P in entries)) if entries else 1
        ints = {fc: L}
        for c, v, P in entries:
            ints[c] = -(v[0] if gaussian else v) * (L // P)
        g = gcd(*ints.values())
        basis.append({k: (u // g, 0, 1) for k, u in ints.items()})
    return basis


def solve_linear(A: Mat, B: Mat) -> Optional[Mat]:
    """A solution X of A X = B (A.cols x B.cols, zero on the free
    variables), for B with A.rows rows and any number of columns; None when
    some column of B lies outside the column space of A.

    One rref of [A | B].  The reduced form is unique, so each column of X
    is the one a single-column solve gives.  Zero-column A or B is
    allowed.
    """
    if B.rows != A.rows:
        raise ValueError(f"dimension mismatch: A is {A.shape}, B is {B.shape}")
    n = A.cols
    R, piv_cols = rref(A.hstack(B))
    if piv_cols and piv_cols[-1] >= n:
        return None
    # row c of X is the B-part of the row of R with pivot c, zero off the pivots
    T = R.select_cols(range(n, R.cols)).vstack(_zeros(1, B.cols))
    row_of = dict(zip(piv_cols, range(len(piv_cols))))
    return T.select_rows(row_of.get(c, R.rows) for c in range(n))


def column_space_basis(columns: Iterable[Mat], dim: int) -> List[Mat]:
    """Deterministic basis of the span of the given column vectors."""
    cols = list(columns)
    _, piv = rref(Mat.from_cols(cols, dim))
    return [cols[j] for j in piv]


def jordan_chains(M: Mat) -> List[List[Mat]]:
    """Jordan chains of a square M that together form a basis of its
    generalized kernel: each chain [x_0, ..., x_{l-1}] has M x_0 = 0 and
    M x_j = x_{j-1}.  Longer chains come first.

    The kernels K_k of the powers M^k are read until they stop growing (or
    fill the space), with no restriction to the generalized eigenspace
    first.  The tops of the chains of length k are the vectors of K_k's
    basis that are independent of K_{k-1} and of the level-k vectors of the
    longer chains (the pivot columns of one `rref`); M carries every chain
    one level down.  M is nilpotent exactly when the chains hold M.rows
    vectors."""
    if M.rows != M.cols:
        raise ValueError(f"Jordan chains need a square matrix, not {M.shape}")
    n = M.rows
    if M.is_zero():
        identity = Mat.scalar(n, ONE)
        return [[identity.select_cols([i])] for i in range(n)]
    kernels: List[List[Mat]] = [[]]
    power = M
    while n:
        K = kernel_basis(power)
        if len(K) == len(kernels[-1]):
            break
        kernels.append(K)
        if len(K) == n:
            break
        power = power @ M
    chains: List[List[Mat]] = []
    for k in range(len(kernels) - 1, 0, -1):
        level = [chain[0] for chain in chains]
        fixed = kernels[k - 1] + level
        if fixed:
            _, piv = rref(Mat.from_cols(fixed + kernels[k], n))
            tops = [kernels[k][j - len(fixed)] for j in piv if j >= len(fixed)]
        else:
            tops = kernels[k]
        chains += [[x] for x in tops]
        if k > 1:
            for chain in chains:
                chain.insert(0, M @ chain[0])
    return chains


def invert(matrix: Mat) -> Optional[Mat]:
    """Exact inverse, or None if singular."""
    if matrix.rows != matrix.cols:
        return None
    n = matrix.rows
    R, piv = rref(matrix.hstack(Mat.scalar(n, ONE)))
    if piv[:n] != list(range(n)):
        return None
    return R.select_cols(range(n, 2 * n))


def retraction(homs: Sequence[Sequence[Mat]], incl: Sequence[Mat]) -> Optional[Tuple[Mat, ...]]:
    """The blocks of a combination rho of the homs with rho_v incl_v = 1 at
    every vertex v, or None when there is none.

    Each hom is a tuple of blocks, one per vertex, of shape incl_v.cols x
    incl_v.rows.  Such rho form an affine subspace, so one solve for the
    coefficients decides, with one row per entry of each identity block.
    """
    prods = [[b @ e for b, e in zip(h, incl)] for h in homs]
    entries = [(v, r, c) for v, e in enumerate(incl) for r in range(e.cols) for c in range(e.cols)]
    A = Mat(len(entries), len(homs), [[P[v].data[r][c] for P in prods] for v, r, c in entries])
    X = solve_linear(A, Mat(len(entries), 1, [[ONE if r == c else ZERO] for _, r, c in entries]))
    if X is None:
        return None
    return _combine(X.col(0), homs, [(e.cols, e.rows) for e in incl])


def _combine(coeffs: Sequence[Scalar], homs: Sequence[Sequence[Mat]], shapes) -> Tuple[Mat, ...]:
    """The blocks of sum c_k homs[k], one per vertex, of the given shapes."""
    return tuple(
        sum((h[b].scale(c) for c, h in zip(coeffs, homs) if c != 0), Mat(*shape))
        for b, shape in enumerate(shapes)
    )


def block_diag(*blocks: Mat) -> Mat:
    """Block-diagonal matrix of the given blocks, in order; blocks of any
    shape, zero-sized ones included."""
    if len(blocks) == 1:
        return blocks[0]
    cols = sum(b.cols for b in blocks)
    rows = []
    c0 = 0
    for b in blocks:
        re, im, sc = b._int()
        left, right = [0] * c0, [0] * (cols - c0 - b.cols)
        for i, (row, s) in enumerate(zip(re, sc)):
            rows.append((left + row + right, None if im is None else left + im[i] + right, s))
        c0 += b.cols
    return _mat(sum(b.rows for b in blocks), cols, *_unzip(rows))


class BlockSystem:
    """The Hom space between two representations M, N of one quiver.

    Vertex v carries spaces of dimensions dims_m[v] and dims_n[v]; an arrow
    (s, t, f, g) carries f : M_s -> M_t and g : N_s -> N_t.  The unknowns are
    the blocks phi_v : M_v -> N_v, each flattened column-major, so phi_v[k, l]
    is unknown number offset_v + l*dims_n[v] + k.  Every arrow gives the rows
    of phi_t f - g phi_s = 0, entry (i, j) column-major, each stored as a
    sparse row (see `sparse_kernel`) with at most dims_m[t] + dims_n[s]
    entries; zero rows are not stored, nor a loop's row that an earlier
    loop gave, and `gaussian` says whether entries are (re, im) pairs.
    Contracted windows repeat loop rows: each weight's H_i loop there is
    the root's plus an integer on both sides, which gives the root's
    equations again, and dropping the repeats makes End of the scrambled
    147-dimensional window (21 such loops at one root) 0.03 s instead of
    0.17 s.
    solve() returns a basis of the solutions as tuples of blocks, one per
    vertex: the `kernel_basis` of the same equations, cut into blocks.
    """

    def __init__(self, dims_m: Sequence[int], dims_n: Sequence[int], arrows):
        if len(dims_m) != len(dims_n):
            raise ValueError("dims_m and dims_n name different vertex counts")
        self.dims_m = tuple(dims_m)
        self.dims_n = tuple(dims_n)
        self.offsets = []
        self.total = 0
        for m, n in zip(self.dims_m, self.dims_n):
            self.offsets.append(self.total)
            self.total += m * n
        arrows = list(arrows)
        self.gaussian = any(f._int()[1] is not None or g._int()[1] is not None for _, _, f, g in arrows)
        # the system's nonzero rows, sparse (see `sparse_kernel`) and
        # primitive, and the entries of those that loops gave
        self.rows: List[dict] = []
        self._looped: set = set()
        for s, t, f, g in arrows:
            self._add_arrow(s, t, f, g)

    def _add_arrow(self, s: int, t: int, f: Mat, g: Mat):
        ms, mt, ns, nt = self.dims_m[s], self.dims_m[t], self.dims_n[s], self.dims_n[t]
        if f.shape != (mt, ms) or g.shape != (nt, ns):
            raise ValueError(
                f"arrow {s}->{t}: maps of shapes {f.shape} and {g.shape}, "
                f"expected {(mt, ms)} and {(nt, ns)}"
            )
        off_s, off_t = self.offsets[s], self.offsets[t]
        fre, fim, fsc = f._int()
        gre, gim, gsc = g._int()
        gaussian = self.gaussian
        # nonzero (unknown, entry) of f[l, j] * sf per column j of f, sf the
        # lcm of f's scales, on phi_t[i, l] for i = 0; and of -g[i, k] * gsc[i]
        # per row i of g, on phi_s[k, j] for j = 0.  An entry is an int over Q
        # and an (re, im) pair over Q(i).
        sf = lcm(*fsc)
        fcols = [[] for _ in range(ms)]
        for l, (row, x) in enumerate(zip(fre, fsc)):
            u = sf // x
            irow = None if fim is None else fim[l]
            for j, a in enumerate(row):
                b = 0 if irow is None else irow[j]
                if a or b:
                    fcols[j].append((off_t + l * nt, (a * u, b * u) if gaussian else a * u))
        grows = []
        for i, row in enumerate(gre):
            irow = None if gim is None else gim[i]
            grows.append(
                [
                    (off_s + k, (-a, -(0 if irow is None else irow[k])) if gaussian else -a)
                    for k, a in enumerate(row)
                    if a or irow is not None and irow[k]
                ]
            )
        primitive = _primitive_qi if gaussian else _primitive_q
        for j, fj in enumerate(fcols):
            for i, gi in enumerate(grows):
                if not (fj or gi):
                    continue
                # phi_t[i, l] * f[l, j] - g[i, k] * phi_s[k, j] over lcm(sf, gsc[i]);
                # on a loop both can hit one unknown
                den = lcm(sf, gsc[i])
                uf, ug = den // sf, den // gsc[i]
                if gaussian:
                    row = {c + i: (a * uf, b * uf) for c, (a, b) in fj}
                    for c, (a, b) in gi:
                        c += j * ns
                        x, y = row.get(c, (0, 0))
                        x, y = x + a * ug, y + b * ug
                        if x or y:
                            row[c] = (x, y)
                        else:
                            del row[c]
                else:
                    row = {c + i: a * uf for c, a in fj}
                    for c, a in gi:
                        c += j * ns
                        x = row.get(c, 0) + a * ug
                        if x:
                            row[c] = x
                        else:
                            del row[c]
                if not row:
                    continue
                row = primitive(row)
                if s == t:
                    key = frozenset(row.items())
                    if key in self._looped:
                        continue
                    self._looped.add(key)
                self.rows.append(row)

    def solve(self) -> List[Tuple[Mat, ...]]:
        """Basis of the Hom space, each element a tuple of blocks phi_v,
        built in integer form from the sparse kernel vectors; the zero rows
        of a block share one list."""
        shapes = list(zip(self.dims_m, self.dims_n))
        # unknown -> (vertex, row i, column l) of its block
        where = [(v, c % n, c // n) for v, (m, n) in enumerate(shapes) for c in range(m * n)]
        zeros = [[0] * m for m, _ in shapes]
        out = []
        for vec in sparse_kernel(list(self.rows), self.total, self.gaussian):
            # (l, re, im, den) of the nonzero entries of each block row
            by_row = {}
            for c, entry in vec.items():
                v, i, l = where[c]
                by_row.setdefault((v, i), []).append((l, *entry))
            re = [[z] * n for z, (_, n) in zip(zeros, shapes)]
            im = [None] * len(shapes)
            sc = [[1] * n for _, n in shapes]
            for (v, i), entries in by_row.items():
                # entries in lowest terms: the lcm of their dens is the row's scale
                s = sc[v][i] = lcm(*(d for _, _, _, d in entries))
                row = re[v][i] = [0] * self.dims_m[v]
                for l, a, b, d in entries:
                    row[l] = a * (s // d)
                    if b:
                        if im[v] is None:
                            im[v] = [zeros[v]] * self.dims_n[v]
                        if im[v][i] is zeros[v]:
                            im[v][i] = [0] * self.dims_m[v]
                        im[v][i][l] = b * (s // d)
            out.append(tuple(_mat(n, m, re[v], im[v], sc[v]) for v, (m, n) in enumerate(shapes)))
        return out


class QuiverRep:
    """A quiver representation: a space of dimension dims[v] at every vertex
    v and a dims[t] x dims[s] matrix f for every arrow (s, t, f)."""

    def __init__(self, dims: Sequence[int], arrows: Sequence[Tuple[int, int, Mat]]):
        self.dims = tuple(dims)
        self.arrows = list(arrows)

    @cached_property
    def scalars(self) -> Dict[int, Optional[Scalar]]:
        """scalars[j] = c when loop j, at a vertex of positive dimension, is
        c*I, and None otherwise; each loop is read once, when first asked."""
        return {j: f.scalar_value() for j, (s, t, f) in enumerate(self.arrows) if s == t and self.dims[s]}


def hom_space(M: QuiverRep, N: QuiverRep) -> List[Tuple[Mat, ...]]:
    """Basis of Hom(M, N) for two representations whose arrows pair up in
    order; the one place that builds a `BlockSystem`.  Windows reach it
    contracted (`ForestTransport.contracted`)."""
    arrows = [(s, t, f, g) for (s, t, f), (_, _, g) in zip(M.arrows, N.arrows)]
    return BlockSystem(M.dims, N.dims, arrows).solve()


def restrict(R: QuiverRep, bases: Sequence[Mat]) -> Optional[QuiverRep]:
    """R on the spans of the columns of bases[v], in those coordinates, or
    None when an arrow maps a basis outside the one at its target.  One solve
    per target vertex, over the images of all arrows into it side by side;
    a loop c*I keeps every span and restricts to c*I with no solve."""
    into, maps = {}, {}
    for k, (s, t, f) in enumerate(R.arrows):
        d = bases[s].cols
        if d:
            c = f.scalar_value() if s == t else None
            if c is None:
                into.setdefault(t, []).append(k)
            else:
                maps[k] = Mat.scalar(d, c)
    for t, ks in into.items():
        imgs = [R.arrows[k][2] @ bases[R.arrows[k][0]] for k in ks]
        X = solve_linear(bases[t], imgs[0].hstack(*imgs[1:]))
        if X is None:
            return None
        c = 0
        for k, img in zip(ks, imgs):
            maps[k] = X.select_cols(range(c, c + img.cols))
            c += img.cols
    # an arrow out of a zero space maps nothing
    arrows = [
        (s, t, maps[k] if k in maps else _zeros(bases[t].cols, 0)) for k, (s, t, _) in enumerate(R.arrows)
    ]
    return QuiverRep([B.cols for B in bases], arrows)


def opposite_forest(R: QuiverRep, *others: QuiverRep) -> Tuple[List[int], List[Optional[Tuple[int, int, int]]]]:
    """A BFS spanning forest of R over the opposite pairs it shares with the
    other representations of its quiver (arrows paired in order), as
    (order, up).

    An opposite pair is an arrow f : s -> t and the first arrow g : t -> s,
    s != t, with dims[s] = dims[t] and g f = 1 in every representation (so
    f g = 1 too: f and g are mutually inverse), and dims[s] > 0 in one of
    them.  Roots are taken in vertex order, and each tree grows breadth
    first, so its paths stay short.  `order` lists every vertex, each after
    its parent; up[v] is (u, k, l) for the parent u, the arrow k : u -> v
    and the arrow l : v -> u, and None at a root.  The products g f are
    formed only when the search first reaches t through the pair, so each
    pair is checked at most once.

    Off the degenerate layer, d_i and int_i of a module window are such a
    pair, so a window's trees cover every run of equal dimensions (see
    `ForestTransport` and `modules.block_decompose`)."""
    reps = (R, *others)
    n = len(R.dims)
    dims = list(zip(*(S.dims for S in reps)))
    first, out = {}, [[] for _ in range(n)]
    for k, (s, t, _) in enumerate(R.arrows):
        if s != t and (s, t) not in first:
            first[s, t] = k
            out[s].append(t)
    up: List[Optional[Tuple[int, int, int]]] = [None] * n
    seen = [False] * n
    order = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        for u in queue:
            d = dims[u]
            for t in out[u] if any(d) else ():
                l = first.get((t, u))
                if seen[t] or l is None or dims[t] != d:
                    continue
                k = first[u, t]
                if all((S.arrows[l][2] @ S.arrows[k][2]).is_identity() for S in reps):
                    seen[t] = True
                    up[t] = (u, k, l)
                    queue.append(t)
        order += queue
    return order, up


class ForestTransport:
    """R contracted along a spanning forest of opposite pairs, and maps and
    representations of the contraction carried back.

    `forest` is `opposite_forest(R)`, or that forest with some trees cut
    into single vertices.  Down each tree U_v = f U_u is carried from the
    root, U = I there, one product per tree arrow, so every tree arrow is
    the identity in the carried coordinates.  `contracted()` gives R on the
    roots, `expand_map` takes maps of the contraction back to every vertex,
    `expand_rep` a representation of the contracted quiver (a summand of
    the contraction, say) back to R's quiver, and `carries` tests whether
    bases given at every vertex are the carried root bases.
    `modules.block_decompose` gives what a window's contraction costs.
    """

    def __init__(self, R: QuiverRep, forest: Tuple[Sequence[int], Sequence[Optional[Tuple[int, int, int]]]]):
        order, up = forest
        self.rep, self.order, self.up = R, list(order), up
        self.root = list(range(len(R.dims)))
        for v in self.order:
            if up[v] is not None:
                self.root[v] = self.root[up[v][0]]
        self.roots = [v for v in self.order if up[v] is None]
        # each root's vertex in the contracted representation
        self._index = {r: i for i, r in enumerate(self.roots)}
        # U_v and U_v^-1 as made, and the holonomies once made
        self._U: Dict[int, Mat] = {}
        self._Uinv: Dict[int, Mat] = {}
        self._conjugated: Optional[Tuple[list, Dict[int, Scalar]]] = None
        # filled by contracted: the arrows it keeps, in order, and the c of each it drops
        self._kept: List[int] = []
        self._dropped: Dict[int, Scalar] = {}

    def _holonomies(self) -> Tuple[List[Tuple[int, Mat]], Dict[int, Scalar]]:
        """(free, fixed), made once, over the arrows f : s -> t off the
        trees: fixed[j] = c where F = U_t^-1 f U_s is zero or c*I on a loop of
        the contraction, and free lists the other (j, F) in order.  U_t^-1
        is made only where needed; an arrow inside a tree has F = I when its
        one product f U_s is U_t."""
        if self._conjugated is not None:
            return self._conjugated
        R, root, up, U = self.rep, self.root, self.up, self._U
        tree = set()
        for v in self.order:
            if up[v] is not None:
                u, k, l = up[v]
                f = R.arrows[k][2]
                U[v] = f @ U[u] if u in U else f
                tree.update((k, l))
        scalars, dims = R.scalars, R.dims
        free, fixed = [], {}
        for j, (s, t, f) in enumerate(R.arrows):
            if j in tree:
                continue
            c = scalars.get(j)
            if c is None:
                if not (dims[s] and dims[t]) or f.is_zero():
                    c = ZERO
                elif s in U or t in U:
                    X = f @ U[s] if s in U else f
                    if s != t and root[s] == root[t] and (X == U[t] if t in U else X.is_identity()):
                        c = ONE
                    else:
                        f = self._inverse(t) @ X if t in U else X
            if c is None:
                free.append((j, f))
            else:
                fixed[j] = c
        self._conjugated = free, fixed
        return self._conjugated

    def contracted(self, *others: "ForestTransport") -> QuiverRep:
        """R contracted along the forest: one vertex per root, in `roots`
        order, and each arrow off the trees, in order, as its F between the
        roots of its ends.  An arrow whose F is zero, or c*I on a loop, is
        dropped when its F is the same in `others`, the transports of other
        representations along the same forest: M and N, each contracted
        with the other, keep the same arrows, which pair in order in
        `hom_space`.  A loop c*I of M against c'*I or a non-scalar G of N
        stays, as it asks X c = c' X or X c = G X.

        Hom(M, N) is then Hom of the contractions: the tree arrows fix
        phi_v = U^N_v X_r (U^M_v)^-1 from the block X_r at v's root r (see
        `expand_map`), and the other arrows ask X_r(t) F^M = F^N X_r(s),
        which holds for every X when F^M and F^N are both zero or both c*I.
        So End(M) and End(C) are isomorphic algebras, and M and N are
        isomorphic exactly when their contractions are."""
        free, fixed = self._holonomies()
        theirs = [T._holonomies()[1] for T in others]
        self._dropped = dict(fixed)
        if theirs:
            self._dropped = {j: c for j, c in fixed.items() if all(h.get(j) == c for h in theirs)}
            # where another representation differs, the arrow stays as its zero or c*I
            kept = [(j, self._fixed(j, c, self.rep.dims)) for j, c in fixed.items() if j not in self._dropped]
            free = sorted(free + kept, key=lambda jF: jF[0])
        self._kept = [j for j, _ in free]
        # each vertex's vertex in the contraction
        at, arrows = [self._index[r] for r in self.root], self.rep.arrows
        contracted = [(at[arrows[j][0]], at[arrows[j][1]], F) for j, F in free]
        return QuiverRep([self.rep.dims[r] for r in self.roots], contracted)

    def expand_map(self, blocks: Sequence[Mat], source: Optional["ForestTransport"] = None) -> List[Mat]:
        """Per vertex v, U_v B_r (U^source_v)^-1 for the block B_r of v's
        root r, blocks in `roots` order, after `contracted`: a map of the
        contracted representations expanded to every vertex.  With no
        source it is U_v B_r, the carried basis or embedding of B_r; with
        the transport of the source along the same forest it is the
        hom phi_v of a contracted hom X."""
        index, U = self._index, self._U
        out = []
        for v, r in enumerate(self.root):
            B = blocks[index[r]]
            if v in U:
                B = U[v] @ B
            if source is not None and v in source._U:
                B = B @ source._inverse(v)
            out.append(B)
        return out

    def carries(self, bases: Sequence[Mat]) -> bool:
        """Whether bases[v] holds independent columns spanning U_v B_r at
        every carried vertex v, B_r = bases[r] at v's root r, after
        `contracted`: whether the echelon form of [bases[v] | U_v B_r] has
        its pivots in exactly the columns of bases[v].  When B_r is
        independent that is span(U_v B_r) = span(bases[v])."""
        root = self.root
        for v, U in self._U.items():
            B, c = bases[v], bases[v].cols
            if bases[root[v]].cols != c:
                return False
            if not c:
                continue
            re, im, _ = B.hstack(U @ bases[root[v]])._int()
            pivots = _sparse_echelon(_sparse_rows(re, im), 2 * c, im is not None)
            if [p for p, _ in pivots] != list(range(c)):
                return False
        return True

    def expand_rep(self, piece: QuiverRep) -> QuiverRep:
        """A representation of the last `contracted()` quiver (a summand of
        the contraction, say) as one of R's quiver: each vertex gets its
        root's space, the tree arrows the identity, the dropped arrows their
        zero or c*I, and every other arrow its map in the piece.  With the
        embeddings `expand_map` gives, a summand of the contraction becomes
        a summand of R."""
        dims = [piece.dims[self._index[r]] for r in self.root]
        maps = dict(zip(self._kept, (f for _, _, f in piece.arrows)))
        arrows = []
        for j, (s, t, _) in enumerate(self.rep.arrows):
            f = maps.get(j)
            arrows.append((s, t, self._fixed(j, self._dropped.get(j, ONE), dims) if f is None else f))
        return QuiverRep(dims, arrows)

    def _fixed(self, j: int, c: Scalar, dims: Sequence[int]) -> Mat:
        """Arrow j as zero, when c is, or c*I, between spaces of the given
        dimensions at its ends."""
        s, t, _ = self.rep.arrows[j]
        return _zeros(dims[t], dims[s]) if c.is_zero() else Mat.scalar(dims[s], c)

    def _inverse(self, v: int) -> Mat:
        """U_v^-1 = U_u^-1 g for the tree pair g : v -> u, made up the tree
        from the nearest vertex that has it and kept."""
        Uinv, up, arrows = self._Uinv, self.up, self.rep.arrows
        chain = []
        while v not in Uinv and v in self._U:
            chain.append(v)
            v = up[v][0]
        W = Uinv.get(v)
        for w in reversed(chain):
            g = arrows[up[w][2]][2]
            W = Uinv[w] = g if W is None else W @ g
        return W


def split(R: QuiverRep, parts: Sequence[Sequence[Mat]]) -> Optional[List[QuiverRep]]:
    """R as the direct sum of its restrictions to the parts, one QuiverRep
    per part, or None when some part is not stable under the arrows.

    parts[k][v] is a column basis of part k at vertex v.  Side by side in
    part order they form T_v, which must be invertible (DomainError
    otherwise) and is inverted once, unless it is the identity.  Each arrow
    f : s -> t is conjugated once, X = T_t^-1 f T_s, and its integer rows
    are read once: X must be block-diagonal, with no block between two
    parts, and its diagonal blocks, sliced in the same read, are the part
    maps, equal to what `restrict` solves for part by part.  Two kinds of
    arrow need no check: a zero map, whose blocks are zero, and an arrow
    whose two ends hold one part each, the same one, whose X is that
    part's block whole."""
    T, Tinv, bounds, sole = [], [], [], []
    for v, d in enumerate(R.dims):
        cols = [p[v] for p in parts]
        widths = [B.cols for B in cols]
        held = [k for k, w in enumerate(widths) if w]
        Tv = cols[held[0]] if len(held) == 1 else _zeros(d, 0).hstack(*(cols[k] for k in held))
        if Tv.cols != d:
            raise DomainError(f"the parts hold {Tv.cols} columns at vertex {v} of dimension {d}")
        identity = Tv.is_identity()
        inv = None if identity else invert(Tv)
        if inv is None and not identity:
            raise DomainError(f"the parts do not form a basis at vertex {v}")
        T.append(None if identity else Tv)
        Tinv.append(inv)
        bounds.append(tuple(accumulate(widths, initial=0)))
        sole.append(held[0] if len(held) == 1 else None)
    out = [[] for _ in parts]
    # the pieces other than each part's, which an arrow held by that part alone leaves empty
    rest = [out[:k] + out[k + 1 :] for k in range(len(out))]
    for arrow in R.arrows:
        s, t, f = arrow
        k = sole[s]
        if k is not None and k == sole[t]:
            if T[s] is not None or Tinv[t] is not None:
                X = f if T[s] is None else f @ T[s]
                arrow = (s, t, X if Tinv[t] is None else Tinv[t] @ X)
            out[k].append(arrow)
            arrow = (s, t, _zeros(0, 0))
            for arrows in rest[k]:
                arrows.append(arrow)
            continue
        bs, bt = bounds[s], bounds[t]
        cuts = list(zip(bs, bs[1:], bt, bt[1:]))
        if f.is_zero():
            blocks = [_zeros(y - x, b - a) for a, b, x, y in cuts]
        else:
            X = f if T[s] is None else f @ T[s]
            re, im, sc = (X if Tinv[t] is None else Tinv[t] @ X)._int()
            blocks, n = [], X.cols
            for a, b, x, y in cuts:
                # rows x..y hold nothing outside columns a..b exactly when their
                # zeros there number (y - x)(n - b + a); a slice then keeps its
                # row's scale, in lowest terms as the row is
                segs = [re[r][a:b] for r in range(x, y)]
                isegs = None if im is None else [im[r][a:b] for r in range(x, y)]
                outside = (y - x) * (n - b + a)
                for full, cut in ((re, segs), (im, isegs)):
                    if cut and sum(row.count(0) for row in full[x:y]) - sum(c.count(0) for c in cut) != outside:
                        return None
                blocks.append(_mat(y - x, b - a, segs, isegs, sc[x:y]) if segs and a < b else _zeros(y - x, b - a))
        for arrows, block in zip(out, blocks):
            arrows.append((s, t, block))
    return [QuiverRep([b[k + 1] - b[k] for b in bounds], arrows) for k, arrows in enumerate(out)]
