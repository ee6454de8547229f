"""Exact dense linear algebra over Q / Q(i).

Matrices carry explicit (rows, cols) so zero-dimensional spaces (which occur
as weight spaces outside a module's support) are handled uniformly.  This is
the one place that assembles matrices from columns (`Mat.from_cols`) or
blocks (`block_diag`) and solves for them: `solve_linear` takes any number
of right-hand sides.  It is also the one place that writes and searches
Hom spaces.  Pencils, modules on one space and module windows are all
`QuiverRep`s; `hom_space` turns the intertwining equations phi_t f = g phi_s
of two of them into one `BlockSystem`, `isomorphism` looks for an invertible
element with `invertible_combination`, and `restrict` gives the
sub-representation on per-vertex bases.

Elimination first scales each row by the lcm of its denominators, then runs
on plain ints with one of two kernels.  Rational matrices go to a
content-reduced forward pass over Z (each new row divided by the gcd of its
entries, pivot rows chosen sparsest-first) with integer back-substitution.
Matrices with a non-real entry go to fraction-free Gauss-Jordan over Z[i]
(`_ffgj`), whose rows are pairs of int lists and whose only division is an
exact one by the previous pivot; `det` runs its forward half on every
matrix.  Both build Scalars once, at the end; the reduced echelon form is
unique, so the pivot rule never shows in results.

Products run on denominator-cleared ints too: `Mat.__matmul__` scales A's
rows and B's columns the same way, takes integer dot products (real and
imaginary parts as separate int lists over Q(i)) and builds one Scalar per
nonzero entry of the result.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, List, Optional, Sequence, Tuple

from .scalars import ONE, ZERO, Scalar


class Mat:
    """Immutable-by-convention dense matrix of Scalars."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence] | None = None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[ZERO] * cols for _ in range(rows)]
        else:
            if len(data) != rows:
                raise ValueError("row count mismatch")
            self.data = [[Scalar.of(x) for x in row] for row in data]
            for row in self.data:
                if len(row) != cols:
                    raise ValueError("column count mismatch")

    @staticmethod
    def identity(n: int) -> "Mat":
        m = Mat(n, n)
        for i in range(n):
            m.data[i][i] = ONE
        return m

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
        return Mat(rows, len(vectors), [[v.data[r][0] for v in vectors] for r in range(rows)])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i: int) -> List[Scalar]:
        return list(self.data[i])

    def col(self, j: int) -> List[Scalar]:
        return [self.data[i][j] for i in range(self.rows)]

    def __matmul__(self, other: "Mat") -> "Mat":
        """Entry (i, j) is the integer dot product of A's scaled row i and
        B's scaled column j over the product of their scales."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        out = Mat(self.rows, other.cols)
        if not (self.rows and self.cols and other.cols):
            return out
        are, aim, ascale = _int_rows(self.data)
        bre, bim, bscale = _int_rows(list(zip(*other.data)))
        for i, (ar, sa) in enumerate(zip(are, ascale)):
            ai = aim[i] if aim else None
            nz = [k for k, a in enumerate(ar) if a or (ai and ai[k])]
            if not nz:
                continue
            orow = out.data[i]
            for j, (br, sb) in enumerate(zip(bre, bscale)):
                re = sum([ar[k] * br[k] for k in nz])
                im = sum([ai[k] * br[k] for k in nz]) if ai else 0
                if bim:
                    bi = bim[j]
                    im += sum([ar[k] * bi[k] for k in nz])
                    if ai:
                        re -= sum([ai[k] * bi[k] for k in nz])
                if re or im:
                    den = sa * sb
                    orow[j] = Scalar(Fraction(re, den), Fraction(im, den))
        return out

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat(
            self.rows,
            self.cols,
            [
                [self.data[i][j] + other.data[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ],
        )

    def __sub__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat(
            self.rows,
            self.cols,
            [
                [self.data[i][j] - other.data[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ],
        )

    def __neg__(self) -> "Mat":
        return self.scale(Scalar(-1))

    def scale(self, c) -> "Mat":
        c = Scalar.of(c)
        return Mat(
            self.rows,
            self.cols,
            [[c * x for x in row] for row in self.data],
        )

    def transpose(self) -> "Mat":
        return Mat(
            self.cols,
            self.rows,
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.data for x in row)

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            self.data[i][j] == (ONE if i == j else ZERO)
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (
            self.shape == other.shape
            and all(
                self.data[i][j] == other.data[i][j]
                for i in range(self.rows)
                for j in range(self.cols)
            )
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"Mat({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Mat[{body}]"

    def hstack(self, *others: "Mat") -> "Mat":
        if any(o.rows != self.rows for o in others):
            raise ValueError("hstack row mismatch")
        return Mat(
            self.rows,
            self.cols + sum(o.cols for o in others),
            [sum((o.data[i] for o in others), self.data[i]) for i in range(self.rows)],
        )

    def vstack(self, other: "Mat") -> "Mat":
        if self.cols != other.cols:
            raise ValueError("vstack column mismatch")
        return Mat(self.rows + other.rows, self.cols, self.data + other.data)

    def _same_shape(self, other: "Mat"):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")


def _int_rows(data: Sequence[Sequence[Scalar]]):
    """Each row times the lcm of its denominators, as plain ints.

    Returns (re_rows, im_rows, scales); im_rows is None when every entry is
    rational.  Row scales change neither the row space nor the pivots.
    """
    gaussian = any(x.im for row in data for x in row)
    re_rows, scales = [], []
    im_rows = [] if gaussian else None
    for row in data:
        if gaussian:
            m = lcm(*(x.re.denominator for x in row), *(x.im.denominator for x in row))
            im_rows.append([x.im.numerator * (m // x.im.denominator) for x in row])
        else:
            m = lcm(*(x.re.denominator for x in row))
        re_rows.append([x.re.numerator * (m // x.re.denominator) for x in row])
        scales.append(m)
    return re_rows, im_rows, scales


def _primitive(row: List[int]) -> List[int]:
    """The row divided by the gcd of its entries."""
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _echelon_int(rows: List[List[int]], ncols: int):
    """Integer forward elimination with content reduction.

    Row scales are irrelevant to the row space, so each eliminated row is
    divided by the gcd of its entries; that gcd always contains the usual
    fraction-free divisor, and untouched rows keep their sparsity.  Pivot
    rows are chosen sparsest-first, which does not change the (unique)
    reduced echelon form computed from the output.
    """
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pr = None
        best = None
        for i in range(r, nrows):
            if rows[i][c]:
                nz = sum(1 for v in rows[i] if v)
                if best is None or nz < best:
                    best, pr = nz, i
                    if nz == 1:
                        break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        piv = prow[c]
        for i in range(r + 1, nrows):
            head = rows[i][c]
            if not head:
                continue
            row = rows[i]
            rows[i] = _primitive([piv * row[j] - head * prow[j] for j in range(ncols)])
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _rref_int(rows: List[List[int]], ncols: int):
    """Reduced echelon form over the integers (rows scaled, pivots last)."""
    rows, pivots = _echelon_int(rows, ncols)
    for r, c in reversed(pivots):
        prow = rows[r]
        piv = prow[c]
        for i in range(r):
            f = rows[i][c]
            if not f:
                continue
            row = rows[i]
            rows[i] = _primitive([piv * row[j] - f * prow[j] for j in range(ncols)])
    # rows past the last pivot are zero
    out = [[ZERO] * ncols for _ in range(len(rows))]
    for r, c in pivots:
        piv = rows[r][c]
        out[r] = [Scalar(Fraction(v, piv)) for v in rows[r]]
    return out, pivots


def _ffgj(re: List[List[int]], im: List[List[int]], ncols: int, full: bool = True):
    """Fraction-free Gauss-Jordan elimination over Z[i], in place.

    Row k holds the Gaussian integers re[k][j] + im[k][j]*i.  The pivot is
    the first nonzero entry of the leftmost column left to reduce.  Each
    step replaces every other row by (p*row - h*pivot_row) / d, where p is
    the pivot, h the row's entry in the pivot column and d the previous
    pivot; the division is exact (Bareiss; Nakos, Turner & Williams 1997).
    Afterwards every pivot entry equals the last pivot D, and the reduced
    echelon form is rows / D.  With full=False only the rows below each
    pivot are reduced, which is Bareiss' forward pass: D is then still
    +-det for a nonsingular square input.

    Returns (D as an (re, im) pair, pivot columns, number of row swaps).
    """
    m = len(re)
    pivots = []
    swaps = 0
    dr, di = 1, 0
    i = 0
    for j in range(ncols):
        if i == m:
            break
        k = i
        while k < m and not (re[k][j] or im[k][j]):
            k += 1
        if k == m:
            continue
        if k != i:
            re[i], re[k] = re[k], re[i]
            im[i], im[k] = im[k], im[i]
            swaps += 1
        yr, yi = re[i], im[i]
        pr, pi = yr[j], yi[j]
        n = dr * dr + di * di
        for k in range(m) if full else range(i + 1, m):
            if k == i:
                continue
            xr, xi = re[k], im[k]
            hr, hi = xr[j], xi[j]
            if not (hr or hi) and pr == dr and pi == di:
                continue
            if pi or hi:
                ar = [pr * a - pi * b - hr * c + hi * e for a, b, c, e in zip(xr, xi, yr, yi)]
                ai = [pr * b + pi * a - hr * e - hi * c for a, b, c, e in zip(xr, xi, yr, yi)]
            else:
                ar = [pr * a - hr * c for a, c in zip(xr, yr)]
                ai = [pr * b - hr * e for b, e in zip(xi, yi)]
            if di:
                re[k] = [(a * dr + b * di) // n for a, b in zip(ar, ai)]
                im[k] = [(b * dr - a * di) // n for a, b in zip(ar, ai)]
            elif dr != 1:
                re[k] = [a // dr for a in ar]
                im[k] = [b // dr for b in ai]
            else:
                re[k], im[k] = ar, ai
        pivots.append(j)
        i += 1
        dr, di = pr, pi
    return (dr, di), pivots, swaps


def rref(matrix: Mat):
    """Reduced row echelon form; returns (Mat, pivot_columns)."""
    re, im, _ = _int_rows(matrix.data)
    if im is None:
        out, pivots = _rref_int(re, matrix.cols)
        return Mat(matrix.rows, matrix.cols, out), [c for _, c in pivots]
    (dr, di), pivots, _ = _ffgj(re, im, matrix.cols)
    n = dr * dr + di * di
    out = [[ZERO] * matrix.cols for _ in range(matrix.rows)]
    for r, c in enumerate(pivots):
        row = out[r]
        for j, a, b in zip(range(matrix.cols), re[r], im[r]):
            if a or b:
                row[j] = Scalar(Fraction(a * dr + b * di, n), Fraction(b * dr - a * di, n))
        row[c] = ONE
    return Mat(matrix.rows, matrix.cols, out), pivots


def rank(matrix: Mat) -> int:
    re, im, _ = _int_rows(matrix.data)
    if im is None:
        return len(_echelon_int(re, matrix.cols)[1])
    return len(_ffgj(re, im, matrix.cols, full=False)[1])


def _kernel_from_rref(R: Mat, piv_cols: List[int], ncols: int) -> List[Mat]:
    """Kernel basis read off the first ncols columns of a reduced echelon form."""
    piv_set = set(piv_cols)
    basis = []
    for fc in range(ncols):
        if fc in piv_set:
            continue
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, c in enumerate(piv_cols):
            v[c] = -R.data[r][fc]
        basis.append(Mat.col_vector(_normalize_content(v)))
    return basis


def kernel_basis(matrix: Mat) -> List[Mat]:
    """Basis of {x : A x = 0} as column vectors, deterministic order."""
    R, piv_cols = rref(matrix)
    return _kernel_from_rref(R, piv_cols, matrix.cols)


def _normalize_content(v: List[Scalar]) -> List[Scalar]:
    """Scale a rational vector to coprime integers; vectors with complex
    entries are left as they are."""
    if any(x.im != 0 for x in v):
        return v
    den = lcm(*(x.re.denominator for x in v))
    ints = [x.re.numerator * (den // x.re.denominator) for x in v]
    g = gcd(*ints)
    if g > 1:
        ints = [u // g for u in ints]
    return [Scalar(u) for u in ints]


class LinearSolution:
    """Solution set of A X = B: a particular X (A.cols x B.cols, zero on the
    free variables) plus a basis of the kernel of A as column vectors."""

    def __init__(self, particular: Mat, kernel: List[Mat]):
        self.particular = particular
        self.kernel = kernel

    @property
    def unique(self) -> bool:
        return not self.kernel


def solve_linear(A: Mat, B: Mat) -> Optional[LinearSolution]:
    """Solve A X = B exactly, for B with A.rows rows and any number of
    columns; None when some column of B lies outside the column space of A.

    One rref of [A | B].  The reduced form is unique, so each column of the
    particular solution is the one a single-column solve gives.  Zero-column
    A or B is allowed.
    """
    if B.rows != A.rows:
        raise ValueError(f"dimension mismatch: A is {A.shape}, B is {B.shape}")
    n = A.cols
    R, piv_cols = rref(A.hstack(B))
    if piv_cols and piv_cols[-1] >= n:
        return None
    X = Mat(n, B.cols)
    for r, c in enumerate(piv_cols):
        X.data[c] = R.data[r][n:]
    # consistent, so the A-columns of R are rref(A)
    return LinearSolution(X, _kernel_from_rref(R, piv_cols, n))


def column_space_basis(columns: Iterable[Mat], dim: int) -> List[Mat]:
    """Deterministic basis of the span of the given column vectors."""
    cols = list(columns)
    _, piv = rref(Mat.from_cols(cols, dim))
    return [cols[j] for j in piv]


def in_span(vec: Mat, basis: List[Mat]) -> bool:
    return solve_linear(Mat.from_cols(basis, vec.rows), vec) is not None


def invert(matrix: Mat) -> Optional[Mat]:
    """Exact inverse, or None if singular."""
    if matrix.rows != matrix.cols:
        return None
    n = matrix.rows
    R, piv = rref(matrix.hstack(Mat.identity(n)))
    if piv[:n] != list(range(n)):
        return None
    return Mat(n, n, [row[n:] for row in R.data])


def invertible_combination(
    homs: Sequence[Sequence[Mat]], sizes: Sequence[int]
) -> Optional[Tuple[Mat, ...]]:
    """The blocks of an invertible combination of the homs, or None when
    none is invertible.

    Each hom is a tuple of square blocks of the given sizes; a combination
    is invertible when every block is, and 0x0 blocks are.  The first hom
    with all blocks of full rank wins.  Otherwise the generic determinants
    of `symbolic.invertible_point` prove None or give the coefficients.
    """
    for h in homs:
        if all(rank(b) == b.rows for b in h):
            return tuple(h)
    live = [b for b, n in enumerate(sizes) if n]
    if not live:
        return tuple(Mat(0, 0) for _ in sizes)
    if not homs:
        return None
    from .symbolic import invertible_point

    coeffs = invertible_point([[h[b] for h in homs] for b in live])
    if coeffs is None:
        return None
    out = _combine(coeffs, homs, [(n, n) for n in sizes])
    assert all(rank(m) == m.rows for m in out)
    return out


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
    sol = solve_linear(A, Mat(len(entries), 1, [[ONE if r == c else ZERO] for _, r, c in entries]))
    if sol is None:
        return None
    return _combine(sol.particular.col(0), homs, [(e.cols, e.rows) for e in incl])


def _combine(coeffs: Sequence[Scalar], homs: Sequence[Sequence[Mat]], shapes) -> Tuple[Mat, ...]:
    """The blocks of sum c_k homs[k], one per vertex, of the given shapes."""
    return tuple(
        sum((h[b].scale(c) for c, h in zip(coeffs, homs) if c != 0), Mat(*shape))
        for b, shape in enumerate(shapes)
    )


def block_diag(*blocks: Mat) -> Mat:
    """Block-diagonal matrix of the given blocks, in order; blocks of any
    shape, zero-sized ones included."""
    out = Mat(sum(b.rows for b in blocks), sum(b.cols for b in blocks))
    r0 = c0 = 0
    for b in blocks:
        for i, row in enumerate(b.data):
            out.data[r0 + i][c0 : c0 + b.cols] = row
        r0 += b.rows
        c0 += b.cols
    return out


class BlockSystem:
    """The Hom space between two representations M, N of one quiver.

    Vertex v carries spaces of dimensions dims_m[v] and dims_n[v]; an arrow
    (s, t, f, g) carries f : M_s -> M_t and g : N_s -> N_t.  The unknowns are
    the blocks phi_v : M_v -> N_v, each flattened column-major, so phi_v[k, l]
    is unknown number offset_v + l*dims_n[v] + k.  Every arrow gives the rows
    of phi_t f - g phi_s = 0, entry (i, j) column-major; solve() returns a
    basis of the solutions as tuples of blocks, one per vertex.
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
        self.rows: List[List[Scalar]] = []
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
        # nonzero (l, f[l, j]) per column j of f and (k, g[i, k]) per row i of g
        f_cols = [[(l, f.data[l][j]) for l in range(mt) if not f.data[l][j].is_zero()] for j in range(ms)]
        g_rows = [[(k, -b) for k, b in enumerate(row) if not b.is_zero()] for row in g.data]
        for j in range(ms):
            for i in range(nt):
                # phi_t[i, l] * f[l, j] - g[i, k] * phi_s[k, j]; on a loop both can hit one unknown
                row = [ZERO] * self.total
                for l, a in f_cols[j]:
                    row[off_t + l * nt + i] = a
                for k, b in g_rows[i]:
                    idx = off_s + j * ns + k
                    row[idx] = b if row[idx] is ZERO else row[idx] + b
                self.rows.append(row)

    def solve(self) -> List[Tuple[Mat, ...]]:
        """Basis of the Hom space, each element a tuple of blocks phi_v."""
        out = []
        for k in kernel_basis(Mat(len(self.rows), self.total, self.rows)):
            flat = k.data
            out.append(
                tuple(
                    Mat(n, m, [[flat[off + l * n + r][0] for l in range(m)] for r in range(n)])
                    for off, m, n in zip(self.offsets, self.dims_m, self.dims_n)
                )
            )
        return out


class QuiverRep:
    """A quiver representation: a space of dimension dims[v] at every vertex
    v and a dims[t] x dims[s] matrix f for every arrow (s, t, f)."""

    def __init__(self, dims: Sequence[int], arrows: Sequence[Tuple[int, int, Mat]]):
        self.dims = tuple(dims)
        self.arrows = list(arrows)


def hom_space(M: QuiverRep, N: QuiverRep) -> List[Tuple[Mat, ...]]:
    """Basis of Hom(M, N) for two representations whose arrows pair up in
    order; the one place that builds a `BlockSystem`."""
    arrows = [(s, t, f, g) for (s, t, f), (_, _, g) in zip(M.arrows, N.arrows)]
    return BlockSystem(M.dims, N.dims, arrows).solve()


def isomorphism(M: QuiverRep, N: QuiverRep) -> Optional[Tuple[Mat, ...]]:
    """The blocks of an isomorphism M -> N, or None when there is none."""
    if M.dims != N.dims:
        return None
    return invertible_combination(hom_space(M, N), M.dims)


def restrict(R: QuiverRep, bases: Sequence[Mat]) -> Optional[QuiverRep]:
    """R on the spans of the columns of bases[v], in those coordinates, or
    None when an arrow maps a basis outside the one at its target.  One solve
    per target vertex, over the images of all arrows into it side by side."""
    into = {}
    for k, (s, t, _) in enumerate(R.arrows):
        if bases[s].cols:
            into.setdefault(t, []).append(k)
    maps = [Mat(bases[t].cols, bases[s].cols) for s, t, _ in R.arrows]
    for t, ks in into.items():
        imgs = [R.arrows[k][2] @ bases[R.arrows[k][0]] for k in ks]
        sol = solve_linear(bases[t], imgs[0].hstack(*imgs[1:]))
        if sol is None:
            return None
        X, c = sol.particular, 0
        for k, img in zip(ks, imgs):
            maps[k] = Mat(X.rows, img.cols, [row[c : c + img.cols] for row in X.data])
            c += img.cols
    return QuiverRep([B.cols for B in bases], [(s, t, X) for (s, t, _), X in zip(R.arrows, maps)])


def complete_basis(B: Mat) -> Mat:
    """Standard basis columns extending the independent columns of B to a
    basis: the e_r outside the span of B and of the e's before them, which
    are the pivots of rref([B | I]) past B's columns."""
    n = B.rows
    _, piv = rref(B.hstack(Mat.identity(n)))
    if piv[: B.cols] != list(range(B.cols)):
        raise ValueError("input columns were dependent")
    extra = [c - B.cols for c in piv[B.cols :]]
    return Mat(n, len(extra), [[ONE if r == i else ZERO for r in extra] for i in range(n)])


def det(matrix: Mat) -> Scalar:
    if matrix.rows != matrix.cols:
        raise ValueError("determinant of a non-square matrix")
    n = matrix.rows
    if n == 0:
        return ONE
    re, im, scales = _int_rows(matrix.data)
    if im is None:
        im = [[0] * n for _ in range(n)]
    (dr, di), pivots, swaps = _ffgj(re, im, n, full=False)
    if len(pivots) < n:
        return ZERO
    den = (-1) ** swaps * prod(scales)
    return Scalar(Fraction(dr, den), Fraction(di, den))
