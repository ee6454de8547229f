"""Representation-type verdicts and tame-case classification machinery.

Covers: the two-arrow quiver (pencil) representations with their five series
of indecomposables, string and band modules over K[h1,h2]/(h1h2), the
four-dimensional local algebra K[h1,h2]/(h1^2,h2^2), Jordan data of
one-variable fibers, and a factorizable-quadratic tameness test for local
ideals in two variables.

Decompositions run by exact linear algebra: endomorphism rings are computed
from intertwining equations, the radical from the trace form (valid in
characteristic zero), and splittings from elements whose minimal polynomial
factors into coprime parts.  A pencil is reported outside the field only
with a certificate that End/rad is a field bigger than K.  Isomorphisms come
from `linalg.invertible_combination`; `factor_unipoly` hands polynomials to
the `symbolic` adapter, which loads sympy on first use.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import (
    BlockSystem,
    Mat,
    block_diag,
    column_space_basis,
    invert,
    invertible_combination,
    kernel_basis,
    rank,
    retraction,
    rref,
    solve_linear,
)
from .local_ideals import LocalIdeal
from .modules import DSet, DomainError, Fiber, Orbit
from .poly import MultiPoly, UniPoly, monomials_below
from .scalars import ONE, QQ, QQI, ZERO, Field, Scalar


class FieldError(DomainError):
    """A required eigenvalue or square root lies outside the base field."""


# -- representation type ----------------------------------------------------


@dataclass(frozen=True)
class RepTypeVerdict:
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


def _end_basis_one_space(mats: Sequence[Mat], dim: int) -> List[Mat]:
    """The X with X A = A X for every A: one vertex, one loop per matrix."""
    return [h[0] for h in BlockSystem([dim], [dim], [(0, 0, A, A) for A in mats]).solve()]


def min_poly(M: Mat) -> UniPoly:
    """Minimal polynomial by first linear dependence among powers."""
    d = M.rows
    if d == 0:
        return UniPoly.const(1)
    powers = [Mat.identity(d)]
    while True:
        k = len(powers)
        nxt = powers[-1] @ M
        cols = Mat(
            d * d,
            k,
            [
                [powers[j].data[r // d][r % d] for j in range(k)]
                for r in range(d * d)
            ],
        )
        target = Mat.col_vector([nxt.data[r // d][r % d] for r in range(d * d)])
        sol = solve_linear(cols, target)
        if sol is not None:
            coeffs = {k: ONE}
            for j in range(k):
                coeffs[j] = coeffs.get(j, ZERO) - sol.particular.data[j][0]
            return UniPoly(coeffs)
        powers.append(nxt)


def factor_unipoly(p: UniPoly, field: Field) -> List[Tuple[UniPoly, int]]:
    """Irreducible factorization over the configured field (monic factors)."""
    from .symbolic import factor

    return factor(p, field)


def _eval_poly_at_matrix(p: UniPoly, M: Mat) -> Mat:
    d = M.rows
    out = Mat.zero(d, d)
    power = Mat.identity(d)
    for k in range(0, (p.degree() or 0) + 1):
        c = p.coeffs.get(k)
        if c is not None:
            out = out + power.scale(c)
        power = power @ M
    return out


def _radical_basis(end: List[Mat]) -> List[Mat]:
    """Radical of the enveloping algebra via the trace form (char 0)."""
    k = len(end)
    if k == 0:
        return []
    # trace(E_i E_j) = sum over a, b of E_i[a][b] * E_j[b][a]; symmetric in i, j
    nonzero = [
        [(a, b, x) for a, row in enumerate(e.data) for b, x in enumerate(row) if not x.is_zero()]
        for e in end
    ]
    gram = Mat(k, k)
    for i in range(k):
        for j in range(i, k):
            t = ZERO
            Ej = end[j].data
            for a, b, x in nonzero[i]:
                y = Ej[b][a]
                if not y.is_zero():
                    t = t + x * y
            gram.data[i][j] = gram.data[j][i] = t
    out = []
    for v in kernel_basis(gram):
        m = Mat.zero(end[0].rows, end[0].cols)
        for j in range(k):
            c = v.data[j][0]
            if not c.is_zero():
                m = m + end[j].scale(c)
        out.append(m)
    return out


def end_local_residue_dim(mats: Sequence[Mat], dim: int) -> int:
    """dim of End modulo its radical."""
    end = _end_basis_one_space(mats, dim)
    rad = _radical_basis(end)
    return len(end) - len(rad)


def is_indecomposable(module) -> bool:
    """End(V)/rad = K, computed exactly.  Accepts a KroneckerRep or a
    sequence of square action matrices on one space."""
    if isinstance(module, KroneckerRep):
        end = module.end_basis()
        rad = _radical_basis(end)
        if module.d1 + module.d2 == 0:
            return False
        return len(end) - len(rad) == 1
    mats = list(module)
    dim = mats[0].rows if mats else 0
    if dim == 0:
        return False
    return end_local_residue_dim(mats, dim) == 1


def modules_isomorphic(mats_m: Sequence[Mat], mats_n: Sequence[Mat]) -> Optional[Mat]:
    """An invertible intertwiner between one-space modules, or None."""
    dm = mats_m[0].rows if mats_m else 0
    dn = mats_n[0].rows if mats_n else 0
    if dm != dn:
        return None
    homs = BlockSystem([dm], [dn], [(0, 0, A, B) for A, B in zip(mats_m, mats_n)]).solve()
    iso = invertible_combination(homs, [dm])
    return None if iso is None else iso[0]


# -- Kronecker quiver -------------------------------------------------------


class KroneckerRep:
    """Two spaces M1, M2 with two maps A, B : M1 -> M2 (shapes d2 x d1)."""

    def __init__(self, A: Mat, B: Mat):
        if A.shape != B.shape:
            raise ValueError("pencil matrices must share a shape")
        self.A = A
        self.B = B
        self.d1 = A.cols
        self.d2 = A.rows

    @property
    def dims(self) -> Tuple[int, int]:
        return (self.d1, self.d2)

    def end_basis(self) -> List[Mat]:
        """Endomorphisms as block-diagonal matrices diag(X, Y)."""
        return [block_diag(X, Y) for X, Y in _kron_homs(self, self)]

    def __repr__(self):
        return f"KroneckerRep(dims=({self.d1},{self.d2}))"


@dataclass(frozen=True)
class KroneckerBlockLabel:
    """One of the five series: S1, S2(n), S3(n), S4(n, lam), S5(n)."""

    series: str
    n: int = 0
    lam: Optional[Scalar] = None

    def __post_init__(self):
        if self.series not in ("S1", "S2", "S3", "S4", "S5"):
            raise ValueError(f"unknown series {self.series!r}")
        if self.series != "S1" and self.n < 1:
            raise ValueError("series parameter n must be >= 1")
        if self.series == "S4" and self.lam is None:
            raise ValueError("series S4 needs an eigenvalue")

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
        A = Mat.identity(n)
        B = Mat.identity(n).scale(label.lam)
        for i in range(n - 1):
            B.data[i][i + 1] = ONE
        return KroneckerRep(A, B)
    A = Mat.zero(n, n)
    for i in range(n - 1):
        A.data[i][i + 1] = ONE
    return KroneckerRep(A, Mat.identity(n))


def _sub_rep(R: KroneckerRep, P1: Mat, P2: Mat) -> KroneckerRep:
    """R restricted to the subspaces spanned by the columns of P1 and P2."""
    sol = solve_linear(P2, (R.A @ P1).hstack(R.B @ P1))
    if sol is None:
        raise DomainError("subspace is not invariant")
    k = P1.cols
    X = sol.particular
    return KroneckerRep(
        Mat(X.rows, k, [row[:k] for row in X.data]),
        Mat(X.rows, k, [row[k:] for row in X.data]),
    )


def _splitting_element(end: List[Mat], field: Field, residue_dim: int) -> Tuple[Mat, UniPoly, UniPoly]:
    """An endomorphism whose min poly splits into two coprime parts.

    Candidates are the basis elements, sums and differences of two of them,
    then seeded pseudo-random combinations.  The search stops at the first
    candidate m whose min poly either has two distinct irreducible factors
    or is g^e with g irreducible of degree residue_dim = dim End/rad >= 2.
    Then K[m mod rad] fills End/rad, so End/rad is a field bigger than K
    and FieldError is a proof, not a search failure (split or certify, as
    in the MeatAxe).
    """

    def candidates():
        yield from end
        for i, j in combinations(range(len(end)), 2):
            for s in (1, -1):
                yield end[i] + end[j].scale(s)
        rng = _random.Random(0x5EED)
        for _ in range(300):
            m = Mat.zero(end[0].rows, end[0].cols)
            for e in end:
                c = rng.randint(-4, 4)
                if c:
                    m = m + e.scale(c)
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
        g = factors[0][0]
        if g.degree() == residue_dim:
            raise FieldError(
                f"pencil eigenvalue not in the field {field.name}: End/rad is the field K[H]/({g})"
            )
    raise RuntimeError(
        f"splitting search exhausted: no split and no degree-{residue_dim} certificate "
        "among the basis, pair and 300 seeded candidates"
    )


def _kron_indecomposable_label(R: KroneckerRep, field: Field) -> KroneckerBlockLabel:
    d1, d2 = R.dims
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
    Ainv = invert(R.A)
    if Ainv is not None:
        C = R.B @ Ainv
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
    Binv = invert(R.B)
    if Binv is None:
        raise DomainError("square indecomposable with both maps singular")
    C = R.A @ Binv
    p = min_poly(C)
    if p != UniPoly.monomial(d1, 1):
        raise FieldError(f"pencil eigenvalue not in the field {field.name}")
    return KroneckerBlockLabel("S5", d1)


def _kron_split_indecomposables(
    R: KroneckerRep, field: Field
) -> List[Tuple[KroneckerRep, Mat, Mat]]:
    """Indecomposable summands with embeddings (P1, P2) into R."""
    if R.d1 + R.d2 == 0:
        return []
    end = R.end_basis()
    rad = _radical_basis(end)
    if len(end) - len(rad) == 1:
        return [(R, Mat.identity(R.d1), Mat.identity(R.d2))]
    m, f1, f2 = _splitting_element(end, field, len(end) - len(rad))
    out = []
    for f in (f1, f2):
        fm = _eval_poly_at_matrix(f, m)
        X = Mat(R.d1, R.d1, [row[: R.d1] for row in fm.data[: R.d1]])
        Y = Mat(R.d2, R.d2, [row[R.d1 :] for row in fm.data[R.d1 :]])
        k1 = kernel_basis(X) if R.d1 else []
        k2 = kernel_basis(Y) if R.d2 else []
        P1 = Mat.from_cols(k1, R.d1)
        P2 = Mat.from_cols(k2, R.d2)
        sub = _sub_rep(R, P1, P2)
        for piece, Q1, Q2 in _kron_split_indecomposables(sub, field):
            out.append((piece, P1 @ Q1, P2 @ Q2))
    total1 = sum(p.d1 for p, _, _ in out)
    total2 = sum(p.d2 for p, _, _ in out)
    if total1 != R.d1 or total2 != R.d2:
        raise DomainError("splitting lost dimensions")
    return out


def kronecker_decompose(R: KroneckerRep, field: Field = QQ) -> List[KroneckerBlockLabel]:
    """Label multiset (sorted) of the indecomposable summands."""
    labels = [
        _kron_indecomposable_label(piece, field)
        for piece, _, _ in _kron_split_indecomposables(R, field)
    ]
    return sorted(labels, key=KroneckerBlockLabel.sort_key)


def kronecker_decompose_with_iso(R: KroneckerRep, field: Field = QQ):
    """Labels plus an explicit isomorphism from the canonical direct sum.

    Returns (labels, P, Q) with R.A @ Q = P @ A_can and R.B @ Q = P @ B_can,
    where (A_can, B_can) is the block-diagonal sum of the canonical series
    matrices in label order, and P, Q are invertible.
    """
    pieces = _kron_split_indecomposables(R, field)
    labeled = []
    for piece, P1, P2 in pieces:
        labeled.append((_kron_indecomposable_label(piece, field), piece, P1, P2))
    labeled.sort(key=lambda item: item[0].sort_key())
    Q = Mat(R.d1, 0)
    P = Mat(R.d2, 0)
    for label, piece, P1, P2 in labeled:
        iso = _kron_iso(kronecker_block(label), piece)
        if iso is None:
            raise DomainError(f"piece does not match its label {label!r}")
        U1, U2 = iso
        Q = Q.hstack(P1 @ U1)
        P = P.hstack(P2 @ U2)
    return [label for label, _, _, _ in labeled], P, Q


def _kron_iso(C: KroneckerRep, D: KroneckerRep) -> Optional[Tuple[Mat, Mat]]:
    """Invertible pair (U1, U2): C -> D with D.A U1 = U2 C.A etc."""
    if C.dims != D.dims:
        return None
    return invertible_combination(_kron_homs(C, D), C.dims)


def _kron_homs(C: KroneckerRep, D: KroneckerRep) -> List[Tuple[Mat, Mat]]:
    """Basis of the pairs (X, Y): C -> D with Y C.A = D.A X and Y C.B = D.B X."""
    arrows = [(0, 1, C.A, D.A), (0, 1, C.B, D.B)]
    return BlockSystem(C.dims, D.dims, arrows).solve()


def kronecker_sum(reps: Sequence[KroneckerRep]) -> KroneckerRep:
    """Direct sum of pencils."""
    return KroneckerRep(block_diag(*(r.A for r in reps)), block_diag(*(r.B for r in reps)))


# -- string and band modules ------------------------------------------------

Letter = int  # 1 for h1, 2 for h2
Word = Tuple[Letter, ...]


def parse_word(text) -> Word:
    if isinstance(text, (tuple, list)):
        w = tuple(int(x) for x in text)
    else:
        w = ()
        s = text.replace(" ", "")
        while s:
            if s.startswith("h1"):
                w += (1,)
                s = s[2:]
            elif s.startswith("h2"):
                w += (2,)
                s = s[2:]
            else:
                raise ValueError(f"bad word near {s!r}")
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
        rotations = [w[i:] + w[:i] for i in range(len(w))]
        self.word = min(rotations)

    @property
    def length(self) -> int:
        return len(self.word)

    def __eq__(self, other):
        return isinstance(other, BandOrbit) and self.word == other.word

    def __hash__(self):
        return hash(self.word)

    def __repr__(self):
        return f"BandOrbit({word_str(self.word)})"


def _is_periodic(w: Word) -> bool:
    l = len(w)
    for p in range(1, l):
        if l % p == 0 and w == w[p:] + w[:p]:
            return True
    return False


@dataclass
class GammaModule:
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
    jordan = Mat.identity(n).scale(lam)
    for i in range(n - 1):
        jordan.data[i][i + 1] = ONE
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
    N = A - Mat.identity(d).scale(lam)
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


@dataclass(frozen=True)
class AModuleDescriptor:
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
    """Columns spanning a free rank-1 submodule {v, h1v, h2v, h1h2v}, found
    deterministically; None when the doubled socle acts by zero."""
    d = h1.rows
    if (h1 @ h2).is_zero():
        return None
    # basis vectors, then sums of two basis vectors
    for picked in chain(combinations(range(d), 1), combinations(range(d), 2)):
        v = Mat.col_vector([ONE if r in picked else ZERO for r in range(d)])
        hit = _regular_span(h1, h2, v)
        if hit is not None:
            return hit
    return None


def _regular_span(h1: Mat, h2: Mat, v: Mat) -> Optional[Mat]:
    vecs = [v, h1 @ v, h2 @ v, (h1 @ h2) @ v]
    d = v.rows
    basis = column_space_basis(vecs, d)
    if len(basis) != 4 or vecs[3].is_zero():
        return None
    return Mat.from_cols(vecs, d)


def contains_regular_summand(h1: Mat, h2: Mat) -> bool:
    """Whether a free rank-1 submodule exists and splits off."""
    emb = find_regular_copy(h1, h2)
    if emb is None:
        return False
    rh1, rh2 = regular_A_module()
    homs = BlockSystem([h1.rows], [4], [(0, 0, h1, rh1), (0, 0, h2, rh2)]).solve()
    return retraction(homs, [emb]) is not None


# -- tameness of local ideals in two variables ------------------------------


@dataclass(frozen=True)
class TameVerdict:
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
    configured field with an over-the-closure flag."""
    if ideal.n != 2:
        raise DomainError("tameness test is for two-variable local ideals")
    window = monomials_below(2, 3)
    col_of = {e: j for j, e in enumerate(window)}
    rows = []
    for g in ideal.shifted:
        for m in window:
            prod = (g * MultiPoly.monomial(2, m)).truncate(3)
            if not prod.is_zero():
                rows.append(_poly_vec(prod, col_of))
    if ideal.order < 3:
        # everything of degree >= order is in the ideal
        for e in window:
            if sum(e) >= ideal.order:
                rows.append(_poly_vec(MultiPoly.monomial(2, e), col_of))
    if not rows:
        return TameVerdict(False, False)
    R, piv = rref(Mat.from_rows(rows, len(window)))
    quad_cols = [col_of[e] for e in ((2, 0), (1, 1), (0, 2))]
    low_cols = [col_of[e] for e in window if sum(e) < 2]
    # elements with vanishing low-degree part: impose zero on low columns
    space = [R.data[r] for r in range(len(piv))]
    A = Mat(len(low_cols), len(space), [[space[j][c] for j in range(len(space))] for c in low_cols])
    quad_forms = []
    for v in kernel_basis(A):
        coeffs = [ZERO, ZERO, ZERO]
        for j in range(len(space)):
            c = v.data[j][0]
            if not c.is_zero():
                for t in range(3):
                    coeffs[t] = coeffs[t] + c * space[j][quad_cols[t]]
        if any(not c.is_zero() for c in coeffs):
            quad_forms.append(tuple(coeffs))
    if not quad_forms:
        return TameVerdict(False, False)
    saw_nonzero_disc = False
    for combo in product(range(-4, 5), repeat=len(quad_forms)):
        if all(c == 0 for c in combo):
            continue
        a = b = c = ZERO
        for w, (qa, qb, qc) in zip(combo, quad_forms):
            if w:
                ws = Scalar(w)
                a = a + qa * ws
                b = b + qb * ws
                c = c + qc * ws
        disc = b * b - a * c * Scalar(4)
        if not disc.is_zero():
            saw_nonzero_disc = True
            if field.sqrt(disc) is not None:
                return TameVerdict(True, False)
    return TameVerdict(False, saw_nonzero_disc)


def _poly_vec(p: MultiPoly, col_of) -> List[Scalar]:
    v = [ZERO] * len(col_of)
    for e, c in p.coeffs.items():
        v[col_of[e]] = c
    return v
