"""The End-based pencil decomposition, kept as a reference for
`classify.kronecker_decompose_with_iso`, which builds the Kronecker chains
directly from the Wong limits.

`reference_decompose_with_iso` splits the pencil by Krull-Schmidt over End
(`classify.split_indecomposables`), labels each piece by its dimensions and,
for a square piece, by the min poly of B A^-1 (`reference_label`), and
matches every piece against its label's block through a basis element of
Hom(block, piece) that is invertible.  It returns what the direct path
returns: the labels sorted by `sort_key` and P, Q with R.A Q = P A_can and
R.B Q = P B_can.
"""

from intdiffops.classify import (
    FieldError,
    KroneckerBlockLabel,
    _invertible_hom,
    factor_unipoly,
    kronecker_block,
    min_poly,
    split_indecomposables,
)
from intdiffops.linalg import DomainError, Mat, QuiverRep, hom_space, invert
from intdiffops.scalars import ZERO, Field


def reference_label(R: QuiverRep, field: Field) -> KroneckerBlockLabel:
    """The series an indecomposable pencil would have, read off its
    dimensions and, for a square piece, off the min poly of B A^-1; the
    match in `reference_decompose_with_iso` refuses every wrong guess."""
    d1, d2 = R.dims
    if d1 != d2:
        if abs(d1 - d2) != 1:
            raise DomainError(f"indecomposable pencil of dimensions ({d1},{d2}) is in no series")
        if d1 < d2:
            return KroneckerBlockLabel("S2", d1)
        return KroneckerBlockLabel("S3", d2) if d2 else KroneckerBlockLabel("S1")
    (_, _, A), (_, _, B) = R.arrows
    Ainv = invert(A)
    if Ainv is None:
        # A B^-1 of an indecomposable square pencil with A singular is nilpotent
        return KroneckerBlockLabel("S5", d1)
    factors = factor_unipoly(min_poly(B @ Ainv), field)
    if len(factors) != 1:
        raise DomainError("square piece with split spectrum is decomposable")
    f, _ = factors[0]
    if f.degree() != 1:
        raise FieldError(f"pencil eigenvalue not in the field {field.name}: min poly {f}")
    return KroneckerBlockLabel("S4", d1, -f.coeffs.get(0, ZERO))


def reference_decompose_with_iso(R, field: Field):
    labeled = sorted(
        ((reference_label(piece, field), piece, emb) for piece, emb in split_indecomposables(R, field)),
        key=lambda item: item[0].sort_key(),
    )
    Qs, Ps = [], []
    for label, piece, (P1, P2) in labeled:
        block = kronecker_block(label)
        iso = _invertible_hom(hom_space(block, piece)) if block.dims == piece.dims else None
        if iso is None:
            raise DomainError(f"piece does not match its label {label!r}")
        Qs.append(P1 @ iso[0])
        Ps.append(P2 @ iso[1])
    return [label for label, _, _ in labeled], Mat(R.d2, 0).hstack(*Ps), Mat(R.d1, 0).hstack(*Qs)
