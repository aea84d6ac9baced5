"""Rank, stability and the stable idempotent of a square matrix: the algebra
of the factorization trees (`facttree`), which no pipeline run uses.

Each is one `exactlin.span_of` elimination or a few.  The one non-textbook
operation is `stable_identity`: for a stable matrix M (rank M = rank M^2) it
builds the idempotent P with PM = MP = M by changing basis to [image basis |
kernel basis] and conjugating diag(I_r, 0) back.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import DimensionError, PreconditionError
from .exactlin import Matrix, Subspace, kernel_basis, span_of


def rank(m: Matrix) -> int:
    return span_of(m.cols, m.entries).dim


def rank_decomp(m: Matrix) -> tuple[int, Subspace, Subspace]:
    """(rank, image, kernel) of a square matrix; image spanned by columns."""
    if not m.is_square:
        raise DimensionError("rank_decomp needs a square matrix")
    image = Subspace.from_vectors(m.rows, m.columns())
    ker = Subspace(m.cols, tuple(kernel_basis(span_of(m.cols, m.entries))))
    return image.dim, image, ker


def is_stable(m: Matrix) -> bool:
    """rank(M) = rank(M^2), which holds iff im(M) ∩ ker(M) = {0}."""
    if not m.is_square:
        raise DimensionError("is_stable needs a square matrix")
    return rank(m) == rank(m * m)


def invert(m: Matrix) -> Matrix:
    """The right half of the RREF of [M | I], whose left half is I iff M is
    invertible ([M | I] always has rank d)."""
    if not m.is_square:
        raise DimensionError("invert needs a square matrix")
    d = m.rows
    aug = span_of(
        2 * d, [row + unit for row, unit in zip(m.entries, Matrix.identity(d).entries)]
    ).basis()
    if any(row[i] != 1 for i, row in enumerate(aug)):
        raise PreconditionError("matrix is singular")
    return Matrix([row[d:] for row in aug])


def stable_identity(m: Matrix) -> Matrix:
    """The projector P = Y diag(I_r, 0) Y^{-1}, Y = [image basis | kernel basis].

    P is the identity element of the closed group generated by a stable M:
    P^2 = P, PM = MP = M, im(P) = im(M), ker(P) = ker(M).
    """
    if not m.is_square:
        raise DimensionError("stable_identity needs a square matrix")
    r, image, ker = rank_decomp(m)
    if image.intersection(ker).dim != 0:
        raise PreconditionError("stable_identity requires a stable matrix")
    d = m.rows
    cols = list(image.basis) + list(ker.basis)
    y = Matrix(list(zip(*cols))) if cols else Matrix.identity(d)
    diag = Matrix([[Fraction(int(i == j and i < r)) for j in range(d)] for i in range(d)])
    return y * diag * invert(y)
