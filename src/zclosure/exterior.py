"""Exterior algebra over Q^d with sparse subset-indexed coordinates.

Coordinates are keyed by strictly increasing tuples of 0-based axis indices;
the empty tuple is the scalar unit of grade 0.  Signs come from the parity of
the inversion count when merging index tuples.  Only what the factorization
tree construction needs: the subspace embedding, wedge products of
decomposables, trivial-intersection tests and the left-to-right greedy basis.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import DimensionError, PreconditionError
from .exactlin import Span, Subspace, _cleared, span_of, vec

Key = tuple[int, ...]


def _merge_sign(a: Key, b: Key) -> tuple[Key, int]:
    """Concatenate-and-sort two disjoint keys; sign = (-1)^inversions."""
    inv = 0
    for x in a:
        for y in b:
            if x > y:
                inv += 1
    return tuple(sorted(a + b)), -1 if inv % 2 else 1


class _ExtVectorFields(NamedTuple):
    dim: int
    coords: dict[Key, Fraction]


class ExtVector(_ExtVectorFields):
    """Element of Λ(Q^dim); zero coefficients are never stored."""

    __slots__ = ()

    def __new__(cls, dim: int, coords: dict[Key, Fraction] | None = None):
        clean = {}
        for k, v in (coords or {}).items():
            v = Fraction(v)
            if v:
                clean[tuple(k)] = v
        return super().__new__(cls, dim, clean)

    @property
    def is_zero(self) -> bool:
        return not self.coords

    def __hash__(self):
        return hash((self.dim, tuple(sorted(self.coords.items()))))

    def scale(self, c) -> "ExtVector":
        c = Fraction(c)
        return ExtVector(self.dim, {k: c * v for k, v in self.coords.items()})

    def add(self, other: "ExtVector") -> "ExtVector":
        if self.dim != other.dim:
            raise DimensionError("exterior vectors from different ambient spaces")
        coords = dict(self.coords)
        for k, v in other.coords.items():
            coords[k] = coords.get(k, Fraction(0)) + v
        return ExtVector(self.dim, coords)

    @staticmethod
    def unit(dim: int) -> "ExtVector":
        return ExtVector(dim, {(): Fraction(1)})

    @staticmethod
    def from_vector(v) -> "ExtVector":
        v = vec(v)
        return ExtVector(len(v), {(i,): x for i, x in enumerate(v) if x})


def wedge(a: ExtVector, b: ExtVector) -> ExtVector:
    if a.dim != b.dim:
        raise DimensionError("wedge of vectors from different ambient spaces")
    coords: dict[Key, Fraction] = {}
    for ka, va in a.coords.items():
        sa = set(ka)
        for kb, vb in b.coords.items():
            if sa & set(kb):
                continue
            key, sign = _merge_sign(ka, kb)
            coords[key] = coords.get(key, Fraction(0)) + sign * va * vb
    return ExtVector(a.dim, coords)


def _key_order(k: Key) -> tuple:
    return (len(k), k)


def iota(w: Subspace) -> ExtVector:
    """Wedge of the canonical RREF basis, scaled so the lexicographically
    first nonzero coordinate is 1.  The zero subspace maps to the grade-0
    unit (empty wedge)."""
    out = ExtVector.unit(w.ambient_dim)
    for row in w.basis:
        out = wedge(out, ExtVector.from_vector(row))
    if out.is_zero:
        # cannot happen for an RREF basis; guard for corrupted input
        raise PreconditionError("iota of a dependent basis")
    first = min(out.coords, key=_key_order)
    c = out.coords[first]
    return out if c == 1 else out.scale(1 / c)


def trivially_intersects(w1: Subspace, w2: Subspace) -> bool:
    """W1 ∩ W2 = {0} iff ι(W1) ∧ ι(W2) != 0."""
    if w1.ambient_dim != w2.ambient_dim:
        raise DimensionError("subspaces live in different ambient spaces")
    return not wedge(iota(w1), iota(w2)).is_zero


def greedy_basis(vs: list[ExtVector]) -> list[int]:
    """1-based indices of the left-to-right maximal independent subsequence.

    Index p is kept iff vs[p-1] is not a linear combination of vs[:p-1]; the
    first index is always kept (for nonzero input).
    """
    if not vs:
        raise PreconditionError("greedy_basis of an empty list")
    dims = {v.dim for v in vs}
    if len(dims) != 1:
        raise DimensionError("greedy_basis over mixed ambient dimensions")
    keys = sorted({k for v in vs for k in v.coords}, key=_key_order)
    span = Span(len(keys))
    out = []
    for i, v in enumerate(vs):
        if span.insert(_cleared(v.coords.get(k, Fraction(0)) for k in keys)):
            out.append(i + 1)
    return out


def combination(targets: list[ExtVector], v: ExtVector) -> list[Fraction] | None:
    """Coefficients c with sum(c_i * targets[i]) = v, or None if v is outside
    the span.  Unique when the targets are independent (the greedy case)."""
    keys = sorted(
        {k for t in targets for k in t.coords} | set(v.coords), key=_key_order
    )
    n = len(targets)
    aug = span_of(
        n + 1,
        [
            [t.coords.get(k, Fraction(0)) for t in targets]
            + [v.coords.get(k, Fraction(0))]
            for k in keys
        ],
    ).basis()
    coeffs = [Fraction(0)] * n
    for row in aug:
        piv = next(i for i, x in enumerate(row) if x)
        if piv == n:
            return None
        coeffs[piv] = row[n]
    return coeffs
