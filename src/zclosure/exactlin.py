"""Exact rational linear algebra.

Everything here is exact, over `fractions.Fraction` or the integers; there is
no floating point anywhere in the package.  Subspaces are kept in reduced row
echelon form so that equality of spans is literal structural equality.

`Span` is the only eliminator in the package.  The fixpoints, the oracle and
the exterior greedy basis insert into it directly; the rest goes through
`span_of`, which clears each vector (`_cleared`) and inserts it:
`Subspace.from_vectors`, `contains` and `intersection`, the rank algebra of
`stable`, the block extraction, `oracle.finite_vanishing_space` and
`exterior.combination`.  Every kernel is `kernel_basis` of a `Span`, the
RREF of its annihilator, read off the span's rows eliminated once over
reversed columns, so the engine's stages hand over the spans they accepted
and no kernel is eliminated again.  A
span does not change when a vector is scaled, so it keeps primitive integer
rows by fraction-free elimination; `Fraction` appears only where
`Span.basis()` divides its integer Gauss-Jordan form by the pivots, which
gives the canonical RREF, and in `kernel_basis`'s read-off.  The
fixpoints' vectors are mostly zeros, so a row is stored only sparsely, as a
pair of int tuples (support, values) with the pivot first and a positive
pivot entry (`Row`): a row operation updates the vector only over the
row's support, and scales all of it only when the pivot entry does not
divide the vector's entry there.  A tuple of ints holds nothing the cyclic
garbage collector must follow, so it untracks the rows; `basis()` densifies
them on demand and `dense` one row.  A span that refuses a vector at
dimension at least half its ambient dimension also keeps its annihilator
and tests membership by dot products against it, which pays only where
most inserts are refused (the oracle).
"""
from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import DimensionError

Vector = tuple[Fraction, ...]
# A sparse integer vector: its nonzero columns, ascending, and its entries there.
Row = tuple[tuple[int, ...], tuple[int, ...]]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(entries: Iterable) -> Vector:
    return tuple(_frac(x) for x in entries)


class Matrix:
    """Immutable dense matrix of Fractions."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        rows = tuple(vec(r) for r in entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise DimensionError("ragged matrix rows")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", len(rows[0]) if rows else 0)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def identity(d: int) -> "Matrix":
        return Matrix([[Fraction(int(i == j)) for j in range(d)] for i in range(d)])

    @staticmethod
    def zeros(r: int, c: int | None = None) -> "Matrix":
        c = r if c is None else c
        return Matrix([[Fraction(0)] * c for _ in range(r)])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix[{body}]"

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        ot = tuple(zip(*other.entries)) if other.entries else ()
        return Matrix(
            [
                [sum(a * b for a, b in zip(row, col)) for col in ot]
                for row in self.entries
            ]
        )

    def columns(self) -> list[Vector]:
        return [tuple(row[j] for row in self.entries) for j in range(self.cols)]

    def flat(self) -> Vector:
        return tuple(x for row in self.entries for x in row)


def _cleared(v: Iterable[Fraction]) -> list[int]:
    """The integer vector m * v, m the lcm of the entries' denominators."""
    v = list(v)
    m = lcm(*(x.denominator for x in v))
    return [x.numerator * (m // x.denominator) for x in v]


class Span:
    """Incremental span of integer vectors, kept fraction-free.

    Each row is a pair of int tuples (support, values): its nonzero columns,
    ascending, and its entries there.  The rows are primitive and in
    semi-echelon form, in insertion order: each is zero at the pivots
    (first nonzero columns) of the rows before it, and its pivot entry,
    values[0], is positive.  Membership does not depend on scaling, so
    `insert` eliminates a dense copy of v by integer combinations and never
    leaves the integers: clearing a pivot touches only the row's support,
    and multiplies the whole of v only when the pivot entry does not divide
    v's entry there, so a row whose pivot entry is 1 never scales it (with
    a pivot entry of -1 every step would).  A row holds only ints, so the
    cyclic garbage collector untracks it and a collection walks each span's
    row list, not its rows.  `reduced()` eliminates each row at the pivots
    of the rows after it, the same step run backwards; `basis()` divides
    that integer Gauss-Jordan form by its pivots, the canonical `Fraction`
    RREF, and `annihilator()` solves it for the annihilator's integer basis
    (`ann` below).

    Once an insert is refused at dimension at least n/2, the span also keeps
    `ann`, a primitive integer basis k_0, k_1, ... of the annihilator
    {k : k.r = 0 for every row r}: n - dim vectors, at most as many as the
    rows.  Then v is in the span iff every k_i.v is 0, which one dot product
    tests: against the packed vector W, W_j = sum_i k_i[j] * 2^(b i), W.v is
    sum_i (k_i.v) * 2^(b i).  The width b makes 2^(b - 1) exceed
    |k_i.v| <= |k_i|_1 * max|v| for every i, so the terms cannot cancel (the
    lowest nonzero one is not a multiple of the next power 2^(b (i + 1)))
    and W.v = 0 exactly when every k_i.v = 0.  W is built for max|v| below a
    power of two and rebuilt when `ann` changes or a vector outgrows it.  An
    accepted v drops the first k0 with k0.v != 0 and clears k.v from the
    others by one rank-one step.  That pays only where most inserts are
    refused (the oracle), so a span that only grows never builds it.
    """

    __slots__ = ("n", "rows", "ann", "packed", "limit")

    def __init__(self, n: int):
        self.n = n
        self.rows: list[Row] = []
        self.ann: list[list[int]] | None = None
        self.packed: list[int] | None = None  # W, for max|v| < limit
        self.limit = 0

    @staticmethod
    def _eliminate(v: list[int], rows: Iterable[Row]) -> list[int]:
        """v plus integer multiples of the rows, zero at their pivots.  v is
        updated in place unless a pivot entry that does not divide it forces
        a scaled copy; the result is returned either way."""
        for support, values in rows:
            c = v[support[0]]
            if c:
                p = values[0]
                if p != 1:
                    g = gcd(p, c)
                    c //= g
                    if p != g:
                        p //= g
                        v = [p * x for x in v]
                for k, x in zip(support, values):
                    v[k] -= c * x
        return v

    def _row(self, v: list[int]) -> Row | None:
        """The primitive row of a dense v with a positive pivot entry, or
        None for the zero vector."""
        support = tuple(compress(range(self.n), v))
        if not support:
            return None
        values = tuple(v[k] for k in support)
        g = gcd(*values) if values[0] > 0 else -gcd(*values)
        if g != 1:
            values = tuple(x // g for x in values)
        return support, values

    def insert(self, v: Iterable[int]) -> bool:
        """Add v, a dense integer vector, to the span; True iff the
        dimension grew.  v is copied, never eliminated in place."""
        if len(self.rows) == self.n:
            return False  # already the whole space
        v = list(v)
        ann = self.ann
        if ann is not None:
            top = max(map(abs, v))
            if self.packed is None or top >= self.limit:
                self._pack(top)
            if not sum(map(mul, self.packed, v)):
                return False
            self.packed = None
            for i, k0 in enumerate(ann):
                p0 = sum(map(mul, k0, v))
                if p0:
                    break
            del ann[i]  # the vectors before it are already orthogonal to v
            for j in range(i, len(ann)):
                k = ann[j]
                c = sum(map(mul, k, v))
                if c:
                    k = [p0 * x - c * y for x, y in zip(k, k0)]
                    g = gcd(*k)
                    ann[j] = [x // g for x in k]
        row = self._row(self._eliminate(v, self.rows))
        if row is None:
            if ann is None and 2 * len(self.rows) >= self.n:
                self.ann = self.annihilator()
            return False
        self.rows.append(row)
        return True

    def _pack(self, top: int) -> None:
        """Build W for the vectors with max|v| < 2^m, m the bit length of
        `top`: b = bitlength(max_i |k_i|_1) + m + 1 gives
        |k_i.v| < 2^(bitlength(|k_i|_1)) * 2^m <= 2^(b - 1)."""
        m = top.bit_length()
        b = max(sum(map(abs, k)) for k in self.ann).bit_length() + m + 1
        self.limit = 1 << m
        self.packed = [sum(k[j] << b * i for i, k in enumerate(self.ann)) for j in range(self.n)]

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduced(self) -> list[Row]:
        """The rows, each eliminated at the other rows' pivots and made
        primitive again (positive pivots are only ever scaled by
        positives), sorted by pivot column."""
        rows = self.rows[:]
        for i in reversed(range(len(rows))):
            rows[i] = self._row(self._eliminate(dense(rows[i], self.n), rows[i + 1:]))
        return sorted(rows)

    def annihilator(self) -> list[list[int]]:
        """Primitive integer basis of {k : k.r = 0 for every row r}, one
        vector per free column f: e_f times the lcm of the pivots, solved at
        the pivot columns of the integer Gauss-Jordan form."""
        reduced = self.reduced()
        scale = lcm(*(values[0] for _, values in reduced))
        pivots = {support[0] for support, _ in reduced}
        solved: dict[int, list[tuple[int, int]]] = {}  # f -> (pivot, k[pivot])
        for support, values in reduced:
            m = scale // values[0]
            for f, x in zip(support[1:], values[1:]):  # free columns only
                solved.setdefault(f, []).append((support[0], -x * m))
        out = []
        for f in range(self.n):
            if f not in pivots:
                k = [0] * self.n
                k[f] = scale
                for p, x in solved.get(f, ()):
                    k[p] = x
                g = gcd(*k)
                out.append([x // g for x in k])
        return out

    def basis(self) -> list[Vector]:
        zero = Fraction(0)  # one shared zero: most entries of a large basis
        out = []
        for support, values in self.reduced():
            row = [zero] * self.n
            for k, x in zip(support, values):
                row[k] = Fraction(x, values[0])
            out.append(tuple(row))
        return out


def dense(row: Row, n: int) -> list[int]:
    """The sparse row (support, values) as a list of length n."""
    out = [0] * n
    for k, x in zip(*row):
        out[k] = x
    return out


def span_of(n: int, vectors: Iterable[Sequence]) -> Span:
    """The `Span` of rational (or integer) vectors of length n, each cleared
    of denominators as it goes in."""
    span = Span(n)
    for v in vectors:
        if len(v) != n:
            raise DimensionError("vector length does not match ambient dimension")
        span.insert(_cleared(v))
    return span


class Subspace(NamedTuple):
    """A subspace of Q^n held as its canonical RREF basis (no zero rows)."""

    ambient_dim: int
    basis: tuple[Vector, ...]

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        return Subspace(ambient_dim, tuple(span_of(ambient_dim, vectors).basis()))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(ambient_dim).entries)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence) -> bool:
        return span_of(self.ambient_dim, [*self.basis, v]).dim == self.dim

    def intersection(self, other: "Subspace") -> "Subspace":
        """The annihilator of the sum of the two annihilators."""
        self._check_ambient(other)
        n = self.ambient_dim
        sums = span_of(n, (k for s in (self, other) for k in kernel_basis(span_of(n, s.basis))))
        return Subspace(n, tuple(kernel_basis(sums)))

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError("subspaces live in different ambient spaces")


def kernel_basis(span: Span) -> list[Vector]:
    """The RREF basis of the span's annihilator, read off the span's rows
    eliminated over reversed columns.  Their integer Gauss-Jordan form R has
    each pivot p at its row's last nonzero column, so for each free column f
    k_f = e_f - sum over the pivots p of (R_p[f] / R_p[p]) e_p is orthogonal
    to every row; it is nonzero only at f and at pivots after f, so these
    vectors are already the annihilator's RREF.  The span, and a kept
    `ann`, are left as they were."""
    n = span.n
    back = Span(n)  # column k of the span at n - 1 - k
    for row in span.rows:
        back.rows.append(back._row(back._eliminate(dense(row, n)[::-1], back.rows)))
    zero, one = Fraction(0), Fraction(1)
    pivots = set()
    solved: dict[int, list[tuple[int, Fraction]]] = {}  # f -> (pivot p, k_f[p])
    for support, values in back.reduced():
        p = n - 1 - support[0]
        pivots.add(p)
        for k, x in zip(support[1:], values[1:]):
            solved.setdefault(n - 1 - k, []).append((p, Fraction(-x, values[0])))
    out = []
    for f in range(n):
        if f not in pivots:
            k = [zero] * n
            k[f] = one
            for p, x in solved.get(f, ()):
                k[p] = x
            out.append(tuple(k))
    return out
