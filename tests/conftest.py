"""Shared generators for the property tests."""
from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from operator import mul
from typing import Iterable, Sequence

from zclosure.errors import DimensionError
from zclosure.exactlin import Matrix, Span, Vector, span_of, vec
from zclosure.lang import MorphismPair
from zclosure.polys import Poly, PolySpace, poly_to_vector


def rref(vectors: Iterable[Sequence]) -> list[Vector]:
    """Reduced row echelon form; pivot = first nonzero entry in column order.

    Returns the nonzero rows, pivots normalized to 1 and eliminated from all
    other rows, rows ordered by pivot column.  This is the unique canonical
    basis of the span, so two RREFs are equal iff the spans are equal.

    The dense `Fraction` Gauss-Jordan elimination: the reference that the
    tests check `exactlin.Span` and everything built on it against, so it
    shares no elimination code with the package.
    """
    work = [list(vec(v)) for v in vectors]
    if not work:
        return []
    ncols = len(work[0])
    if any(len(r) != ncols for r in work):
        raise DimensionError("rref: inconsistent vector lengths")
    out: list[list[Fraction]] = []
    pivots: list[int] = []
    for row in work:
        # reduce against existing pivots
        for prow, pcol in zip(out, pivots):
            c = row[pcol]
            if c:
                for k in range(pcol, ncols):
                    row[k] -= c * prow[k]
        pcol = next((k for k, x in enumerate(row) if x), None)
        if pcol is None:
            continue
        inv = row[pcol]
        if inv != 1:
            for k in range(pcol, ncols):
                row[k] /= inv
        # eliminate the new pivot from earlier rows
        for prow in out:
            c = prow[pcol]
            if c:
                for k in range(pcol, ncols):
                    prow[k] -= c * row[k]
        out.append(row)
        pivots.append(pcol)
    order = sorted(range(len(out)), key=lambda i: pivots[i])
    return [tuple(out[i]) for i in order]


def dense_apply_map(cols, v: Sequence) -> list:
    """T v for a dense v, by scanning every coordinate: the reference for
    `closure.apply_map`, which visits only a sparse row's support."""
    out = [0] * len(cols)
    for x, (ts, cs) in zip(v, cols):
        if x:
            for t, c in zip(ts, cs):
                out[t] += c * x
    return out


def dense_tensor_apply(cols, f: int, v: Sequence, n: int) -> list:
    """(I x .. x T x .. x I) v, T in position f, for a dense tensor v of
    four n-vectors, by walking every line of factor f: the reference for
    `closure._tensor_apply`."""
    out = [0] * len(v)
    stride = n ** (3 - f)  # distance between consecutive values of factor f
    block = n * stride  # size of one full cycle of factor f
    for start in range(0, len(v), block):
        for base in range(start, start + stride):
            for x, (ts, cs) in zip(v[base:base + block:stride], cols):
                if x:
                    for t, c in zip(ts, cs):
                        out[base + t * stride] += c * x
    return out


def sparse(v: Sequence) -> tuple[tuple[int, ...], tuple]:
    """The (support, values) form of a dense vector."""
    support = tuple(k for k, x in enumerate(v) if x)
    return support, tuple(v[k] for k in support)


def raw_fixpoint(queue, moves, accepting, exact, lo, hi, state) -> None:
    """`closure._fixpoint` as it pushes, accepts and parks each vector v
    that grows its configuration's span, rather than the row the span
    stored; its moves' steps map dense vectors (`dense_apply_map`,
    `dense_tensor_apply`)."""
    spans, accepted, refused = state
    while queue:
        (q, c), v = queue.popleft()
        span = spans.get((q, c))
        if span is None:
            span = spans[(q, c)] = Span(len(v))
        if not span.insert(v):
            continue
        if q in accepting and not (exact and c):
            accepted.insert(v)
        for step, w, q2 in moves[q]:
            c2 = c + w
            if lo <= c2 <= hi:
                queue.append(((q2, c2), step(v)))
            elif refused is not None and (c2 > hi or lo < 0):
                refused.setdefault(c2, []).append((q2, v, step))


def in_reference_language(w: Sequence[str], mp: MorphismPair, predicate: str) -> bool:
    """The languages' definitions, written out apart from `lang.bounds` as
    the reference that membership and the frontier are checked against: LC
    (cover) has every prefix weight >= 0, LR (reach) is LC with weight 0, LZ
    (zero) has weight 0, and LBZ (bz) is LZ with every prefix weight in
    [-eta, eta]."""
    pw = list(accumulate((mp.omega[a] for a in w), initial=0))
    lc, lz = min(pw) >= 0, pw[-1] == 0
    return {
        "cover": lc,
        "reach": lc and lz,
        "zero": lz,
        "bz": lz and all(-mp.eta <= c <= mp.eta for c in pw),
        "all": True,
    }[predicate]


def contains_poly(space: PolySpace, p: Poly) -> bool:
    v = poly_to_vector(p, space.dim * space.dim, space.degree)
    return space.vanishing_basis.contains(v)


def random_matrix(rng: random.Random, d: int, lo: int = -2, hi: int = 2) -> Matrix:
    return Matrix(
        [[Fraction(rng.randint(lo, hi)) for _ in range(d)] for _ in range(d)]
    )


def random_rank_sequence(rng: random.Random, d: int, r: int, length: int):
    """M_i = B_i A_i shares rank-r structure; rejection keeps the product at
    rank r (adjacent r x r middles must be invertible).  The products are
    integer lists until a sequence is kept."""
    while True:
        ms = []
        for _ in range(length):
            a = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(r)]
            b = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(d)]
            ms.append(_int_product(b, a))
        if any(span_of(d, m).dim != r for m in ms):
            continue
        if span_of(d, reduce(_int_product, ms)).dim == r:
            return [Matrix(m) for m in ms]


def _int_product(x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*y))
    return [[sum(map(mul, row, col)) for col in cols] for row in x]


def powers_morphism(eta: int = 0) -> MorphismPair:
    """d=1 pair: a doubles, b halves."""
    return MorphismPair(
        ("a", "b"), 1,
        {"a": Matrix([[2]]), "b": Matrix([[Fraction(1, 2)]])},
        {"a": 1, "b": -1},
        eta,
    )


def unipotent_morphism(eta: int = 0) -> MorphismPair:
    """d=2 pair with the upper/lower unipotent generators."""
    return MorphismPair(
        ("a", "b"), 2,
        {"a": Matrix([[1, 1], [0, 1]]), "b": Matrix([[1, 0], [1, 1]])},
        {"a": 1, "b": -1},
        eta,
    )
