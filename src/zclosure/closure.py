"""Degree-bounded vanishing-ideal engine and the end-to-end pipelines.

The engine tracks, per automaton state, the span of Veronese coordinate
vectors nu_D(phi(w)) (all monomial evaluations of total degree <= D).  Right
multiplication by a fixed letter matrix acts linearly on these coordinates,
so a worklist fixpoint over a finite automaton computes the exact span of the
accepted language; the vanishing space is its orthogonal complement.

One worklist, `_fixpoint`, runs every such fixpoint over configurations
(state, counter).  A stage gives it seeds and moves, `_moves` of an automaton
with a weight per letter: the regular fixpoint (`_nfa_span_rows`: an NFA,
weight 0), the default-threshold cover and bounded-zero stages
(`_threshold_rows`: the universal automaton on fixed counters) and the
saturation window (`_window_rows`: on growing counters).  The zero
pipeline's product-alphabet stage (`_gamma_condition_rows`) pushes the
tensor steps of Gamma's single-track letters on one state; their commuting
maps compose to every Gamma letter's.

A span does not change when a vector is scaled, so every fixpoint and the
oracle run on integer vectors: each letter map is built from the integer
letter and cleared of denominators once (scaling every path image by a
nonzero constant), and `Span` keeps primitive integer rows by fraction-free
elimination, each only as its support and the values there.  The worklist
pushes the row a span stored, the pushed vector's residual against the
configuration's earlier rows, which is zero at their pivots.  The letter
maps are kept by columns (`Columns`), so `apply_map` and `_tensor_apply`
map a stored row by visiting only its support, into a dense image for the
next insert.  The rows go to `kernel_basis` densified; `Fraction` appears
only in the final division by the pivots.  Worklists are first in, first
out: the spans are least fixpoints in any order, but short words first keep
the integers small.

The oracle shares only `Span` with the fixpoints.  It reads a language as a
predicate name (`lang.bounds`) plus a deterministic automaton.  Its words
come from one lazy frontier over (automaton state, counter)
(`word_frontier`); a prefix's image is an integer matrix N over one
denominator s, one direct product with its parent's, and a word's point is
N^mono * s^(D - |mono|).

Pipeline policy.  At the default threshold eta the constructions carry the
theorem-level guarantee: cover runs the cover-automaton reduction and zero
the bounded-zero/product-alphabet pair, on counters; `automata` builds
these automata only for `closure automaton` and the tests.  Reach needs the
lifted reduction, whose flat stage is astronomically large at the default
threshold, and so does a 1-VASS at its lifted threshold; both refuse.  Every
eta-overridden pipeline (cover, zero, reach, and 1-VASS cover/reach under the
DFA of its transitions) runs `run_saturation`: bounded-counter saturation -
the space over words whose prefix weights stay in a window is monotone in the
window and its limit is the exact target - stopping when the space is
unchanged for `window` consecutive bounds, then the brute-force oracle over
the same language, and no answer on disagreement.  The windows nest, so one
fixpoint is warm-started from bound to bound: the worklist parks each push
that leaves the window, a bound replays only the parked pushes it newly
admits, and the space is unchanged when its dimension is.

Each substitution map - a letter's action on nu_D, the product pullback of
the gamma stage, the block reduction's pullback - is the monomial basis
composed with a list of polynomials, `polys.substitution_rows`.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb, gcd, lcm
from operator import mul
from typing import Callable, Collection, Iterator, Sequence

from .automata import Nfa
from .errors import (
    DimensionError,
    InfeasibleError,
    OracleDisagreementError,
    PreconditionError,
)
from .exactlin import Matrix, Row, Span, Subspace, Vector, _cleared, dense, kernel_basis, vec
from .lang import MorphismPair, Word, bounds
from .polys import PolySpace, basis_index, monomial_basis, monomial_steps, substitution_rows


@dataclass(frozen=True)
class Caps:
    """Configurable feasibility limits; exceeding one is a structured error,
    never silent truncation."""

    veronese: int = 10_000
    states: int = 1_000_000
    budget: int = 10_000  # states x Veronese dimension per fixpoint
    counter: int = 64  # saturation window bound
    oracle_len: int = 14
    oracle_extend: int = 40  # cross-checks may extend this far to stabilize
    oracle_words: int = 400_000
    window: int = 3


DEFAULT_CAPS = Caps()


# ---------------------------------------------------------------------------
# Veronese machinery


def _monomial_evaluator(nvars: int, degree: int) -> Callable[[Sequence, int], list]:
    """(x, s) -> s^D * nu_D(x / s): each monomial x^mono of degree <= D
    times s^(D - |mono|), in `monomial_basis` order.  Each monomial is its
    parent's (one degree lower) times one variable."""
    basis = monomial_basis(nvars, degree)
    steps = monomial_steps(nvars, degree)
    rest = [degree - sum(mono) for mono in basis]

    def evaluate(x: Sequence, s: int) -> list:
        out = [1] * len(basis)
        for k, parent, var in steps:
            out[k] = out[parent] * x[var]
        if s != 1:
            powers = [s ** e for e in range(degree + 1)]
            out = [v * powers[e] for v, e in zip(out, rest)]
        return out

    return evaluate


def veronese(m: Matrix, degree: int) -> Vector:
    flat = m.flat()
    return vec(_monomial_evaluator(len(flat), degree)(flat, 1))


# A linear map of Veronese coordinates by columns: column s is (ts, cs), the
# rows t and entries T[t][s] of its nonzero entries, ascending in t.
Columns = list[tuple[tuple[int, ...], tuple]]


def letter_map(a: Matrix | Sequence[Sequence], degree: int) -> Columns:
    """The columns of the linear map T with nu_D(M * a) = T nu_D(M), for a
    matrix a or its rows; integer rows give an integer map."""
    a = a.entries if isinstance(a, Matrix) else a
    d = len(a)
    nvars = d * d
    index = basis_index(nvars, degree)
    # (M a)_{ij} = sum_k M_{ik} a_{kj}, a linear form in the entries of M
    forms = [
        {
            tuple(int(v == i * d + k) for v in range(nvars)): a[k][j]
            for k in range(d)
            if a[k][j]
        }
        for i in range(d)
        for j in range(d)
    ]
    cols: list[tuple[list, list]] = [([], []) for _ in index]
    for t, p in enumerate(substitution_rows(forms, degree, nvars)):
        for mono, c in p.items():
            ts, cs = cols[index[mono]]
            ts.append(t)
            cs.append(c)
    return [(tuple(ts), tuple(cs)) for ts, cs in cols]


def apply_map(cols: Columns, row: Row) -> list[int]:
    """T v for the sparse row v, dense: x times column s for each entry x of
    v at s, so only v's support is visited."""
    out = [0] * len(cols)
    for s, x in zip(*row):
        ts, cs = cols[s]
        for t, c in zip(ts, cs):
            out[t] += c * x
    return out


def _integer_maps(mp: MorphismPair, degree: int) -> dict[str, Columns]:
    """Each letter map times the lcm of all its denominators: the image of
    every vector is scaled by one nonzero constant, so no span changes.

    The map is built from the integer letter den * a, den the lcm of a's
    denominators.  T maps each degree to itself, so column s of that map is
    den^|s| times column s of a's map, whose denominators divide den^|s|
    over the gcd of den^|s| and the column; clearing their lcm m gives each
    entry c as c * m / den^|s|, without a `Fraction`."""
    basis = monomial_basis(mp.dim * mp.dim, degree)
    out = {}
    for a in mp.alphabet:
        rows = mp.phi[a].entries
        den = lcm(*(x.denominator for row in rows for x in row))
        cols = letter_map(
            [[x.numerator * (den // x.denominator) for x in row] for row in rows], degree
        )
        scales = [den ** sum(mono) for mono in basis]
        m = lcm(*(g // gcd(g, *cs) for g, (_, cs) in zip(scales, cols)))
        out[a] = [(ts, tuple(c * m // g for c in cs)) for g, (ts, cs) in zip(scales, cols)]
    return out


def _vanishing_from_rows(dim: int, degree: int, rows: Sequence[Sequence]) -> PolySpace:
    n = comb(dim * dim + degree, degree)
    if not rows:
        return PolySpace.full(dim, degree)
    ker = kernel_basis(rows)
    return PolySpace(dim, degree, Subspace(n, tuple(ker)))


def _check_budget(states: int, vdim: int, caps: Caps, what: str) -> None:
    if vdim > caps.veronese:
        raise InfeasibleError(
            f"{what}: Veronese dimension {vdim} exceeds the cap {caps.veronese}"
        )
    if states > caps.states:
        raise InfeasibleError(
            f"{what}: {states} states exceed the cap {caps.states}"
        )
    if states * vdim > caps.budget:
        raise InfeasibleError(
            f"{what}: states x Veronese = {states}x{vdim} exceeds the budget "
            f"{caps.budget}; set eta_override (result is then oracle-checked) "
            "or raise the budget cap"
        )


# ---------------------------------------------------------------------------
# The worklist fixpoint


# Per state, its moves (step, weight, target): step maps a sparse row to its
# dense image.
Moves = dict[object, list[tuple[Callable, int, object]]]


def _fixpoint(
    queue: deque, moves: Moves, accepting: Collection, exact: bool, lo: int, hi: int,
    state: tuple[dict, Span | None, dict | None],
) -> None:
    """Grow `state` (span per configuration (q, c), accepted span, refused
    pushes by target counter) to the least fixpoint of the pushes ((q, c), v)
    in `queue`, dense vectors popped first in, first out.  When v grows its
    configuration's span, the row the span stored goes into the accepted
    span when q is accepting (and c is 0 if `exact`), and is pushed along
    each move of q whose counter stays in [lo, hi]; a push that leaves the
    range is parked, unmapped, in `refused` (if kept) when a wider range can
    admit it: ranges grow upwards, and downwards too when they reach below
    0.  Budgets are the callers' to check.

    The row is v's primitive residual against the configuration's earlier
    rows: a multiple of v minus a multiple of it lies in their span, and
    each of them has already been accepted, pushed along every admitted move
    and parked on every refused one.  So pushing the row instead of v leaves
    every span as it was, and the row is zero at the earlier rows' pivots,
    so the maps visit fewer coordinates."""
    spans, accepted, refused = state
    while queue:
        (q, c), v = queue.popleft()
        span = spans.get((q, c))
        if span is None:
            span = spans[(q, c)] = Span(len(v))
        if not span.insert(v):
            continue
        row = span.rows[-1]
        if q in accepting and not (exact and c):
            accepted.insert(dense(row, span.n))
        for step, w, q2 in moves[q]:
            c2 = c + w
            if lo <= c2 <= hi:
                queue.append(((q2, c2), step(row)))
            elif refused is not None and (c2 > hi or lo < 0):
                refused.setdefault(c2, []).append((q2, row, step))


def _moves(nfa: Nfa, steps: dict[str, Callable], weights: dict[str, int]) -> Moves:
    """Per state, a move for each of its transitions: the letter's step and
    weight, and the target."""
    moves: Moves = {q: [] for q in nfa.states}
    for (q, a, q2) in sorted(nfa.transitions, key=str):
        moves[q].append((steps[a], weights[a], q2))
    return moves


def _stage(
    mp: MorphismPair, degree: int, caps: Caps, states: int, what: str
) -> tuple[Span, dict[str, Callable], list[int]]:
    """After a stage's budget check: its empty accepted span, each letter's
    step (`apply_map` with its integer map) and the seed nu_D(I)."""
    n = comb(mp.dim * mp.dim + degree, degree)
    _check_budget(states, n, caps, what)
    steps = {a: partial(apply_map, cols) for a, cols in _integer_maps(mp, degree).items()}
    return Span(n), steps, _cleared(veronese(Matrix.identity(mp.dim), degree))


def _nfa_span_rows(nfa: Nfa, mp: MorphismPair, degree: int, caps: Caps) -> list[list[int]]:
    """Integer rows spanning the evaluations over the accepted language: the
    fixpoint over the automaton's states, every move of weight 0."""
    if set(nfa.alphabet) != set(mp.alphabet):
        raise PreconditionError("regular closure: automaton and morphism alphabets differ")
    accepted, steps, seed = _stage(mp, degree, caps, len(nfa.states), "regular closure")
    queue = deque(((q, 0), seed) for q in nfa.states if q in nfa.initial)
    moves = _moves(nfa, steps, dict.fromkeys(mp.alphabet, 0))
    _fixpoint(queue, moves, nfa.accepting, False, 0, 0, ({}, accepted, None))
    return accepted.dense_rows()


def regular_closure(
    nfa: Nfa, mp: MorphismPair, degree: int, caps: Caps = DEFAULT_CAPS
) -> PolySpace:
    """Exactly {p : deg p <= degree, p(phi(w)) = 0 for all w in L(nfa)}."""
    return _vanishing_from_rows(mp.dim, degree, _nfa_span_rows(nfa, mp, degree, caps))


def _threshold_rows(mp: MorphismPair, degree: int, caps: Caps, mode: str) -> list[list[int]]:
    """Integer rows spanning the evaluations over the cover or bounded-zero
    ("bz") language at mp.eta: the universal automaton on the counters of
    the bz window (`lang.bounds`), or on [0, eta - 1], whose pushes past
    eta - 1 are parked and then seed one absorbing top configuration (the
    cover automaton's inf) where every letter has weight 0."""
    eta, cover = mp.eta, mode == "cover"
    lo, hi, exact = (0, eta - 1, False) if cover else bounds(mode, eta)
    what = ("cover pipeline (cover-automaton stage)" if cover
            else "zero pipeline (bounded-zero stage)")
    accepted, steps, seed = _stage(mp, degree, caps, hi - lo + 1 + cover, what)
    sigma = Nfa.universal(mp.alphabet)
    parked = {} if cover else None
    _fixpoint(deque([(("*", 0), seed)]), _moves(sigma, steps, mp.omega), sigma.accepting,
              exact, lo, hi, ({}, accepted, parked))
    if cover:
        top = deque((("*", eta), step(row)) for _, row, step in parked.get(eta, ()))
        _fixpoint(top, _moves(sigma, steps, dict.fromkeys(mp.alphabet, 0)), sigma.accepting,
                  False, eta, eta, ({}, accepted, None))
    return accepted.dense_rows()


def finite_vanishing_space(
    points: list[Matrix], degree: int, dim: int | None = None
) -> PolySpace:
    """Exact kernel of the evaluation matrix over the given points.  This is
    the oracle kernel: rows are direct monomial evaluations, independent of
    the fixpoint's transition maps.  An empty point set vanishes vacuously
    (full space); it needs the ambient dimension passed explicitly."""
    if not points:
        if dim is None:
            raise PreconditionError(
                "finite_vanishing_space of an empty set needs dim="
            )
        return PolySpace.full(dim, degree)
    d = points[0].rows
    if dim is not None and dim != d:
        raise DimensionError("dim= does not match the points")
    for p in points:
        if not (p.is_square and p.rows == d):
            raise DimensionError("points of mixed dimensions")
    rows = [veronese(p, degree) for p in points]
    return _vanishing_from_rows(d, degree, rows)


# ---------------------------------------------------------------------------
# Bounded-counter saturation


def _window_rows(
    mode: str, nfa: Nfa, moves: Moves, bound: int, caps: Caps,
    window: tuple[dict, Span, deque, dict],
) -> int:
    """Grow `window` (span per (state, counter), accepted span, worklist,
    refused pushes by target counter) to the least fixpoint over the words of
    the mode's window (`lang.bounds`) cut to [-bound, bound].  Windows nest,
    and each accepted vector was pushed along every admitted move and parked,
    unmapped, on every refused one; so replaying the parked pushes now
    admitted gives the fixpoint a cold start builds.  Returns the accepted
    dimension."""
    spans, accepted, queue, refused = window
    lo, _, exact = bounds(mode, bound)
    lo = max(lo, -bound)
    nstates = len(nfa.states) * (bound - lo + 1)
    _check_budget(nstates, accepted.n, caps, f"{mode} saturation at counter bound {bound}")
    for c in [c for c in refused if lo <= c <= bound]:
        queue.extend(((q, c), step(row)) for q, row, step in refused.pop(c))
    _fixpoint(queue, moves, nfa.accepting, exact, lo, bound, (spans, accepted, refused))
    return accepted.dim


def _stable(history: list[int], window: int) -> bool:
    """The last `window` + 1 entries of `history` are equal."""
    return len(history) > window and len(set(history[-window - 1:])) == 1


def counter_saturation(
    mp: MorphismPair,
    degree: int,
    mode: str,
    nfa: Nfa | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> tuple[PolySpace, int]:
    """Grow the prefix-weight window over the paths of `nfa` (default: every
    word), warm-starting one fixpoint from bound to bound (`_window_rows`),
    until the space is unchanged for caps.window consecutive bounds; returns
    (space, final bound).  The accepted spans nest, so unchanged means the
    same dimension; the RREF and the vanishing space are computed once, at
    the returned bound."""
    if mode not in ("cover", "reach", "zero"):
        raise PreconditionError(f"unknown saturation mode {mode!r}")
    nfa = nfa or Nfa.universal(mp.alphabet)
    accepted, steps, seed = _stage(mp, degree, caps, len(nfa.states), f"{mode} saturation")
    moves = _moves(nfa, steps, mp.omega)
    window = ({}, accepted, deque(((q, 0), seed) for q in nfa.states if q in nfa.initial), {})
    history: list[int] = []
    for bound in range(2, caps.counter + 1):
        history.append(_window_rows(mode, nfa, moves, bound, caps, window))
        if _stable(history, caps.window):
            return _vanishing_from_rows(mp.dim, degree, accepted.dense_rows()), bound
    raise InfeasibleError(
        f"{mode} saturation did not stabilize within counter bound "
        f"{caps.counter}; raise the counter cap"
    )


# ---------------------------------------------------------------------------
# Brute-force oracle


@dataclass(frozen=True)
class OracleResult:
    space: PolySpace
    stabilized: bool
    max_len: int
    words_used: int


# The words of one length with their images phi(w) = N / s: N the d x d
# integer matrix flattened row-major, s > 0 one common denominator.
Length = list[tuple[Word, list[int], int]]


def word_frontier(mp: MorphismPair, predicate: str, nfa: Nfa | None = None) -> Iterator[Length]:
    """For n = 0, 1, 2, ...: the words of length n in the language, in
    letter-index order, each with its image.

    The language is the paths of `nfa` (default: every word; it must be
    deterministic and may be partial) whose prefix weights stay in the
    predicate's window (`lang.bounds`).  A node is a prefix with its
    automaton state and counter.  It waits in the bucket of the earliest
    length at which it can complete (depth + |counter| when the total weight
    must be 0, else its depth), and bucket n is expanded only when length n
    is asked for.  A node's image is one integer product of its parent's
    image with the letter's denominator-cleared matrix, made when the node
    is expanded.  States from which no accepting state is reachable are
    never entered.  The predicate and the automaton are checked when the
    frontier is made, before any length is asked for.
    """
    bounds(predicate, mp.eta)  # refuses an unknown predicate
    nfa = nfa or Nfa.universal(mp.alphabet)
    if not nfa.is_deterministic():
        raise PreconditionError("the oracle's automaton must be deterministic")
    return _frontier(mp, predicate, nfa)


def _frontier(mp: MorphismPair, predicate: str, nfa: Nfa) -> Iterator[Length]:
    """`word_frontier`'s generator, over a checked predicate and automaton."""
    lo, hi, exact = bounds(predicate, mp.eta)
    d = mp.dim
    letters = []  # per letter: the columns of its cleared matrix, the divisor
    for a in mp.alphabet:
        flat = mp.phi[a].flat()
        t = lcm(*(x.denominator for x in flat))
        cleared = [x.numerator * (t // x.denominator) for x in flat]
        letters.append(([cleared[j::d] for j in range(d)], t))
    delta = nfa.delta()
    live = set(nfa.accepting)
    while grown := {q for (q, _), q2 in delta.items() if q2 in live} - live:
        live |= grown
    moves = {
        q: [
            (i, mp.omega[a], delta[(q, a)])
            for i, a in enumerate(mp.alphabet)
            if delta.get((q, a)) in live
        ]
        for q in nfa.states
    }
    # a node: (letter indices, state, counter, parent's N, parent's s)
    identity = [int(i == j) for i in range(d) for j in range(d)]
    (initial,) = nfa.initial
    buckets = {0: [((), initial, 0, identity, 1)]}
    for ln in itertools.count():
        found = []
        bucket = buckets.setdefault(ln, [])
        while bucket:  # nodes that can still complete at ln join it
            word, q, c, n, s = bucket.pop()
            if word:
                cols, t = letters[word[-1]]
                rows = [n[r:r + d] for r in range(0, d * d, d)]
                n = [sum(map(mul, row, col)) for row in rows for col in cols]
                s *= t
                g = gcd(s, *n)
                if g != 1:
                    n = [x // g for x in n]
                    s //= g
            if len(word) == ln and q in nfa.accepting:  # counter 0 if exact
                found.append((word, n, s))
            for i, w, q2 in moves[q]:
                if lo <= c + w <= hi:
                    e = len(word) + 1 + (abs(c + w) if exact else 0)
                    buckets.setdefault(e, []).append((word + (i,), q2, c + w, n, s))
        del buckets[ln]
        found.sort()  # by the letter indices, which differ between words
        yield [(tuple(mp.alphabet[i] for i in word), n, s) for word, n, s in found]


def _oracle_over_words(
    mp_dim: int,
    degree: int,
    lengths: Iterator[Length],
    max_len: int,
    caps: Caps,
    extend_to: int | None = None,
    raise_on_cap: bool = True,
) -> OracleResult:
    """Enumerate to max_len; when extend_to is set, keep going past max_len
    until the stabilization window is met (sparse languages can skip several
    lengths between words).  Without raise_on_cap, hitting the word budget
    stops gracefully at the achieved length.  A word's point is its integer
    Veronese vector N^mono * s^(D - |mono|), s^D times nu_D(N / s)."""
    n = comb(mp_dim * mp_dim + degree, degree)
    _check_budget(0, n, caps, "oracle")  # no states: only the Veronese cap applies
    evaluate = _monomial_evaluator(mp_dim * mp_dim, degree)
    span = Span(n)
    # span dimension after each length that contributed at least one word;
    # empty lengths carry no information (sparse languages skip lengths)
    history: list[int] = []
    used = 0
    achieved = 0
    limit = max(max_len, extend_to or 0)

    def window_stable() -> bool:
        return span.dim == n or _stable(history, caps.window)

    capped = False
    for ln in range(limit + 1):
        try:
            count = 0
            for _, image, s in next(lengths):
                used += 1
                if used > caps.oracle_words:
                    raise InfeasibleError(
                        f"oracle exceeded the word cap {caps.oracle_words}"
                    )
                count += 1
                span.insert(evaluate(image, s))
        except InfeasibleError:
            if raise_on_cap:
                raise
            capped = True
        achieved = ln
        if count:
            history.append(span.dim)
        if capped or (ln >= max_len and (extend_to is None or window_stable())):
            break
    space = _vanishing_from_rows(mp_dim, degree, span.dense_rows())
    return OracleResult(space, window_stable() and not capped, achieved, used)


def oracle_closure(
    mp: MorphismPair,
    predicate: str,
    degree: int,
    max_len: int,
    caps: Caps = DEFAULT_CAPS,
    nfa: Nfa | None = None,
) -> OracleResult:
    """finite_vanishing_space over the words of the language named by the
    predicate and read by the deterministic `nfa` (default: every word),
    `word_frontier(mp, predicate, nfa)`, up to max_len; reports whether the
    space was identical over the last `window` length increments."""
    return _oracle_over_words(
        mp.dim, degree, word_frontier(mp, predicate, nfa), max_len, caps
    )


# ---------------------------------------------------------------------------
# The gamma (product-alphabet) stage of the zero pipeline


def _tensor_index(n: int, idx: tuple[int, int, int, int]) -> int:
    return ((idx[0] * n + idx[1]) * n + idx[2]) * n + idx[3]


def _tensor_apply(cols: Columns, f: int, row: Row, n: int) -> list[int]:
    """The map `cols` applied to factor f of a tensor of four n-vectors,
    (I x .. x T x .. x I) v for the sparse row v, dense; like `apply_map`,
    only v's support is visited.  Factor f of the flat index k is
    k // stride % n, and T moves k by stride per step of that factor."""
    out = [0] * n ** 4
    stride = n ** (3 - f)  # distance between consecutive values of factor f
    for k, x in zip(*row):
        s = k // stride % n
        ts, cs = cols[s]
        base = k - s * stride
        for t, c in zip(ts, cs):
            out[base + t * stride] += c * x
    return out


def _mu_pullback_rows(d: int, degree: int) -> list[dict[int, int]]:
    """Row t = coefficients of (basis monomial t) composed with the
    four-block product map, over the nu_D tensor coordinates.  The entries
    of factor f are the variables f * d^2 + (i * d + j); the forms have unit
    coefficients, so every coefficient is an integer."""
    nvars = d * d
    index = basis_index(nvars, degree)
    n = len(index)
    # entry (i, j) of X1 X2 X3 X4: the sum over a, b, c of x1_ia x2_ab x3_bc x4_cj
    forms = []
    for i in range(d):
        for j in range(d):
            p = {}
            for a, b, c in itertools.product(range(d), repeat=3):
                key = [0] * (4 * nvars)
                for f, var in enumerate((i * d + a, a * d + b, b * d + c, c * d + j)):
                    key[f * nvars + var] = 1
                p[tuple(key)] = 1
            forms.append(p)
    return [
        {
            _tensor_index(n, tuple(index[k[f * nvars:(f + 1) * nvars]] for f in range(4))): c
            for k, c in p.items()
        }
        for p in substitution_rows(forms, degree, 4 * nvars)
    ]


def _gamma_condition_rows(
    mp: MorphismPair, degree: int, caps: Caps
) -> list[tuple[int, ...]]:
    """Integer linear conditions on p (degree <= D) saying p vanishes on the
    image of the flattened product-automaton language.

    The automaton (`automata.build_zero_automaton`) reads the letters of
    Gamma, 4-tuples over epsilon + Sigma, on counters in [-2 eta, 2 eta].
    A letter's tensor map is the product of its single-track maps
    I x .. x T_x x .. x I, which commute (the mixed-product property), and
    its weight is their weights' sum; taking each +1 track next to a -1
    track, the one away from the nearer bound first, keeps the counter in
    range.  So the 4|Sigma| single-track letters reach the same span at
    every counter as all of Gamma, and `_fixpoint`, on one state, pushes
    only along them; the conditions come from the span at counter 0.
    """
    d = mp.dim
    n = comb(d * d + degree, degree)
    eta = mp.eta
    _check_budget(4 * eta + 1, n ** 4, caps, "zero pipeline (product-alphabet stage)")
    maps = _integer_maps(mp, degree)
    moves = {"*": [(partial(_tensor_apply, maps[a], f, n=n), mp.omega[a], "*")
                   for a in mp.alphabet for f in range(4)]}
    seed_v = _cleared(veronese(Matrix.identity(d), degree))
    # the tensor coordinates in `_tensor_index` order
    seed = [a * b * c * e for a, b, c, e in itertools.product(seed_v, repeat=4)]
    spans: dict = {}
    _fixpoint(deque([(("*", 0), seed)]), moves, (), True, -2 * eta, 2 * eta, (spans, None, None))
    mu_rows = _mu_pullback_rows(d, degree)
    return [
        tuple(sum(c * s[idx] for idx, c in row.items()) for row in mu_rows)
        for s in spans[("*", 0)].dense_rows()
    ]


# ---------------------------------------------------------------------------
# Pipelines


@dataclass
class PipelineResult:
    space: PolySpace
    mode: str
    eta_used: int
    method: str
    oracle_checked: bool = False
    oracle_max_len: int | None = None
    oracle_stabilized: bool | None = None
    counter_bound: int | None = None


def run_saturation(
    mp: MorphismPair,
    mode: str,
    degree: int,
    caps: Caps,
    nfa: Nfa | None = None,
    mode_name: str | None = None,
) -> PipelineResult:
    """`counter_saturation`, cross-checked against the brute-force oracle
    over the same language (`word_frontier(mp, mode, nfa)`); on disagreement
    the result is withheld.  The frontier is made first, so an automaton
    the oracle cannot read is refused before the saturation runs."""
    lengths = word_frontier(mp, mode, nfa)
    space, bound = counter_saturation(mp, degree, mode, nfa, caps)
    oracle = _oracle_over_words(
        mp.dim,
        degree,
        lengths,
        caps.oracle_len,
        caps,
        extend_to=caps.oracle_extend,
        raise_on_cap=False,
    )
    name = mode_name or mode
    if oracle.space != space:
        raise OracleDisagreementError(
            f"{name} pipeline at eta={mp.eta} disagrees with "
            f"the oracle at enumeration length {oracle.max_len} "
            f"(oracle {'stabilized' if oracle.stabilized else 'NOT stabilized'}); "
            "result withheld"
        )
    return PipelineResult(
        space, name, mp.eta, "saturation+oracle", oracle_checked=True,
        oracle_max_len=oracle.max_len, oracle_stabilized=oracle.stabilized,
        counter_bound=bound,
    )


def run_cover(
    mp: MorphismPair, degree: int, caps: Caps = DEFAULT_CAPS
) -> PipelineResult:
    if not mp.eta_is_default:
        return run_saturation(mp, "cover", degree, caps)
    space = _vanishing_from_rows(mp.dim, degree, _threshold_rows(mp, degree, caps, "cover"))
    return PipelineResult(space, "cover", mp.eta, "cover-automaton")


def run_zero(
    mp: MorphismPair, degree: int, caps: Caps = DEFAULT_CAPS
) -> PipelineResult:
    if not mp.eta_is_default:
        return run_saturation(mp, "zero", degree, caps)
    rows = _threshold_rows(mp, degree, caps, "bz") + _gamma_condition_rows(mp, degree, caps)
    return PipelineResult(
        _vanishing_from_rows(mp.dim, degree, rows), "zero", mp.eta, "bz+flat"
    )


def _reach_default_cost(mp: MorphismPair, degree: int) -> str:
    # determinized reach automaton is O(eta) states; blockified dimension and
    # the flat-stage tensor dimension follow
    eta = mp.eta
    k = 2 * eta + 3
    lifted = k * (mp.dim + 1)
    tensor = comb(lifted * lifted + degree, degree) ** 4
    return (
        f"reach at default eta={eta} blockifies a ~{k}-state automaton into "
        f"dimension {lifted}; the zero-closure flat stage then needs ~10^"
        f"{len(str(tensor)) - 1} Veronese coordinates"
    )


def run_reach(
    mp: MorphismPair, degree: int, caps: Caps = DEFAULT_CAPS
) -> PipelineResult:
    if mp.eta_is_default:
        raise InfeasibleError(
            _reach_default_cost(mp, degree)
            + "; not desk-feasible, set eta_override (the result is then "
            "cross-checked against the brute-force oracle)"
        )
    return run_saturation(mp, "reach", degree, caps)


# ---------------------------------------------------------------------------
# The non-stabilizing chain of finite sets (regression corpus)


def monoid_closure(seed: list[Matrix], cap: int = 512) -> frozenset[Matrix]:
    d = seed[0].rows
    out = set(seed) | {Matrix.identity(d)}
    frontier = list(out)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(out):
                for prod in (a * b, b * a):
                    if prod not in out:
                        out.add(prod)
                        nxt.append(prod)
                        if len(out) > cap:
                            raise InfeasibleError("monoid closure exceeded the cap")
        frontier = nxt
    return frozenset(out)


def recurrence_chain(steps: int) -> list[frozenset[Matrix]]:
    """S_0 = closure{0, N}; S_{i+1} = closure(S_i + alpha S_i beta).  The sets
    grow strictly forever; finite saturation cannot compute the closure."""
    zero = Matrix.zeros(2)
    nil = Matrix([[0, 1], [0, 0]])
    alpha = Matrix([[2, 0], [0, 1]])
    beta = Matrix([[Fraction(1, 2), 0], [0, 1]])
    chain = [monoid_closure([zero, nil])]
    for _ in range(steps):
        prev = chain[-1]
        seed = list(prev) + [alpha * x * beta for x in prev]
        chain.append(monoid_closure(seed))
    return chain
