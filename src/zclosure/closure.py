"""Degree-bounded vanishing-ideal engine and the end-to-end pipelines.

The engine tracks, per automaton state, the span of Veronese coordinate
vectors nu_D(phi(w)) (all monomial evaluations of total degree <= D).  Right
multiplication by a fixed letter matrix acts linearly on these coordinates,
so a worklist fixpoint over a finite automaton computes the exact span of the
accepted language; the vanishing space is its orthogonal complement.

One worklist, `_fixpoint`, runs every such fixpoint over configurations
(state, counter) on a stage's one `Run`; each call first replays the pushes
that earlier calls parked outside their counter range and its own admits.
An automaton stage gets its run, seeded with nu_D(I), from `_stage` and its
moves from `_moves`, with a weight per letter: the regular fixpoint
(`_nfa_span_rows`: an NFA, weight 0), the default-threshold cover stage
(`_threshold_rows`: fixed counters) and the saturation windows
(`_window_rows`: growing counters).  The zero pipeline's product-alphabet
stage (`_gamma_condition_rows`) pushes the tensor steps of Gamma's
single-track letters on one state; their commuting maps compose to every
Gamma letter's.

Exact shortcuts end these stages early.  Every word's evaluation lies in
U, the span over all words (`_all_words_dim`; its annihilator is the
degree-<= D part of the ideal of the closure of the monoid phi(Sigma*)), so
the regular and cover stages return once their accepted span reaches dim U,
each after its budget check, and once a saturation window reaches it every
later window is U and runs no fixpoint (U is computed after the bound-2
window's budget check).  The gamma stage has no such exit.  It runs on the
diagonal degree blocks: letter maps keep each monomial degree and the
product pullback reads only tensors whose four factors have one degree, so
it starts from the seed's projection onto those blocks.

A span does not change when a vector is scaled, so every fixpoint and the
oracle run on integer vectors: each letter map is built from the integer
letter and cleared of denominators once (scaling every path image by a
nonzero constant), and `Span` keeps primitive integer rows by fraction-free
elimination, each only as its support and the values there.  The worklist
pushes the row a span stored, the pushed vector's residual against the
configuration's earlier rows, which is zero at their pivots, and maps a push
only when it pops it, so a pending push holds that row and its step, not
an image, and the pushes left when a stage stops at dim U are never
mapped.  The letter
maps are kept by columns (`Columns`), so `apply_map` and `_tensor_apply`
map a stored row by visiting only its support, into a dense image for the
next insert.  Each stage hands its accepted span to `kernel_basis`, which
reads the annihilator off one elimination of the rows; `Fraction` appears
only in that read-off's division by the pivots.  Worklists are first in,
first out: the spans are least fixpoints in any order, but short words
first keep the integers small.

The oracle shares only `Span` with the fixpoints.  It reads a language as a
predicate name (`lang.bounds`) plus a deterministic automaton.  Its words
come from one lazy frontier over (automaton state, counter)
(`word_frontier`), which meets in the middle: a word is a prefix of half its
length and a suffix from a table.  Its code is one integer (the letter
indices as base-|Sigma| digits), and its image an integer matrix N over one
denominator s, one direct product of the halves' images, each of which is
one product of a letter with a shorter half.  A word's point is N^mono *
s^(D - |mono|); letter names are never built.  A monoid with relations maps
many words to one matrix, and a span sees only the point, so the oracle
inserts each distinct (s, N) of a length once; the words still count
towards the word cap and `words_used`.

Pipeline policy, coded once in `pipeline` for every mode of `MODES`.  A
regular instance runs its NFA's fixpoint.  At the default threshold eta the
constructions carry the theorem-level guarantee: cover runs the
cover-automaton reduction and zero the product-alphabet stage, on counters.
The paper's zero closure is the bounded-zero words together with the
flattened product-alphabet language; the second contains the first, so one
stage gives both.  `automata` builds these automata only for `closure
automaton` and the tests.  Reach needs the lifted reduction, whose flat
stage is astronomically large at the default threshold, and so does a 1-VASS
at its lifted threshold; both refuse.  Every eta-overridden pipeline (cover,
zero, reach, and 1-VASS cover/reach under the DFA of its transitions) runs
`run_saturation`: bounded-counter saturation - the space over words whose
prefix weights stay in a window is monotone in the window and its limit is
the exact target - stopping when the space is unchanged for `window`
consecutive bounds, then the brute-force oracle over the same language, and
no answer on disagreement.  The windows nest, so one fixpoint is
warm-started from bound to bound: the worklist parks each push that leaves
the window, a bound replays only the parked pushes it newly admits, and the
space is unchanged when its dimension is.

Each substitution map - a letter's action on nu_D, the product pullback of
the gamma stage, the block reduction's pullback - is the monomial basis
composed with a list of polynomials, `polys.substitution_rows`.
"""
from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction
from functools import partial
from math import comb, gcd, lcm, lgamma, log, log10
from operator import mul
from typing import Callable, Collection, Iterator, NamedTuple, Sequence

from .automata import Nfa
from .errors import (
    DimensionError,
    InfeasibleError,
    InternalInvariantError,
    OracleDisagreementError,
    PreconditionError,
    figure,
)
from .exactlin import (
    Matrix, Row, Span, Subspace, Vector, _cleared, dense, kernel_basis, span_of, vec,
)
from .lang import MorphismPair, bounds
from .polys import PolySpace, basis_index, monomial_basis, monomial_steps, substitution_rows


class Caps(NamedTuple):
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
    """Each letter's map on s^D * nu_D(N / s), the coordinates of the
    oracle's points: the map of the integer letter den * a, den the lcm of
    a's denominators, with row t times den^(D - |t|).  That is den^D times
    a's map, so every image is scaled by one nonzero constant and no span
    changes."""
    basis = monomial_basis(mp.dim * mp.dim, degree)
    out = {}
    for a in mp.alphabet:
        rows = mp.phi[a].entries
        den = lcm(*(x.denominator for row in rows for x in row))
        cols = letter_map(
            [[x.numerator * (den // x.denominator) for x in row] for row in rows], degree
        )
        scales = [den ** (degree - sum(mono)) for mono in basis]
        out[a] = [(ts, tuple(c * scales[t] for t, c in zip(ts, cs))) for ts, cs in cols]
    return out


def _vanishing(dim: int, degree: int, span: Span) -> PolySpace:
    """The polynomials vanishing on the span of evaluation vectors."""
    return PolySpace(dim, degree, Subspace(span.n, tuple(kernel_basis(span))))


def _check_budget(
    states: int, vdim: int, caps: Caps, what: str, default_eta: bool = False
) -> None:
    """Refuse a stage past a cap, naming the stage and the first cap it
    exceeds.  Only a default-threshold stage (`default_eta`) also points at
    eta_override: the saturation windows, the oracle and the regular closure
    do not depend on the threshold."""
    if vdim > caps.veronese:
        cap, excess = "veronese", f"Veronese dimension {figure(vdim)} exceeds the cap"
    elif states > caps.states:
        cap, excess = "states", f"{figure(states)} states exceed the cap"
    elif states * vdim > caps.budget:
        excess = f"states x Veronese = {figure(states)}x{figure(vdim)} exceeds the budget"
        cap = "budget"
    else:
        return
    remedy = "set eta_override (result is then oracle-checked) or " if default_eta else ""
    raise InfeasibleError(f"{what}: {excess} {getattr(caps, cap)}; {remedy}raise the {cap} cap")


# ---------------------------------------------------------------------------
# The worklist fixpoint


# Per state, its moves (step, weight, target): step maps a sparse row to its
# dense image.
Moves = dict[object, list[tuple[Callable, int, object]]]

# A stage's run (`_fixpoint`): spans, accepted span, worklist, parked pushes.
Run = tuple[dict, Span, deque, dict]


def _fixpoint(
    run: Run, moves: Moves, accepting: Collection, exact: bool, lo: int, hi: int,
    target: int | None = None,
) -> None:
    """Grow `run` (span per configuration (q, c), accepted span, worklist of
    pushes ((q, c), step, row), parked pushes (q, row, step) by target
    counter) to the least fixpoint on the counters [lo, hi]: first the parked
    pushes in [lo, hi] are queued, then the worklist is popped first in,
    first out.  A push is mapped only when it is popped, v = step(row) (a
    seed is a dense row with the step `list`), so a pending push holds a
    reference to a stored row, not a dense image, and the pushes still
    queued when a call returns at its target are never mapped.  When v grows
    its configuration's span, the row the span stored goes into the accepted
    span when q is accepting (and c is 0 if `exact`), and is pushed along
    each move of q whose counter stays in [lo, hi]; a push that leaves the
    range is parked when a wider range can admit it: ranges grow upwards,
    and downwards too when they reach below 0.  Budgets are the callers' to
    check.

    With a `target`, the dimension of a span known to contain every accepted
    span the run can reach (`_all_words_dim`), the call returns as soon as
    the accepted span reaches it: the accepted span is then that span, and
    the rest of the run is left as it stands.

    The row is v's primitive residual against the configuration's earlier
    rows: a multiple of v minus a multiple of it lies in their span, and
    each of them has already been accepted, pushed along every admitted move
    and parked on every refused one.  So pushing the row instead of v leaves
    every span as it was, and the row is zero at the earlier rows' pivots,
    so the maps visit fewer coordinates."""
    spans, accepted, queue, parked = run
    for c in [c for c in parked if lo <= c <= hi]:
        queue.extend(((q, c), step, row) for q, row, step in parked.pop(c))
    while queue:
        (q, c), step, row = queue.popleft()
        v = step(row)
        span = spans.get((q, c))
        if span is None:
            span = spans[(q, c)] = Span(len(v))
        if not span.insert(v):
            continue
        row = span.rows[-1]
        if q in accepting and not (exact and c):
            accepted.insert(dense(row, span.n))
            if accepted.dim == target:
                return
        for step, w, q2 in moves[q]:
            c2 = c + w
            if lo <= c2 <= hi:
                queue.append(((q2, c2), step, row))
            elif c2 > hi or lo < 0:
                parked.setdefault(c2, []).append((q2, row, step))


def _moves(nfa: Nfa, steps: dict[str, Callable], weights: dict[str, int]) -> Moves:
    """Per state, a move for each of its transitions: the letter's step and
    weight, and the target."""
    moves: Moves = {q: [] for q in nfa.states}
    for (q, a, q2) in sorted(nfa.transitions, key=str):
        moves[q].append((steps[a], weights[a], q2))
    return moves


def _stage(
    mp: MorphismPair, degree: int, caps: Caps, nfa: Nfa, states: int, what: str,
    default_eta: bool = False,
) -> tuple[dict[str, Callable], Run, Callable[[], int]]:
    """After a stage's budget check: each letter's step (`apply_map` with its
    integer map), its run, seeded with nu_D(I) at `nfa`'s initial states,
    and a call that computes the dimension of U in the same coordinates
    (`_all_words_dim`), for the stage to make once its own checks pass."""
    n = comb(mp.dim * mp.dim + degree, degree)
    _check_budget(states, n, caps, what, default_eta)
    steps = {a: partial(apply_map, cols) for a, cols in _integer_maps(mp, degree).items()}
    seed = _cleared(veronese(Matrix.identity(mp.dim), degree))
    run = ({}, Span(n), deque(((q, 0), list, seed) for q in nfa.states if q in nfa.initial), {})
    return steps, run, partial(_all_words_dim, steps, seed)


def _all_words_dim(steps: dict[str, Callable], seed: list[int]) -> int:
    """The dimension of U, the span of the evaluations over every word: the
    accepted span of `Nfa.universal`, from `seed` under `steps`.  Every
    language's span lies in U, and U's annihilator is the degree-<= D part
    of the ideal of the closure of the monoid phi(Sigma*), so a stage whose
    accepted span reaches dim U has its answer."""
    sigma = Nfa.universal(steps)
    run = ({}, Span(len(seed)), deque([(("*", 0), list, seed)]), {})
    _fixpoint(run, _moves(sigma, steps, dict.fromkeys(steps, 0)), sigma.accepting, False, 0, 0)
    return run[1].dim


def _nfa_span_rows(nfa: Nfa, mp: MorphismPair, degree: int, caps: Caps) -> Span:
    """The span of the evaluations over the accepted language: the fixpoint
    over the automaton's states, every move of weight 0, which stops once
    the accepted span reaches dim U (`_all_words_dim`)."""
    if set(nfa.alphabet) != set(mp.alphabet):
        raise PreconditionError("regular closure: automaton and morphism alphabets differ")
    steps, run, dim_u = _stage(mp, degree, caps, nfa, len(nfa.states), "regular closure")
    _fixpoint(run, _moves(nfa, steps, dict.fromkeys(mp.alphabet, 0)), nfa.accepting,
              False, 0, 0, dim_u())
    return run[1]


def regular_closure(
    nfa: Nfa, mp: MorphismPair, degree: int, caps: Caps = DEFAULT_CAPS
) -> PolySpace:
    """Exactly {p : deg p <= degree, p(phi(w)) = 0 for all w in L(nfa)}."""
    return _vanishing(mp.dim, degree, _nfa_span_rows(nfa, mp, degree, caps))


def _threshold_rows(mp: MorphismPair, degree: int, caps: Caps) -> Span:
    """The span of the evaluations over the cover language at mp.eta: the
    universal automaton on the counters [0, eta - 1], whose pushes past
    eta - 1 are parked; a second `_fixpoint` call on the same run replays
    them into one absorbing top configuration (the cover automaton's inf)
    on [eta, eta], where every letter has weight 0.  Either call stops once
    the accepted span reaches dim U (`_all_words_dim`), and the second is
    skipped when the first did: the cover language's span is then U.

    The zero pipeline needs no such stage for its bounded-zero words: each
    is a one-track word of the product-alphabet stage, whose counter window
    [-2 eta, 2 eta] contains the bounded-zero window [-eta, eta]
    (`_gamma_condition_rows`)."""
    eta = mp.eta
    sigma = Nfa.universal(mp.alphabet)
    steps, run, dim_u = _stage(mp, degree, caps, sigma, eta + 1,
                               "cover pipeline (cover-automaton stage)", default_eta=True)
    target = dim_u()
    _fixpoint(run, _moves(sigma, steps, mp.omega), sigma.accepting, False, 0, eta - 1, target)
    if run[1].dim != target:
        _fixpoint(run, _moves(sigma, steps, dict.fromkeys(mp.alphabet, 0)), sigma.accepting,
                  False, eta, eta, target)
    return run[1]


def finite_vanishing_space(
    points: list[Matrix], degree: int, dim: int | None = None
) -> PolySpace:
    """Exact kernel of the evaluation matrix over the given points.  This is
    the oracle kernel: rows are direct monomial evaluations, independent of
    the fixpoint's transition maps.  An empty point set vanishes vacuously
    (full space); it needs the ambient dimension passed explicitly."""
    if not points and dim is None:
        raise PreconditionError("finite_vanishing_space of an empty set needs dim=")
    d = points[0].rows if points else dim
    if dim is not None and dim != d:
        raise DimensionError("dim= does not match the points")
    for p in points:
        if not (p.is_square and p.rows == d):
            raise DimensionError("points of mixed dimensions")
    n = comb(d * d + degree, degree)
    return _vanishing(d, degree, span_of(n, (veronese(p, degree) for p in points)))


# ---------------------------------------------------------------------------
# Bounded-counter saturation


def _window_range(mode: str, nfa: Nfa, bound: int, caps: Caps, n: int) -> tuple[int, bool]:
    """After the budget check of the window at `bound`, on `n` coordinates:
    its lowest counter, the mode's (`lang.bounds`) cut to -bound, and
    whether an accepted word must end at counter 0."""
    lo, _, exact = bounds(mode, bound)
    lo = max(lo, -bound)
    _check_budget(len(nfa.states) * (bound - lo + 1), n, caps,
                  f"{mode} saturation at counter bound {bound}")
    return lo, exact


def _window_rows(
    mode: str, nfa: Nfa, moves: Moves, bound: int, caps: Caps, window: Run,
    target: int | None = None,
) -> int:
    """Grow the run `window` to the least fixpoint over the words of the
    mode's window (`lang.bounds`) cut to [-bound, bound]; windows nest, so
    `_fixpoint` replays the pushes the narrower windows parked and ends where
    a cold start does.  Returns the accepted dimension.

    With a `target`, dim U (`_all_words_dim`), the fixpoint returns once the
    accepted span reaches it, and a window whose accepted span already has
    it runs none: every window's span lies in U, so from there on each one
    is U.  The budget is checked either way."""
    accepted = window[1]
    lo, exact = _window_range(mode, nfa, bound, caps, accepted.n)
    if accepted.dim != target:
        _fixpoint(window, moves, nfa.accepting, exact, lo, bound, target)
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
    the returned bound.

    Every window's span lies in U, so once one reaches dim U every later
    window is U: each later bound still checks its budget and records dim U,
    but runs no fixpoint, and the stop bound, the history and the answer are
    what they would be without this exit.  U is computed once the bound-2
    window has passed its budget check, so a refused saturation costs no
    more than before."""
    if mode not in ("cover", "reach", "zero"):
        raise PreconditionError(f"unknown saturation mode {mode!r}")
    nfa = nfa or Nfa.universal(mp.alphabet)
    steps, window, dim_u = _stage(mp, degree, caps, nfa, len(nfa.states), f"{mode} saturation")
    moves = _moves(nfa, steps, mp.omega)
    history: list[int] = []
    for bound in range(2, caps.counter + 1):
        if bound == 2:  # U once the first window has passed its budget check
            _window_range(mode, nfa, bound, caps, window[1].n)
            target = dim_u()
        history.append(_window_rows(mode, nfa, moves, bound, caps, window, target))
        if _stable(history, caps.window):
            return _vanishing(mp.dim, degree, window[1]), bound
    raise InfeasibleError(
        f"{mode} saturation did not stabilize within counter bound "
        f"{caps.counter}; raise the counter cap"
    )


# ---------------------------------------------------------------------------
# Brute-force oracle


class OracleResult(NamedTuple):
    space: PolySpace
    stabilized: bool
    max_len: int
    words_used: int


# The words of one length n with their images phi(w) = N / s: each word as
# its code, the sum of i_j * |Sigma|^(n - 1 - j) over its letter indices i_j;
# N the d x d integer matrix flattened row-major, s > 0 one common denominator.
# A frontier yields one for each n <= its max_len, all of them, and then
# ends; the prefixes it never makes complete only past max_len.
Length = list[tuple[int, list[int], int]]


def word_frontier(
    mp: MorphismPair, predicate: str, nfa: Nfa | None, max_len: int
) -> Iterator[Length]:
    """For n = 0, 1, ..., max_len: the words of length n in the language,
    in letter-index order, each as its code (`Length`) with its image.

    The language is the paths of `nfa` (None: every word; it must be
    deterministic and may be partial) whose prefix weights stay in the
    predicate's window (`lang.bounds`).  A word of length n is one of a
    layer of prefixes of n // 2 letters, (code, state, counter, image),
    followed by one of the suffixes that a table lists for the prefix's
    state and counter and the h = n - n // 2 letters left: its code is
    pcode * |Sigma|^h + scode, its image one product of the halves' images,
    reduced by their gcd (N / s with gcd(s, N) = 1 is unique).  The layer
    and each entry are in code order, so a length comes out sorted.  A
    suffix is a letter times a shorter suffix, one object in all the entries
    made with it; counters whose window binds no suffix of a length
    differently share an entry.  The table is filled a length at a time, so
    no recursion grows with max_len, and states from which no accepting
    state is reachable are never entered.

    A length is built only when it is asked for, so nothing is made past the
    length a caller stops at.  A prefix that can complete only past max_len
    (depth + |counter| when the total weight must be 0) is never made, and
    the frontier ends after length max_len: reading past it is the end of the
    iterator, never an empty length.  The predicate, the automaton and
    max_len are checked when the frontier is made, before any length is asked
    for.
    """
    bounds(predicate, mp.eta)  # refuses an unknown predicate
    if max_len < 0:
        raise PreconditionError(f"the oracle's max_len must be >= 0, got {max_len}")
    nfa = nfa or Nfa.universal(mp.alphabet)
    if not nfa.is_deterministic():
        raise PreconditionError("the oracle's automaton must be deterministic")
    return _frontier(mp, predicate, nfa, max_len)


def _frontier(mp: MorphismPair, predicate: str, nfa: Nfa, last: int) -> Iterator[Length]:
    """`word_frontier`'s generator, over a checked predicate, automaton and
    last length.  A suffix is kept with its image already split into rows,
    so making a word splits only its prefix's image, once for all the
    suffixes it is followed by."""
    lo, hi, exact = bounds(predicate, mp.eta)
    d = mp.dim
    k = len(mp.alphabet)

    def split(x):  # the rows of a flat d x d matrix
        return [x[r:r + d] for r in range(0, d * d, d)]

    def product(rows, cols, s):  # over s, reduced to gcd(s, entries) = 1
        n = [sum(map(mul, row, col)) for row in rows for col in cols]
        g = gcd(s, *n) if s != 1 else 1
        return (n, s) if g == 1 else ([x // g for x in n], s // g)

    delta = nfa.delta()
    sources: dict = {}  # state -> the states with a move into it
    for (q, a), q2 in delta.items():
        if a in mp.omega:
            sources.setdefault(q2, set()).add(q)
    live, todo = set(nfa.accepting), list(nfa.accepting)
    while todo:  # one backward pass: the states with a path to an accepting one
        grown = sources.get(todo.pop(), set()) - live
        live |= grown
        todo.extend(grown)
    # per state: (letter, weight, target, the letter's cleared rows and columns, divisor)
    moves = {q: [] for q in nfa.states}
    for i, a in enumerate(mp.alphabet):
        flat = mp.phi[a].flat()
        t = lcm(*(x.denominator for x in flat))
        cleared = [x.numerator * (t // x.denominator) for x in flat]
        letter = split(cleared), [cleared[j::d] for j in range(d)], t
        for q in nfa.states:
            if (q2 := delta.get((q, a))) in live:
                moves[q].append((i, mp.omega[a], q2, *letter))
    ends = [set(nfa.accepting)]  # ends[ln]: the states with a path of ln letters to accept
    identity = [int(i == j) for i in range(d) for j in range(d)]

    def key(q, c, ln):
        """The table key of the suffixes of length ln from state q at counter c:
        None where none can exist, one key for counters no suffix tells apart."""
        while len(ends) <= ln:
            ends.append({p for q2 in ends[-1] for p in sources.get(q2, ())})
        if ln < 0 or q not in ends[ln] or not lo <= c <= hi or exact and abs(c) > ln:
            return None
        return q, ln, c if exact else None, max(lo - c, -ln), min(hi - c, ln)

    # key -> its suffixes as (code, the rows of N^T, s) for the image N / s, in
    # code order; a letter a before a suffix has the image a N, whose transpose
    # is N^T a^T
    table: dict = {None: []}

    def fill(needed, ln):
        """Make the entries of the (state, counter) pairs `needed` at length
        ln, after those below that they are built from."""
        levels = []
        while needed:
            level = {}
            for q, c in needed:
                if (kq := key(q, c, ln)) not in table:
                    level[kq] = q, c
            levels.append((ln, level))
            needed = {(q2, c + w) for q, c in level.values() for _, w, q2, *_ in moves[q]}
            ln -= 1
        for ln, level in reversed(levels):
            made = {}  # code -> that suffix, one object in the entries made here
            for kq, (q, c) in level.items():
                entry = table[kq] = [] if ln else [(0, split(identity), 1)]
                for i, w, q2, rows, _, t in moves[q]:
                    for code, x, s in table[key(q2, c + w, ln - 1)]:
                        code += i * k ** (ln - 1)
                        if code not in made:
                            n, den = product(x, rows, s * t)
                            made[code] = code, split(n), den
                        entry.append(made[code])

    (initial,) = nfa.initial
    layer = [(0, initial, 0, identity, 1)]  # the prefixes of length ln // 2
    for ln in range(last + 1):
        depth, half = ln // 2, ln - ln // 2
        if depth and not ln % 2:
            layer = [
                (code * k + i, q2, c + w, *product(split(n), cols, s * t))
                for code, q, c, n, s in layer
                for i, w, q2, _, cols, t in moves[q]
                if lo <= c + w <= hi and depth + (abs(c + w) if exact else 0) <= last
            ]
        fill({(q, c) for _, q, c, _, _ in layer}, half)
        if ln == last:  # no longer length reads the table: keep what this one reads
            table = {kq: table[kq] for kq in {key(q, c, half) for _, q, c, _, _ in layer}}
        shift = k ** half
        # yielded unbound, so a length handed over is the reader's alone
        yield [(code * shift + scode, *product(rows, x, s * t))
               for code, q, c, n, s in layer for rows in (split(n),)
               for scode, x, t in table[key(q, c, half)]]


def _oracle_over_words(
    mp_dim: int,
    degree: int,
    lengths: Iterator[Length],
    min_len: int,
    caps: Caps,
    raise_on_cap: bool = True,
) -> OracleResult:
    """Enumerate `lengths` (bounded by the caller, `word_frontier`'s
    max_len) to min_len, then on until the stabilization window is met
    (sparse languages can skip several lengths between words) or `lengths`
    ends.  Without raise_on_cap, hitting the word budget stops gracefully at
    the achieved length.  A word's point is its integer Veronese vector
    N^mono * s^(D - |mono|), s^D times nu_D(N / s).  Words of one length
    that share (s, N) share the point, so each distinct one is evaluated and
    inserted once, in first-seen order: the span, its history and the stop
    are what inserting every word gives, and `words_used` still counts
    words.  A length's words are let go as they are read into its points."""
    n = comb(mp_dim * mp_dim + degree, degree)
    _check_budget(0, n, caps, "oracle")  # no states: only the Veronese cap applies
    evaluate = _monomial_evaluator(mp_dim * mp_dim, degree)
    span = Span(n)
    # span dimension after each length that contributed at least one word;
    # empty lengths carry no information (sparse languages skip lengths)
    history: list[int] = []
    used = 0
    for ln, words in enumerate(lengths):
        capped = used + len(words) > caps.oracle_words
        if capped:
            if raise_on_cap:
                raise InfeasibleError(f"oracle exceeded the word cap {caps.oracle_words}")
            words = words[:caps.oracle_words - used]
            used = caps.oracle_words + 1  # the word past the cap counts as used
        else:
            used += len(words)
        points = {}  # the distinct (s, image) of this length, in first-seen order
        words.reverse()
        while words:
            _, image, s = words.pop()
            points[s, *image] = None
        for s, *image in points:
            span.insert(evaluate(image, s))
        if points:
            history.append(span.dim)
        stable = span.dim == n or _stable(history, caps.window)
        if capped or (ln >= min_len and stable):
            break
    space = _vanishing(mp_dim, degree, span)
    return OracleResult(space, stable and not capped, ln, used)


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
    `word_frontier(mp, predicate, nfa, max_len)`; reports whether the space
    was identical over the last `window` length increments."""
    return _oracle_over_words(
        mp.dim, degree, word_frontier(mp, predicate, nfa, max_len), max_len, caps
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


def _gamma_condition_rows(mp: MorphismPair, degree: int, caps: Caps) -> Span:
    """The span of the evaluations over the flattened product-automaton
    language, the zero pipeline's whole answer at the default threshold.

    The automaton (`automata.build_zero_automaton`) reads the letters of
    Gamma, 4-tuples over epsilon + Sigma, on counters in [-2 eta, 2 eta].
    A letter's tensor map is the product of its single-track maps
    I x .. x T_x x .. x I, which commute (the mixed-product property), and
    its weight is their weights' sum; taking each +1 track next to a -1
    track, the one away from the nearer bound first, keeps the counter in
    range.  So the 4|Sigma| single-track letters reach the same span at
    every counter as all of Gamma, and `_fixpoint`, on one state, pushes
    only along them; its accepted span, the span at counter 0 (`exact`),
    pulled back along the product of the four blocks, is the answer.

    The run starts from pi(seed), pi the projection onto the diagonal degree
    blocks: the tensor coordinates whose four monomials have one degree.  A
    letter map sends a degree-k monomial to a degree-k form, so each
    single-track map keeps every block (k1, k2, k3, k4) and commutes with
    pi, and the run from pi(seed) spans pi of each counter's span.  Each
    entry of X1 X2 X3 X4 is linear in each factor, so the pullback reads
    only the diagonal blocks, mu = mu o pi (checked here), and the answer
    is unchanged.  The budget is still checked on all n^4 coordinates.

    The bounded-zero words (weight 0, prefix weights in [-eta, eta]) need
    no stage of their own: read on the first track with the other three
    empty, each is a word of this automaton, whose window [-2 eta, 2 eta]
    contains theirs, and its flattening is the word itself.
    """
    d = mp.dim
    n = comb(d * d + degree, degree)
    eta = mp.eta
    _check_budget(
        4 * eta + 1, n ** 4, caps, "zero pipeline (product-alphabet stage)", default_eta=True)
    maps = _integer_maps(mp, degree)
    moves = {"*": [(partial(_tensor_apply, maps[a], f, n=n), mp.omega[a], "*")
                   for a in mp.alphabet for f in range(4)]}
    deg = [sum(mono) for mono in monomial_basis(d * d, degree)]
    mu_rows = _mu_pullback_rows(d, degree)
    if any(len({deg[k // n ** (3 - f) % n] for f in range(4)}) > 1 for r in mu_rows for k in r):
        raise InternalInvariantError("the product pullback reads an off-diagonal degree block")
    seed_v = _cleared(veronese(Matrix.identity(d), degree))
    # pi(seed), the tensor coordinates in `_tensor_index` order
    seed = [a * b * c * e if deg[i] == deg[j] == deg[k] == deg[m] else 0
            for (i, a), (j, b), (k, c), (m, e) in itertools.product(enumerate(seed_v), repeat=4)]
    run = ({}, Span(n ** 4), deque([(("*", 0), list, seed)]), {})
    _fixpoint(run, moves, {"*"}, True, -2 * eta, 2 * eta)
    accepted = Span(len(mu_rows))
    for s in (dense(r, n ** 4) for r in run[1].rows):
        accepted.insert([sum(c * s[idx] for idx, c in row.items()) for row in mu_rows])
    return accepted


# ---------------------------------------------------------------------------
# Pipelines


class PipelineResult(NamedTuple):
    space: PolySpace
    mode: str
    eta_used: int
    method: str
    oracle_checked: bool = False
    oracle_max_len: int | None = None
    oracle_stabilized: bool | None = None
    counter_bound: int | None = None


def run_saturation(
    mp: MorphismPair, mode: str, degree: int, caps: Caps, nfa: Nfa | None = None
) -> PipelineResult:
    """`counter_saturation` for the mode's predicate (a 1-VASS mode
    `vass-X` reads X over the paths of `nfa`), cross-checked against the
    brute-force oracle over the same language (`word_frontier`, to length
    caps.oracle_len and on to caps.oracle_extend until it stabilizes); on
    disagreement the result is withheld.  The frontier is made first, so an
    automaton the oracle cannot read is refused before the saturation
    runs."""
    predicate = mode.removeprefix("vass-")
    lengths = word_frontier(mp, predicate, nfa, max(caps.oracle_len, caps.oracle_extend))
    space, bound = counter_saturation(mp, degree, predicate, nfa, caps)
    oracle = _oracle_over_words(
        mp.dim, degree, lengths, caps.oracle_len, caps, raise_on_cap=False
    )
    if oracle.space != space:
        raise OracleDisagreementError(
            f"{mode} pipeline at eta={mp.eta} disagrees with "
            f"the oracle at enumeration length {oracle.max_len} "
            f"(oracle {'stabilized' if oracle.stabilized else 'NOT stabilized'}); "
            "result withheld"
        )
    return PipelineResult(
        space, mode, mp.eta, "saturation+oracle", oracle_checked=True,
        oracle_max_len=oracle.max_len, oracle_stabilized=oracle.stabilized,
        counter_bound=bound,
    )


def _log10_comb(n: int, k: int) -> float:
    """log10 comb(n, k), without computing comb(n, k).  Past float range
    each factor n - i of comb(n, k) * k! is n to within a factor 1 - k / n."""
    k = min(k, n - k)
    if n < 2 ** 1000:
        return (lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)) / log(10)
    return k * log10(n) - lgamma(k + 1) / log(10)


def _reach_default_cost(mp: MorphismPair, degree: int) -> str:
    # determinized reach automaton is O(eta) states; blockified dimension and
    # the flat-stage tensor dimension follow
    eta = mp.eta
    k = 2 * eta + 3
    lifted = k * (mp.dim + 1)
    n = lifted * lifted + degree
    exponent = 4 * _log10_comb(n, degree)
    if exponent < 4000:  # then the tensor dimension prints: count its digits
        exponent = len(str(comb(n, degree) ** 4)) - 1
    return (
        f"reach at default eta={figure(eta)} blockifies a {figure(k, about=True)}-state "
        f"automaton into dimension {figure(lifted)}; the zero-closure flat stage then "
        f"needs ~10^{int(exponent)} Veronese coordinates"
    )


# The modes of an instance; `regular` and `vass-*` read an automaton: an NFA,
# or the DFA over a 1-VASS's transition letters (`reduction.vass_to_constrained`).
MODES = ("cover", "reach", "zero", "regular", "vass-cover", "vass-reach")

_REMEDY = "set eta_override (the result is then cross-checked against the brute-force oracle)"


def pipeline(
    mp: MorphismPair, mode: str, degree: int, caps: Caps = DEFAULT_CAPS, nfa: Nfa | None = None
) -> PipelineResult:
    """The mode's closure under the pipeline policy (module docstring): the
    regular fixpoint over `nfa`; with eta overridden, `run_saturation`; at
    the default eta, cover's and zero's guaranteed stages, and a refusal for
    reach and 1-VASS modes."""
    if mode not in MODES:
        raise PreconditionError(f"unknown mode {mode!r}; the modes are {MODES}")
    if (nfa is None) != (mode in ("cover", "reach", "zero")):
        raise PreconditionError(
            f"mode {mode!r} " + ("needs an automaton" if nfa is None else "takes no automaton"))
    if mode == "regular":
        return PipelineResult(regular_closure(nfa, mp, degree, caps), mode, mp.eta, "fixpoint")
    if not mp.eta_is_default:
        return run_saturation(mp, mode, degree, caps, nfa)
    if mode == "cover":
        space = _vanishing(mp.dim, degree, _threshold_rows(mp, degree, caps))
        return PipelineResult(space, mode, mp.eta, "cover-automaton")
    if mode == "zero":
        space = _vanishing(mp.dim, degree, _gamma_condition_rows(mp, degree, caps))
        return PipelineResult(space, mode, mp.eta, "bz+flat")
    if mode == "reach":
        raise InfeasibleError(f"{_reach_default_cost(mp, degree)}; not desk-feasible, {_REMEDY}")
    lifted = len(nfa.states) * (mp.dim + 1)
    raise InfeasibleError(
        f"constrained {mode.removeprefix('vass-')} at default eta: the block reduction lifts "
        f"to dimension {lifted} whose own threshold is eta({lifted}) = "
        f"2^{lifted * (lifted + 3)}+1; {_REMEDY}"
    )


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
