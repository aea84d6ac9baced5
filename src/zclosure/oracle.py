"""The brute-force oracle (L5): the vanishing space over a language's words,
enumerated to a length.

The oracle is the check on the engine, so it is an independent code path:
it evaluates each word's image by direct monomial evaluation and never uses
the engine's letter maps or its worklist (a test reads this module's names
to keep it so).  It shares only `Span`, the budget check and the read-off of
the vanishing space with the fixpoints.

It reads a language as a predicate name (`lang.bounds`) plus a deterministic
automaton.  Its words come from one lazy frontier over (automaton state,
counter) (`word_frontier`), which meets in the middle: a word is a prefix of
half its length and a suffix from a table.  Its code is one integer (the
letter indices as base-|Sigma| digits), and its image an integer matrix N
over one denominator s, one direct product of the halves' images, each of
which is one product of a letter with a shorter half.  A word's point is
N^mono * s^(D - |mono|); letter names are never built.  A monoid with
relations maps many words to one matrix, and a span sees only the point, so
the oracle inserts each distinct (s, N) of a length once; the words still
count towards the word cap and `words_used`.

`closure oracle` runs `oracle_closure`; an eta-overridden pipeline runs
`_oracle_over_words` after its saturation (`saturation.run_saturation`).
"""
from __future__ import annotations

from math import comb, gcd, lcm
from operator import mul
from typing import Iterator, NamedTuple

from .automata import Nfa
from .closure import DEFAULT_CAPS, Caps, _check_budget, _monomial_evaluator, _vanishing, veronese
from .errors import DimensionError, InfeasibleError, PreconditionError
from .exactlin import Matrix, Span, span_of
from .lang import MorphismPair, bounds
from .polys import PolySpace


def _stable(history: list[int], window: int) -> bool:
    """The last `window` + 1 entries of `history` are equal."""
    return len(history) > window and len(set(history[-window - 1:])) == 1


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
