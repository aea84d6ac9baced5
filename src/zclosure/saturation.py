"""Bounded-counter saturation (L4) and the saturate-and-check routine that
every eta-overridden pipeline runs (`run_saturation`).

The space over the words whose prefix weights stay in a window is monotone in
the window, and its limit is the exact target.  Saturation grows the window
bound by bound until the space is unchanged for caps.window consecutive
bounds; then the brute-force oracle (`oracle`) enumerates the same language,
and on disagreement there is no answer.  The windows nest, so one fixpoint
(`closure._fixpoint`, on a stage from `closure._stage`) is warm-started from
bound to bound: the worklist parks each push that leaves the window, a bound
replays only the parked pushes it newly admits, and the space is unchanged
when its dimension is.  Every window's span lies in U, the span over all
words (`closure._all_words_dim`), so once a window reaches dim U every later
window is U and runs no fixpoint; U is computed after the bound-2 window's
budget check.

`closure.pipeline` imports this module only when an instance overrides eta.
"""
from __future__ import annotations

from .automata import Nfa
from .closure import (
    DEFAULT_CAPS,
    Caps,
    Moves,
    PipelineResult,
    Run,
    _check_budget,
    _fixpoint,
    _moves,
    _stage,
    _vanishing,
)
from .errors import InfeasibleError, OracleDisagreementError, PreconditionError
from .lang import MorphismPair, bounds
from .oracle import _oracle_over_words, _stable, word_frontier
from .polys import PolySpace


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
