"""The paper's counter constructions and the zero-closure witness builder.
The engine runs the constructions on counters (`closure`); their builders
serve `closure automaton` and the tests, as the reference, and a run never
imports this module.

Each counter construction is a one-counter automaton (`automata.Nfa`) whose
counter is cut to a window, and `_range_transitions` writes its moves inside
the window:

    cover : states {0..eta-1} + inf; tracks prefix weight up to eta, then
            saturates in an all-accepting sink.
    reach : states ({0..eta-1} x {0,1}) + inf; the bit records whether the
            weight has been above the threshold; both bits share the
            window's moves.
    zero  : over the product alphabet Gamma = (Sigma+eps)^4 \\ {eps^4};
            states -2eta..2eta, 0 initial and uniquely accepting.
    bz    : states -eta..eta; accepts exactly the bounded zero language.

`determinize` is the subset construction, which `closure oracle` applies to
a regular instance's NFA.  The zero-closure witness is one run of the zero
automaton that reads one track at a time; `_TrackRun` writes it and checks
that its counter stays in the automaton's range.
"""
from __future__ import annotations

import itertools
import math

from .automata import Nfa, state_name
from .errors import InfeasibleError, InternalInvariantError, PreconditionError, figure
from .lang import MorphismPair, Word
from .words import classify_word

INF = "inf"
EPS = ""

GammaLetter = tuple[str, str, str, str]


def determinize(nfa: Nfa, max_states: int = 10**6) -> Nfa:
    """Subset construction over reachable subsets only.  Subset states are
    canonical sorted tuples; the empty tuple is the dead state."""

    def canon(s: frozenset) -> tuple:
        return tuple(sorted(s, key=state_name))

    start = canon(nfa.initial)
    states = {start}
    order = [start]
    transitions = set()
    frontier = [start]
    while frontier:
        cur = frontier.pop()
        cur_set = frozenset(cur)
        for a in nfa.alphabet:
            nxt = canon(nfa.step(cur_set, a))
            transitions.add((cur, a, nxt))
            if nxt not in states:
                states.add(nxt)
                order.append(nxt)
                frontier.append(nxt)
                if len(states) > max_states:
                    raise InfeasibleError(
                        f"determinization exceeded the states cap {max_states}; "
                        "raise it with CLOSURE_CAP_STATES"
                    )
    accepting = frozenset(s for s in states if set(s) & nfa.accepting)
    return Nfa(
        states=tuple(order),
        alphabet=nfa.alphabet,
        initial=frozenset({start}),
        accepting=accepting,
        transitions=frozenset(transitions),
    )


def _check_state_cap(n: int, max_states: int, what: str) -> None:
    if n > max_states:
        raise InfeasibleError(
            f"{what} needs {figure(n)} states, over the cap {max_states}; "
            "set eta_override to a small value (guarantees then rest on the "
            "oracle cross-check) or raise the states cap with CLOSURE_CAP_STATES"
        )


def _range_transitions(lo: int, hi: int, weights: dict) -> set:
    """(c, a, c + weights[a]) for every counter c in [lo, hi] and letter a
    whose move keeps the counter in [lo, hi]."""
    return {
        (c, a, c + w)
        for c in range(lo, hi + 1)
        for a, w in weights.items()
        if lo <= c + w <= hi
    }


def build_cover_automaton(mp: MorphismPair, max_states: int = 10**6) -> Nfa:
    eta = mp.eta
    _check_state_cap(eta + 1, max_states, "cover automaton")
    states: tuple = tuple(range(eta)) + (INF,)
    transitions = _range_transitions(0, eta - 1, mp.omega)
    for a in mp.alphabet:
        transitions.add((INF, a, INF))
        if mp.omega[a] == 1:
            transitions.add((eta - 1, a, INF))
    return Nfa(
        states=states,
        alphabet=tuple(mp.alphabet),
        initial=frozenset({0}),
        accepting=frozenset(states),
        transitions=frozenset(transitions),
    )


def build_reach_automaton(mp: MorphismPair, max_states: int = 10**6) -> Nfa:
    eta = mp.eta
    _check_state_cap(2 * eta + 1, max_states, "reach automaton")
    states: tuple = tuple((c, b) for c in range(eta) for b in (0, 1)) + (INF,)
    transitions = {
        ((c, b), a, (c2, b))
        for (c, a, c2) in _range_transitions(0, eta - 1, mp.omega)
        for b in (0, 1)
    }
    for a in mp.alphabet:
        transitions.add((INF, a, INF))
        if mp.omega[a] == 1:
            transitions.add(((eta - 1, 0), a, INF))
        if mp.omega[a] == -1:
            transitions.add((INF, a, (eta - 1, 1)))
    return Nfa(
        states=states,
        alphabet=tuple(mp.alphabet),
        initial=frozenset({(0, 0)}),
        accepting=frozenset({(0, 0), (0, 1)}),
        transitions=frozenset(transitions),
    )


def gamma_alphabet(alphabet: tuple[str, ...]) -> tuple[GammaLetter, ...]:
    base = (EPS,) + tuple(alphabet)
    return tuple(
        g for g in itertools.product(base, repeat=4) if any(x != EPS for x in g)
    )


def gamma_weight(g: GammaLetter, mp: MorphismPair) -> int:
    return sum(mp.omega[x] for x in g if x != EPS)


def build_zero_automaton(mp: MorphismPair, max_states: int = 10**6) -> Nfa:
    """The product-alphabet automaton of the zero pipeline: counters in
    [-2 eta, 2 eta] read the Gamma letters, 4-tuples over epsilon + Sigma,
    at the sum of their tracks' weights.  `closure automaton --which zero`
    prints it.  The engine (`closure._gamma_condition_rows`) instead runs
    `closure._fixpoint` on one state over these counters, pushing only along
    the single-track letters, whose commuting tensor maps compose to every
    Gamma letter's, and reaches the same spans."""
    eta = mp.eta
    _check_state_cap(4 * eta + 1, max_states, "zero automaton")
    states = tuple(range(-2 * eta, 2 * eta + 1))
    gamma = gamma_alphabet(mp.alphabet)
    transitions = _range_transitions(-2 * eta, 2 * eta, {g: gamma_weight(g, mp) for g in gamma})
    return Nfa(
        states=states,
        alphabet=gamma,
        initial=frozenset({0}),
        accepting=frozenset({0}),
        transitions=frozenset(transitions),
    )


def build_bz_automaton(mp: MorphismPair, max_states: int = 10**6) -> Nfa:
    eta = mp.eta
    _check_state_cap(2 * eta + 1, max_states, "bounded-zero automaton")
    states = tuple(range(-eta, eta + 1))
    return Nfa(
        states=states,
        alphabet=tuple(mp.alphabet),
        initial=frozenset({0}),
        accepting=frozenset({0}),
        transitions=frozenset(_range_transitions(-eta, eta, mp.omega)),
    )


def flatten(ws) -> tuple[tuple[Word, Word, Word, Word], Word]:
    """prod (componentwise concatenation) and flat (components in order)."""
    comps: list[list[str]] = [[], [], [], []]
    for g in ws:
        for i, x in enumerate(g):
            if x != EPS:
                comps[i].append(x)
    prod = tuple(tuple(c) for c in comps)
    flat = tuple(x for c in comps for x in c)
    return prod, flat  # type: ignore[return-value]


class _TrackRun:
    """A run of the zero automaton that reads one track per Gamma letter:
    the letters read so far and the counter they lead to, which must stay
    in [-2 eta, 2 eta]."""

    def __init__(self, mp: MorphismPair):
        self.mp = mp
        self.counter = 0
        self.letters: list[GammaLetter] = []

    def emit(self, slot: int, word) -> None:
        """Read each letter of `word` on track `slot`."""
        eta = self.mp.eta
        for a in word:
            g = [EPS, EPS, EPS, EPS]
            g[slot] = a
            self.letters.append(tuple(g))  # type: ignore[arg-type]
            self.counter += self.mp.omega[a]
            if not -2 * eta <= self.counter <= 2 * eta:
                raise InternalInvariantError(
                    "witness run left the counter range; this is a bug"
                )


def construct_zero_witness(
    w, mp: MorphismPair
) -> tuple[tuple[GammaLetter, ...], tuple[GammaLetter, ...]]:
    """Witness pair (W, U) with W U^k accepted by the zero automaton for all
    k and flat(W U^k) a pumped version of w.  Input must be a zero-weight
    word that is not bounded-zero."""
    # imported here: `closure automaton` builds no witness, so it never
    # loads the factorization trees and the exterior algebra
    from .facttree import extract_stable_factor

    w = mp.check_word(w)
    cls = classify_word(w, mp)
    if not (cls.in_LZ and not cls.in_LBZ):
        raise PreconditionError("witness needs a word in the zero language "
                                "but outside the bounded-zero language")
    eta = mp.eta
    pw = mp.prefix_weights(w)

    # shortest prefix x with |weight| = eta fixes the orientation
    x_end = next(i for i, c in enumerate(pw) if abs(c) == eta)
    sign = 1 if pw[x_end] == eta else -1

    # shortest zero-weight prefix extending x, then its shortest suffix of
    # weight -sign*eta
    p_end = next(i for i in range(x_end + 1, len(pw)) if pw[i] == 0)
    y_start = max(
        i for i in range(x_end, p_end) if pw[p_end] - pw[i] == -sign * eta
    )
    x = w[:x_end]
    w1 = w[x_end:y_start]
    y = w[y_start:p_end]
    w2 = w[p_end:]

    i1, j1 = extract_stable_factor(x, mp, sign)
    x1, u, x2 = x[:i1], x[i1:j1], x[j1:]
    i2, j2 = extract_stable_factor(y, mp, -sign)
    y2, v, y1 = y[:i2], y[i2:j2], y[j2:]
    wu, wv = mp.weight(u), mp.weight(v)

    run = _TrackRun(mp)

    # phase 1: x1 u | x2 | y2 v | y1 into the four slots
    run.emit(0, x1 + u)
    run.emit(1, x2)
    run.emit(2, y2 + v)
    run.emit(3, y1)
    if run.counter != 0:
        raise InternalInvariantError("phase 1 must end at counter 0")

    # phase 2: w1 then w2 letterwise, inserting u/v whenever the counter hits
    # the trigger value -omega(u) resp. -omega(v)
    m0 = n0 = 0
    for slot, word in ((1, w1), (3, w2)):
        for a in word:
            run.emit(slot, (a,))
            if run.counter == -wu:
                run.emit(0, u)
                m0 += 1
            elif run.counter == -wv:
                run.emit(2, v)
                n0 += 1

    # phase 3: pad with whole u/v blocks to reach m*wu + n*wv = 0
    g = math.gcd(wu, wv)
    m_base, n_base = abs(wv) // g, abs(wu) // g
    t = 1
    while t * m_base < m0 or t * n_base < n0:
        t += 1
    m, n = t * m_base, t * n_base
    _greedy_blocks(run, u, v, m - m0, n - n0)

    pump = _TrackRun(mp)
    _greedy_blocks(pump, u, v, m, n)
    return tuple(run.letters), tuple(pump.letters)


def _greedy_blocks(run: _TrackRun, u, v, mu: int, nv: int) -> None:
    """Read mu copies of u (slot 0) and nv copies of v (slot 2) on `run`,
    choosing the factor that pushes the counter toward zero."""
    wu = run.mp.weight(u)
    pos_block, neg_block = ((0, u), (2, v)) if wu > 0 else ((2, v), (0, u))
    pos_left = mu if wu > 0 else nv
    neg_left = nv if wu > 0 else mu
    while pos_left or neg_left:
        if pos_left and (run.counter <= 0 or not neg_left):
            run.emit(*pos_block)
            pos_left -= 1
        else:
            run.emit(*neg_block)
            neg_left -= 1
