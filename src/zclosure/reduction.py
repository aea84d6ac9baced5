"""Block-matrix reductions: folding a regular constraint (or a 1-VASS's
state structure) into the morphism, and extracting the constrained closure
back out of the lifted one.

For a complete DFA with k states, each letter lifts to a k(d+1)-dimensional
block matrix whose (i, j) block is [[phi(a), 0], [0, 1]] exactly when the DFA
moves i -> j on a; the bottom-right 1 distinguishes a present transition with
a zero matrix from an absent transition.  For a word w the lifted image has
at most one nonzero block in block-row 1, at column delta(q1, w), so summing
the accepting block-row-1 blocks recovers phi(w) together with an indicator.
Extraction works at the coefficient level: a candidate p of degree <= D over
the d x d entries pulls back to the homogenization sum_a c_a iota^(D-|a|) T^a
over the lifted entries, which vanishes on the lifted space iff p vanishes on
the state-filtered language.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .automata import Nfa
from .closure import _vanishing
from .errors import PreconditionError, SchemaError
from .exactlin import Matrix, Vector, kernel_basis, span_of
from .lang import MorphismPair
from .polys import PolySpace, poly_to_vector, substitution_rows


class BlockMorphism(NamedTuple):
    base: MorphismPair
    dfa: Nfa
    state_order: tuple  # initial state first
    lifted: dict[str, Matrix]

    @property
    def dim(self) -> int:
        return len(self.state_order) * (self.base.dim + 1)

    @property
    def morphism_pair(self) -> MorphismPair:
        return MorphismPair(
            self.base.alphabet, self.dim, self.lifted, self.base.omega, self.base.eta
        )


def blockify_regular(mp: MorphismPair, dfa: Nfa) -> BlockMorphism:
    """The automaton must be deterministic but may be partial: an absent
    transition leaves the whole block zero, which the bottom-right indicator
    entry distinguishes from a present transition with a zero matrix."""
    if set(dfa.alphabet) != set(mp.alphabet):
        raise PreconditionError("DFA alphabet differs from the morphism alphabet")
    if not dfa.is_deterministic():
        raise PreconditionError("constraint automaton must be deterministic; "
                                "determinize first")
    (initial,) = dfa.initial
    rest = sorted((q for q in dfa.states if q != initial), key=str)
    order = (initial,) + tuple(rest)
    pos = {q: i for i, q in enumerate(order)}
    k, d = len(order), mp.dim
    b = d + 1
    delta = dfa.delta()
    lifted = {}
    for a in mp.alphabet:
        m = [[Fraction(0)] * (k * b) for _ in range(k * b)]
        phi = mp.phi[a]
        for q in order:
            if (q, a) not in delta:
                continue
            i, j = pos[q], pos[delta[(q, a)]]
            for r in range(d):
                for c in range(d):
                    m[i * b + r][j * b + c] = phi[r, c]
            m[i * b + d][j * b + d] = Fraction(1)
        lifted[a] = Matrix(m)
    return BlockMorphism(mp, dfa, order, lifted)


def _pullback_vectors(bm: BlockMorphism, degree: int) -> list[Vector]:
    """For each degree-<=D monomial over the base entries, the coefficient
    vector of its indicator-homogenized pullback over the lifted entries."""
    d = bm.base.dim
    b = d + 1
    kdim = bm.dim
    nvars = kdim * kdim
    accepting = [i for i, q in enumerate(bm.state_order) if q in bm.dfa.accepting]

    def summed(r: int, c: int) -> dict:
        """Lifted entry (r, c) summed over the accepting blocks of block-row 1."""
        return {
            tuple(int(v == r * kdim + i * b + c) for v in range(nvars)): Fraction(1)
            for i in accepting
        }

    # T_rc is summed(r, c); the indicator iota is summed(d, d)
    forms = [summed(r, c) for r in range(d) for c in range(d)]
    return [
        poly_to_vector(p, nvars, degree)
        for p in substitution_rows(forms, degree, nvars, unit=summed(d, d))
    ]


def extract_block_closure(
    space: PolySpace, bm: BlockMorphism, degree: int
) -> PolySpace:
    """From the degree-<=D vanishing space of the lifted language, the exact
    degree-<=D vanishing space of the state-filtered base language."""
    if space.degree != degree:
        raise PreconditionError("space degree differs from the requested degree")
    if space.dim != bm.dim:
        raise PreconditionError("space dimension differs from the lifted dimension")
    pullbacks = _pullback_vectors(bm, degree)
    # evaluation span of the lifted language = complement of its vanishing space
    lifted = space.vanishing_basis
    eval_rows = kernel_basis(span_of(lifted.ambient_dim, lifted.basis))
    constraint = span_of(
        len(pullbacks),
        ([sum((a * b for a, b in zip(s, pb)), Fraction(0)) for pb in pullbacks]
         for s in eval_rows),
    )
    return _vanishing(bm.base.dim, degree, constraint)


# ---------------------------------------------------------------------------
# 1-VASS instances


class _VassFields(NamedTuple):
    states: tuple[str, ...]
    initial: str
    accepting: tuple[str, ...]
    transitions: tuple[tuple[str, str, int, str], ...]  # (from, letter, weight, to)


class Vass(_VassFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        states = set(self.states)
        if len(states) < len(self.states):
            twice = Counter(self.states).most_common(1)[0][0]
            raise SchemaError(f"vass state {twice!r} is listed twice")
        if self.initial not in states or not set(self.accepting) <= states:
            raise SchemaError("vass initial/accepting must be declared states")
        for (src, _letter, weight, dst) in self.transitions:
            if src not in states or dst not in states:
                raise SchemaError("vass transition references unknown state")
            if weight not in (-1, 0, 1):
                raise SchemaError(
                    f"vass transition weight {weight!r} is not in {{-1,0,1}}; "
                    "zero tests and general weights are out of scope (decompose "
                    "runs at zero tests upstream, or normalize weights)"
                )
        return self


def vass_to_constrained(vass: Vass, mp: MorphismPair) -> tuple[MorphismPair, Nfa]:
    """The state-elimination recipe: transitions become letters carrying their
    weights, the path language becomes a complete DFA constraint, and the
    matrices come from the original letters.  The DFA's sink is `_dead`,
    with underscores added until it names no VASS state."""
    letters = tuple(f"t{i}" for i in range(len(vass.transitions)))
    phi = {}
    omega = {}
    for name, (_, letter, weight, _) in zip(letters, vass.transitions):
        if letter not in mp.phi:
            raise SchemaError(f"vass transition uses unknown letter {letter!r}")
        phi[name] = mp.phi[letter]
        omega[name] = weight
    mp_t = MorphismPair(letters, mp.dim, phi, omega, mp.eta)
    dead = "_dead"
    while dead in vass.states:
        dead += "_"
    states = vass.states + (dead,)
    transitions = frozenset(
        (q, name, dst if q == src else dead)
        for q in states
        for name, (src, _, _, dst) in zip(letters, vass.transitions)
    )
    return mp_t, Nfa(states, letters, frozenset({vass.initial}), frozenset(vass.accepting),
                      transitions)
