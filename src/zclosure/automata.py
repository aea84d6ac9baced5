"""Finite automata over parameterized alphabets: `Nfa`, the one automaton
type the engine reads.

States can be any hashable values; `states` fixes the canonical order.  There
are no epsilon transitions.  The paper's counter constructions, which only
`closure automaton` and the tests build, are in `constructions`.
"""
from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .errors import PreconditionError


class _NfaFields(NamedTuple):
    states: tuple
    alphabet: tuple
    initial: frozenset
    accepting: frozenset
    transitions: frozenset  # (state, letter, state)


class Nfa(_NfaFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        states = set(self.states)
        if len(states) < len(self.states):
            twice = Counter(self.states).most_common(1)[0][0]
            raise PreconditionError(f"state {twice!r} is listed twice")
        letters = set(self.alphabet)
        for q, a, q2 in self.transitions:
            if q not in states or q2 not in states or a not in letters:
                raise PreconditionError("transition references unknown state/letter")
        if not (self.initial <= states and self.accepting <= states):
            raise PreconditionError("initial/accepting references unknown state")
        return self

    @staticmethod
    def universal(alphabet) -> "Nfa":
        """Every word: one initial, accepting state with a loop per letter."""
        star = frozenset({"*"})
        return Nfa(("*",), tuple(alphabet), star, star, frozenset(("*", a, "*") for a in alphabet))

    def step(self, current: frozenset, letter) -> frozenset:
        return frozenset(q2 for (q, a, q2) in self.transitions if a == letter and q in current)

    def accepts(self, word) -> bool:
        current = self.initial
        for a in word:
            current = self.step(current, a)
            if not current:
                return False
        return bool(current & self.accepting)

    def is_deterministic(self) -> bool:
        return len(self.initial) == 1 and len(self.delta()) == len(self.transitions)

    def delta(self) -> dict:
        """(state, letter) -> state, for a deterministic (maybe partial) one."""
        return {(q, a): q2 for (q, a, q2) in self.transitions}

    def to_json(self) -> dict:
        return {
            "states": [state_name(q) for q in self.states],
            "alphabet": [letter_name(a) for a in self.alphabet],
            "initial": sorted(state_name(q) for q in self.initial),
            "accepting": sorted(state_name(q) for q in self.accepting),
            "transitions": sorted(
                [state_name(q), letter_name(a), state_name(q2)]
                for (q, a, q2) in self.transitions
            ),
        }


def state_name(q) -> str:
    if isinstance(q, tuple):
        return "(" + ",".join(state_name(x) for x in q) + ")"
    if isinstance(q, frozenset):
        return "{" + ",".join(sorted(state_name(x) for x in q)) + "}"
    return str(q)


def letter_name(a) -> str:
    if isinstance(a, tuple):
        return "(" + ",".join(x if x else "~" for x in a) + ")"
    return str(a)
