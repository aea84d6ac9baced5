"""The oracle's word frontier against brute-force enumeration."""
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zclosure.automata import Nfa
from zclosure.closure import (
    Caps,
    _oracle_over_words,
    finite_vanishing_space,
    oracle_closure,
    word_frontier,
)
from zclosure.errors import PreconditionError
from zclosure.exactlin import Matrix
from zclosure.lang import MorphismPair, in_language
from zclosure.reduction import Vass, vass_to_constrained

MAX_LEN = 5

_entries = st.sampled_from(
    [Fraction(x) for x in (-2, -1, 0, 1, 2)]
    + [Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)]
)


@st.composite
def _morphism_pairs(draw):
    d = draw(st.integers(1, 2))
    alphabet = tuple("abc"[: draw(st.integers(1, 3))])
    return MorphismPair(
        alphabet, d,
        {a: Matrix([[draw(_entries) for _ in range(d)] for _ in range(d)])
         for a in alphabet},
        {a: draw(st.sampled_from((-1, 0, 1))) for a in alphabet},
        draw(st.integers(1, 3)),
    )


@st.composite
def _vasses(draw, alphabet):
    states = ("p", "q", "r")[: draw(st.integers(1, 3))]
    state = st.sampled_from(states)
    transitions = draw(st.lists(
        st.tuples(state, st.sampled_from(alphabet), st.sampled_from((-1, 0, 1)), state),
        min_size=1, max_size=4,
    ))
    accepting = draw(st.lists(state, min_size=1, max_size=len(states), unique=True))
    return Vass(states, states[0], tuple(accepting), tuple(transitions))


def _even_count_of_a(w):
    return w.count("a") % 2 == 0


PREDICATES = ("cover", "reach", "zero", "bz", "all", _even_count_of_a)


def _brute(mp, predicate, ln):
    accept = predicate if callable(predicate) else (lambda w: in_language(w, mp, predicate))
    return [w for w in itertools.product(mp.alphabet, repeat=ln) if accept(w)]


def _vass_brute(vass, mode, ln):
    names = [f"t{i}" for i in range(len(vass.transitions))]
    out = []
    for word in itertools.product(names, repeat=ln):
        q, c, ok = vass.initial, 0, True
        for name in word:
            src, _, weight, dst = vass.transitions[names.index(name)]
            if src != q or c + weight < 0:
                ok = False
                break
            q, c = dst, c + weight
        if ok and q in vass.accepting and (mode == "cover" or c == 0):
            out.append(word)
    return out


def _assert_lengths_match(mp, frontier, brute_by_len):
    for ln in range(MAX_LEN + 1):
        got = next(frontier)
        assert [w for w, _, _ in got] == brute_by_len(ln)
        for w, n, s in got:
            image = mp.image(w)
            assert [Fraction(x, s) for x in n] == list(image.flat())


@settings(max_examples=60, deadline=None)
@given(_morphism_pairs(), st.sampled_from(PREDICATES))
def test_frontier_matches_brute_force_in_order(mp, predicate):
    _assert_lengths_match(
        mp, word_frontier(mp, predicate), lambda ln: _brute(mp, predicate, ln)
    )


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(("cover", "reach")))
def test_vass_frontier_matches_brute_force_in_order(data, mode):
    mp = data.draw(_morphism_pairs())
    vass = data.draw(_vasses(mp.alphabet))
    mp_t, dfa = vass_to_constrained(vass, mp)
    _assert_lengths_match(
        mp_t, word_frontier(mp_t, mode, dfa), lambda ln: _vass_brute(vass, mode, ln)
    )


@st.composite
def _partial_dfas(draw, alphabet):
    states = (0, 1, 2)[: draw(st.integers(1, 3))]
    transitions = frozenset(
        (q, a, draw(st.sampled_from(states)))
        for q in states for a in alphabet if draw(st.booleans())
    )
    accepting = frozenset(draw(st.sets(st.sampled_from(states), min_size=1)))
    return Nfa(states, alphabet, frozenset({0}), accepting, transitions)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(PREDICATES))
def test_partial_dfa_frontier_matches_brute_force_in_order(data, predicate):
    mp = data.draw(_morphism_pairs())
    dfa = data.draw(_partial_dfas(mp.alphabet))
    _assert_lengths_match(
        mp, word_frontier(mp, predicate, dfa),
        lambda ln: [w for w in _brute(mp, predicate, ln) if dfa.accepts(w)],
    )


def test_frontier_refuses_a_nondeterministic_automaton():
    mp = MorphismPair(("a",), 1, {"a": Matrix([[2]])}, {"a": 1})
    two_targets = Nfa((0, 1), ("a",), frozenset({0}), frozenset({1}),
                      frozenset({(0, "a", 0), (0, "a", 1)}))
    two_initial = Nfa((0, 1), ("a",), frozenset({0, 1}), frozenset({1}), frozenset())
    for nfa in (two_targets, two_initial):
        with pytest.raises(PreconditionError, match="deterministic"):
            word_frontier(mp, "reach", nfa)  # refused when made, not when advanced
    with pytest.raises(PreconditionError, match="unknown predicate"):
        word_frontier(mp, "sideways")


@settings(max_examples=60, deadline=None)
@given(
    _morphism_pairs(), st.sampled_from(PREDICATES), st.integers(0, 40),
    st.integers(1, 2),
)
def test_word_cap_keeps_the_first_words(mp, predicate, k, degree):
    words = [w for ln in range(MAX_LEN + 1) for w in _brute(mp, predicate, ln)]
    o = _oracle_over_words(
        mp.dim, degree, word_frontier(mp, predicate), MAX_LEN,
        Caps(oracle_words=k), raise_on_cap=False,
    )
    want = finite_vanishing_space([mp.image(w) for w in words[:k]], degree, mp.dim)
    assert o.space == want
    assert o.words_used == min(k + 1, len(words))


def test_long_words_do_not_recurse():
    # a prefix's image is one product with its parent's, so the word length
    # is not bounded by the recursion limit, also when no prefix of the word
    # is itself in the language
    mp = MorphismPair(("a",), 2, {"a": Matrix([[1, 1], [0, 1]])}, {"a": 0})
    o = oracle_closure(mp, "all", 1, 1200)
    assert o.words_used == 1201 and o.max_len == 1200
    o = oracle_closure(mp, lambda w: len(w) == 1200, 1, 1200)
    assert o.words_used == 1
    assert o.space == finite_vanishing_space([mp.image(("a",) * 1200)], 1)
