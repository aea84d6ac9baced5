"""The oracle's word frontier against brute-force enumeration."""
import inspect
import itertools
import os
import sys
import tracemalloc
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import in_reference_language, word_of_code
from zclosure.automata import Nfa
from zclosure.cli import load_instance
from zclosure.closure import DEFAULT_CAPS, Caps, pipeline, veronese
from zclosure.errors import PreconditionError
from zclosure.exactlin import Matrix, Span, _cleared
from zclosure.lang import MorphismPair
from zclosure.oracle import (
    OracleResult,
    _oracle_over_words,
    finite_vanishing_space,
    oracle_closure,
    word_frontier,
)
from zclosure.reduction import Vass, vass_to_constrained

MAX_LEN = 5
LONG = 8  # a word of 8 letters is a prefix of 4 and a suffix of 4

_entries = st.sampled_from(
    [Fraction(x) for x in (-2, -1, 0, 1, 2)]
    + [Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)]
)


@st.composite
def _morphism_pairs(draw, letters=3, etas=st.integers(1, 3)):
    d = draw(st.integers(1, 2))
    alphabet = tuple("abc"[: draw(st.integers(1, letters))])
    return MorphismPair(
        alphabet, d,
        {a: Matrix([[draw(_entries) for _ in range(d)] for _ in range(d)])
         for a in alphabet},
        {a: draw(st.sampled_from((-1, 0, 1))) for a in alphabet},
        draw(etas),
    )


@st.composite
def _vasses(draw, alphabet, transitions=4):
    states = ("p", "q", "r")[: draw(st.integers(1, 3))]
    state = st.sampled_from(states)
    transitions = draw(st.lists(
        st.tuples(state, st.sampled_from(alphabet), st.sampled_from((-1, 0, 1)), state),
        min_size=1, max_size=transitions,
    ))
    accepting = draw(st.lists(state, min_size=1, max_size=len(states), unique=True))
    return Vass(states, states[0], tuple(accepting), tuple(transitions))


def _even_count_of_a(alphabet):
    """The two-state DFA of the words with an even number of a's."""
    return Nfa((0, 1), alphabet, frozenset({0}), frozenset({0}),
               frozenset((q, x, q ^ (x == "a")) for q in (0, 1) for x in alphabet))


# the predicate names, and "even a": "all" under `_even_count_of_a`
LANGUAGES = ("cover", "reach", "zero", "bz", "all", "even a")


def _language(mp, name):
    """(predicate, DFA or None for every word) of a name in LANGUAGES."""
    return ("all", _even_count_of_a(mp.alphabet)) if name == "even a" else (name, None)


def _brute(mp, predicate, dfa, ln):
    return [
        w for w in itertools.product(mp.alphabet, repeat=ln)
        if in_reference_language(w, mp, predicate) and (dfa is None or dfa.accepts(w))
    ]


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


def _assert_lengths_match(mp, frontier, brute_by_len, last=MAX_LEN):
    images = {(): Matrix.identity(mp.dim)}  # mp.image's products, each prefix's once

    def image(w):
        if w not in images:
            images[w] = image(w[:-1]) * mp.phi[w[-1]]
        return images[w]

    for ln in range(last + 1):
        got = [(word_of_code(code, ln, mp.alphabet), n, s) for code, n, s in next(frontier)]
        assert [w for w, _, _ in got] == brute_by_len(ln)
        for w, n, s in got:
            assert [Fraction(x, s) for x in n] == list(image(w).flat())


@settings(max_examples=60, deadline=None)
@given(_morphism_pairs(), st.sampled_from(LANGUAGES))
def test_frontier_matches_brute_force_in_order(mp, language):
    predicate, dfa = _language(mp, language)
    _assert_lengths_match(
        mp, word_frontier(mp, predicate, dfa, MAX_LEN), lambda ln: _brute(mp, predicate, dfa, ln)
    )


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(("cover", "reach")))
def test_vass_frontier_matches_brute_force_in_order(data, mode):
    mp = data.draw(_morphism_pairs())
    vass = data.draw(_vasses(mp.alphabet))
    mp_t, dfa = vass_to_constrained(vass, mp)
    _assert_lengths_match(
        mp_t, word_frontier(mp_t, mode, dfa, MAX_LEN), lambda ln: _vass_brute(vass, mode, ln)
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


def _intersection(a, b):
    """The synchronous product of two automata on one alphabet: it accepts
    the words both accept, and it is deterministic when both are."""
    pairs = itertools.product
    return Nfa(
        tuple(pairs(a.states, b.states)), a.alphabet,
        frozenset(pairs(a.initial, b.initial)), frozenset(pairs(a.accepting, b.accepting)),
        frozenset(((p, q), x, (p2, q2))
                  for p, x, p2 in a.transitions for q, y, q2 in b.transitions if x == y),
    )


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(LANGUAGES))
def test_partial_dfa_frontier_matches_brute_force_in_order(data, language):
    mp = data.draw(_morphism_pairs())
    partial = data.draw(_partial_dfas(mp.alphabet))
    predicate, dfa = _language(mp, language)
    _assert_lengths_match(
        mp, word_frontier(
            mp, predicate, partial if dfa is None else _intersection(partial, dfa), MAX_LEN),
        lambda ln: [w for w in _brute(mp, predicate, dfa, ln) if partial.accepts(w)],
    )


@settings(max_examples=60, deadline=None)
@given(_morphism_pairs(), st.sampled_from(LANGUAGES), st.integers(0, MAX_LEN))
def test_bounded_frontier_is_a_prefix_of_a_longer_one(mp, language, last):
    predicate, dfa = _language(mp, language)
    longer = list(word_frontier(mp, predicate, dfa, MAX_LEN + 1))
    assert list(word_frontier(mp, predicate, dfa, last)) == longer[:last + 1]
    with pytest.raises(PreconditionError, match="max_len"):
        word_frontier(mp, predicate, dfa, -1)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(("bz", "partial", "cover", "reach")))
def test_long_frontier_matches_brute_force_in_order(data, case):
    # at LONG letters each half of a word is 4 letters long, so a window binds
    # inside the suffix half: bz at eta 1 or 2, the VASS counter's 0 (cover and
    # reach), any predicate under a partial DFA
    mp = data.draw(_morphism_pairs(letters=2, etas=st.integers(1, 2)))
    if case in ("cover", "reach"):
        vass = data.draw(_vasses(mp.alphabet, transitions=3))
        mp_t, dfa = vass_to_constrained(vass, mp)
        _assert_lengths_match(
            mp_t, word_frontier(mp_t, case, dfa, LONG), lambda ln: _vass_brute(vass, case, ln),
            LONG)
        return
    dfa = data.draw(_partial_dfas(mp.alphabet)) if case == "partial" else None
    predicate = data.draw(st.sampled_from(LANGUAGES[:5])) if dfa else "bz"
    _assert_lengths_match(
        mp, word_frontier(mp, predicate, dfa, LONG), lambda ln: _brute(mp, predicate, dfa, ln),
        LONG)


def test_frontier_refuses_a_nondeterministic_automaton():
    mp = MorphismPair(("a",), 1, {"a": Matrix([[2]])}, {"a": 1})
    two_targets = Nfa((0, 1), ("a",), frozenset({0}), frozenset({1}),
                      frozenset({(0, "a", 0), (0, "a", 1)}))
    two_initial = Nfa((0, 1), ("a",), frozenset({0, 1}), frozenset({1}), frozenset())
    for nfa in (two_targets, two_initial):
        with pytest.raises(PreconditionError, match="deterministic"):
            word_frontier(mp, "reach", nfa, 0)  # refused when made, not when advanced
    for predicate in ("sideways", lambda w: True):  # a language is a name, not a callable
        with pytest.raises(PreconditionError, match="unknown predicate"):
            word_frontier(mp, predicate, None, 0)


@settings(max_examples=60, deadline=None)
@given(
    _morphism_pairs(), st.sampled_from(LANGUAGES), st.integers(0, 40),
    st.integers(1, 2),
)
def test_word_cap_keeps_the_first_words(mp, language, k, degree):
    predicate, dfa = _language(mp, language)
    words = [w for ln in range(MAX_LEN + 1) for w in _brute(mp, predicate, dfa, ln)]
    o = _oracle_over_words(
        mp.dim, degree, word_frontier(mp, predicate, dfa, MAX_LEN), MAX_LEN,
        Caps(oracle_words=k), raise_on_cap=False,
    )
    want = finite_vanishing_space([mp.image(w) for w in words[:k]], degree, mp.dim)
    assert o.space == want
    assert o.words_used == min(k + 1, len(words))


def _every_word_oracle(mp, predicate, dfa, degree, min_len, window):
    """The oracle's stop rule over `_brute`'s words to MAX_LEN, with every
    word's Veronese vector inserted: the reference for an oracle that
    inserts each distinct point of a length once."""
    n = comb(mp.dim * mp.dim + degree, degree)
    span, history, words = Span(n), [], []
    for ln in range(MAX_LEN + 1):
        length = _brute(mp, predicate, dfa, ln)
        for w in length:
            span.insert(_cleared(veronese(mp.image(w), degree)))
        words += length
        if length:
            history.append(span.dim)
        stable = span.dim == n or len(history) > window and len(set(history[-window - 1:])) == 1
        if ln >= min_len and stable:
            break
    space = finite_vanishing_space([mp.image(w) for w in words], degree, mp.dim)
    return OracleResult(space, stable, ln, len(words))


@st.composite
def _pairs_repeating_a_matrix(draw):
    """Two or three letters whose matrices come from a pool of one or two,
    so that words of one length share points."""
    d = draw(st.integers(1, 2))
    pool = draw(st.lists(st.lists(st.lists(_entries, min_size=d, max_size=d),
                                  min_size=d, max_size=d), min_size=1, max_size=2))
    alphabet = tuple("abc"[:draw(st.integers(2, 3))])
    return MorphismPair(alphabet, d, {a: Matrix(draw(st.sampled_from(pool))) for a in alphabet},
                        {a: draw(st.sampled_from((-1, 0, 1))) for a in alphabet}, 2)


@settings(max_examples=60, deadline=None)
@given(_pairs_repeating_a_matrix(), st.sampled_from(LANGUAGES), st.integers(1, 3),
       st.integers(0, MAX_LEN), st.integers(0, 2))
# two letters of one matrix: the 2^ln words of a length have ln + 1 points
@example(MorphismPair(("a", "b"), 2, {a: Matrix([[1, 1], [0, 1]]) for a in "ab"},
                      {"a": 0, "b": 0}, 2), "all", 3, 2, 2)
# phi(a) = 1/2 and phi(b) = 1/4: a and b have one numerator, over 2 and over 4
@example(MorphismPair(("a", "b"), 1, {"a": Matrix([[Fraction(1, 2)]]),
                                      "b": Matrix([[Fraction(1, 4)]])},
                      {"a": 0, "b": 0}, 2), "all", 2, 1, 3)
def test_oracle_reads_each_point_of_a_length_once(mp, language, degree, min_len, window):
    # the same result as inserting every word, `words_used` included
    predicate, dfa = _language(mp, language)
    got = _oracle_over_words(mp.dim, degree, word_frontier(mp, predicate, dfa, MAX_LEN),
                             min_len, Caps(window=window))
    assert got == _every_word_oracle(mp, predicate, dfa, degree, min_len, window)


def test_long_words_do_not_recurse():
    # a prefix's image is one product with its parent's and the suffix table
    # is filled a length at a time, so the word length is not bounded by the
    # recursion limit, also when no prefix of the word is itself in the
    # language.  The limit is lowered to 100 frames past this one, far below
    # the 600 letters of either half of a 1,200-letter word
    mp = MorphismPair(("a",), 2, {"a": Matrix([[1, 1], [0, 1]])}, {"a": 0})
    chain = Nfa(tuple(range(1201)), ("a",), frozenset({0}), frozenset({1200}),
                frozenset((i, "a", i + 1) for i in range(1200)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        every = oracle_closure(mp, "all", 1, 1200)
        one = oracle_closure(mp, "all", 1, 1200, nfa=chain)
    finally:
        sys.setrecursionlimit(limit)
    assert every.words_used == 1201 and every.max_len == 1200
    assert one.words_used == 1
    assert one.space == finite_vanishing_space([mp.image(("a",) * 1200)], 1)


def test_frontier_nodes_do_not_copy_their_words():
    # rvsc2_phi1_reach: to length 22 the oracle reads 911 words and to 26
    # 4,787.  A frontier that held a node per prefix, each with its parent's
    # image, peaked near 0.3 MB at 22 and 1.25 MB at 26 under tracemalloc
    # (1.5 MB at 22 when a node copied its word, 3.4 MB at 26 when it also
    # made the nodes completing only past 26).  Meeting in the middle holds
    # one layer of half-length prefixes and a table of suffixes, of which the
    # last length keeps only what it reads; it peaks near 0.25 MB at 22 and
    # 1.25 MB at 26, mostly the last length's words
    instance = load_instance(os.path.join(
        os.path.dirname(__file__), "..", "src", "zclosure", "corpus", "rvsc2_phi1_reach.json"
    ))
    mp, dfa = vass_to_constrained(instance.vass, instance.mp)
    for max_len, words, bound in ((22, 911, 1_000_000), (26, 4787, 2_000_000)):
        tracemalloc.start()
        try:
            o = oracle_closure(mp, "reach", 2, max_len, nfa=dfa)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (o.words_used, o.max_len) == (words, max_len)
        assert peak < bound, f"oracle peak {peak} bytes at length {max_len}"


def test_a_stopped_oracle_builds_no_length_past_its_stop():
    # the corpus rvsc2_phi1_reach under default caps stops stabilized at
    # length 30, with the frontier bounded at 40.  A frontier that queued
    # the children of length 30's prefixes (43,263 nodes for 31 ... 40)
    # peaked at 20 MB under tracemalloc; building a length only when it is
    # asked for peaks near 6.7 MB
    instance = load_instance(os.path.join(
        os.path.dirname(__file__), "..", "src", "zclosure", "corpus", "rvsc2_phi1_reach.json"
    ))
    mp, dfa = vass_to_constrained(instance.vass, instance.mp)
    assert instance.caps == DEFAULT_CAPS and DEFAULT_CAPS.oracle_extend == 40
    tracemalloc.start()
    try:
        result = pipeline(mp, instance.mode, instance.degree, instance.caps, dfa)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.oracle_max_len == 30 and result.oracle_stabilized
    assert peak < 10_000_000, f"pipeline peak {peak} bytes"
