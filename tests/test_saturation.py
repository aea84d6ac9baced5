"""Warm-started counter saturation against a cold reference.

`cold_window` rebuilds the window's least fixpoint from the seed at every
bound and merges the accepting configurations' spans afterwards;
`cold_saturation` compares the windows by their canonical RREF rows.  The
warm-started `_window_rows` must give the same accepted span after every
bound, and `counter_saturation` the same bound and space.
"""
from collections import deque
from fractions import Fraction
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_apply_map, unipotent_morphism
from zclosure.automata import Nfa
from zclosure.closure import (
    Caps,
    Span,
    _check_budget,
    _cleared,
    _integer_maps,
    _moves,
    _vanishing,
    _window_rows,
    apply_map,
    counter_saturation,
    run_saturation,
    veronese,
)
from zclosure.errors import InfeasibleError, PreconditionError
from zclosure.exactlin import Matrix, dense, span_of
from zclosure.lang import MorphismPair
from zclosure.polys import monomial_basis


def cold_window(mp, degree, mode, dfa, bound, caps, maps):
    lo = -bound if mode == "zero" else 0
    n = len(monomial_basis(mp.dim * mp.dim, degree))
    nstates = len(dfa.states) * (bound - lo + 1)
    _check_budget(nstates, n, caps, f"{mode} saturation at counter bound {bound}")
    spans = {}
    seed = _cleared(veronese(Matrix.identity(mp.dim), degree))
    delta = {(q, a): q2 for q, a, q2 in dfa.transitions}
    (initial,) = dfa.initial
    queue = [((initial, 0), seed)]
    while queue:
        (q, c), v = queue.pop()
        span = spans.get((q, c))
        if span is None:
            span = spans[(q, c)] = Span(n)
        if not span.insert(v):
            continue
        for a in mp.alphabet:
            c2 = c + mp.omega[a]
            if lo <= c2 <= bound:
                queue.append(((delta[(q, a)], c2), dense_apply_map(maps[a], v)))
    acc = Span(n)
    for (q, c), span in sorted(spans.items(), key=lambda kv: str(kv[0])):
        if q in dfa.accepting and (mode == "cover" or c == 0):
            for row in span.rows:
                acc.insert(dense(row, n))
    return acc.basis()


def cold_saturation(mp, degree, mode, dfa, caps):
    maps = _integer_maps(mp, degree)
    history = []
    for bound in range(2, caps.counter + 1):
        history.append(cold_window(mp, degree, mode, dfa, bound, caps, maps))
        if len(history) >= caps.window + 1 and all(
            history[-1] == history[-k] for k in range(2, caps.window + 2)
        ):
            n = len(monomial_basis(mp.dim * mp.dim, degree))
            return _vanishing(mp.dim, degree, span_of(n, history[-1])), bound
    raise InfeasibleError("did not stabilize")


ENTRIES = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                           Fraction(1, 2)])


@st.composite
def instances(draw):
    d = draw(st.integers(1, 2))
    k = draw(st.integers(1, 3))
    alphabet = tuple("abc"[:k])
    phi = {a: Matrix([[draw(ENTRIES) for _ in range(d)] for _ in range(d)])
           for a in alphabet}
    omega = {a: draw(st.sampled_from([-1, 0, 1])) for a in alphabet}
    mp = MorphismPair(alphabet, d, phi, omega, 2)
    mode = draw(st.sampled_from(["cover", "reach", "zero"]))
    dfa = Nfa.universal(alphabet)
    if draw(st.booleans()):
        states = (0, 1)
        transitions = frozenset((q, a, draw(st.sampled_from(states)))
                                for q in states for a in alphabet)
        accepting = frozenset(draw(st.sets(st.sampled_from(states), min_size=1)))
        dfa = Nfa(states, alphabet, frozenset({0}), accepting, transitions)
    degree = draw(st.integers(1, 2))
    return mp, degree, mode, dfa


def warm_dims_equal_cold(mp, degree, mode, dfa, counter):
    """Run the warm-started windows for bounds 2..counter, check each
    accepted span against the cold one, and return the dimensions."""
    caps = Caps(counter=counter)
    maps = _integer_maps(mp, degree)
    n = len(monomial_basis(mp.dim * mp.dim, degree))
    seed = _cleared(veronese(Matrix.identity(mp.dim), degree))
    accepted = Span(n)
    moves = _moves(dfa, {a: partial(apply_map, cols) for a, cols in maps.items()}, mp.omega)
    window = ({}, accepted, deque([((initial, 0), seed) for initial in dfa.initial]), {})
    dims = []
    for bound in range(2, counter + 1):
        dims.append(_window_rows(mode, dfa, moves, bound, caps, window))
        cold = cold_window(mp, degree, mode, dfa, bound, caps, maps)
        assert dims[-1] == len(cold)
        assert accepted.basis() == cold
    return dims


@settings(max_examples=60, deadline=None)
@given(instances())
def test_warm_windows_equal_cold_windows(case):
    warm_dims_equal_cold(*case, counter=8)


@pytest.mark.parametrize("mode, weight", [("reach", 1), ("zero", -1), ("cover", 1)])
def test_pushes_refused_at_the_edge_are_replayed(mode, weight):
    # a^k c^k with phi(a) = 2, phi(c) = 1: the words in window b have the
    # points 2^0 .. 2^b, so at degree 4 the span grows by one per bound
    # until it fills all 5 coordinates; a^(b+1) exists only through the
    # push that window b refused at counter +-(b+1)
    mp = MorphismPair(("a", "c"), 1, {"a": Matrix([[2]]), "c": Matrix([[1]])},
                      {"a": weight, "c": -weight}, 2)
    transitions = frozenset({("p", "a", "p"), ("p", "c", "r"), ("r", "a", "x"), ("r", "c", "r"),
                             ("x", "a", "x"), ("x", "c", "x")})
    dfa = Nfa(("p", "r", "x"), ("a", "c"), frozenset({"p"}), frozenset({"p", "r"}), transitions)
    dims = warm_dims_equal_cold(mp, 4, mode, dfa, counter=6)
    assert dims[:3] == [3, 4, 5]


@settings(max_examples=60, deadline=None)
@given(instances(), st.integers(0, 3))
def test_counter_saturation_follows_the_cold_rule(case, window):
    mp, degree, mode, dfa = case
    caps = Caps(counter=9, window=window)
    try:
        expected = cold_saturation(mp, degree, mode, dfa, caps)
    except InfeasibleError:
        with pytest.raises(InfeasibleError, match="did not stabilize"):
            counter_saturation(mp, degree, mode, dfa, caps)
        return
    assert counter_saturation(mp, degree, mode, dfa, caps) == expected


def test_budget_trips_at_the_same_bound():
    # d = 2, degree 2: 15 coordinates; bound b has b + 1 reach configurations,
    # so a budget of 15 x 4 admits bounds 2 and 3 and trips at bound 4, before
    # the earliest possible stop at bound 5
    mp = unipotent_morphism().with_eta(2)
    with pytest.raises(InfeasibleError, match=r"at counter bound 4: .*budget 60"):
        counter_saturation(mp, 2, "reach", None, Caps(budget=60))


def test_small_counter_cap_does_not_stabilize():
    mp = unipotent_morphism().with_eta(2)
    with pytest.raises(InfeasibleError, match="did not stabilize within counter bound 4"):
        counter_saturation(mp, 2, "reach", None, Caps(counter=4))


def test_window_zero_returns_at_bound_two():
    mp = unipotent_morphism().with_eta(2)
    space, bound = counter_saturation(mp, 2, "reach", None, Caps(window=0))
    assert bound == 2
    assert (space, bound) == cold_saturation(mp, 2, "reach", Nfa.universal(mp.alphabet),
                                             Caps(window=0))


def test_saturation_refuses_a_nondeterministic_automaton_before_it_runs():
    # the oracle reads only deterministic automata; the refusal comes before
    # any window is built
    mp = MorphismPair(("a", "b"), 1, {"a": Matrix([[2]]), "b": Matrix([[1]])},
                      {"a": 1, "b": -1}, 2)
    nfa = Nfa((0, 1), ("a", "b"), frozenset({0}), frozenset({1}),
              frozenset({(0, "a", 0), (0, "a", 1), (1, "b", 1)}))
    with mock.patch("zclosure.closure.counter_saturation") as saturation:
        with pytest.raises(PreconditionError, match="deterministic"):
            run_saturation(mp, "cover", 1, Caps(), nfa)
    saturation.assert_not_called()
