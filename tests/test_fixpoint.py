"""Residual pushes against raw pushes.

`_fixpoint` pushes, accepts and parks the row a span stored when a vector
grew it: the vector's primitive residual against the configuration's earlier
rows.  `conftest.raw_fixpoint` pushes the vector itself, with the dense
reference maps for steps.  Each stage runs once on either; after every
fixpoint call the span at every configuration (q, c), and the accepted span,
must have the same canonical basis.  Both map a push when it is popped, so
the queue holds (configuration, step, vector) either way.  Each stage runs
without its exit at dim U, so that every call runs to its end; the regular,
cover and saturation stages run once more with the exit, which may fire at
different pops in the two engines: a call with a target is then compared by
its accepted span only.  Both replay the parked pushes a call's counter
range admits, and only those, which a hand-made run checks.
"""
from collections import deque
from contextlib import ExitStack
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_apply_map, dense_tensor_apply, raw_fixpoint
from zclosure import closure, saturation
from zclosure.automata import Nfa
from zclosure.closure import Caps
from zclosure.errors import InfeasibleError
from zclosure.exactlin import Matrix, Span, dense
from zclosure.lang import MorphismPair

ENTRIES = st.sampled_from([Fraction(x) for x in (0, 1, -1, 2, 3)] + [Fraction(1, 2)])


def test_a_call_replays_only_the_parked_pushes_in_its_range():
    # a hand-made run on one state without moves: the range [0, 2] maps and
    # queues the push parked at counter 1, and the one at 5 stays parked,
    # unmapped
    mapped = []

    def step(row):
        mapped.append(row)
        return dense(row, 2)

    inside, outside = ("q", ((0,), (1,)), step), ("q", ((1,), (1,)), step)
    run = ({}, Span(2), deque(), {1: [inside], 5: [outside]})
    closure._fixpoint(run, {"q": []}, {"q"}, False, 0, 2)
    spans, accepted, queue, parked = run
    assert mapped == [((0,), (1,))]
    assert list(spans) == [("q", 1)] and accepted.basis() == spans[("q", 1)].basis()
    assert accepted.dim == 1 and not queue
    assert parked == {5: [outside]}


def _snapshots(stage, residual: bool, stop: bool) -> list:
    """The bases after each fixpoint call of `stage()`: per configuration,
    and of the accepted span.  Without `stop`, U's own fixpoint still runs
    (and is recorded) but the stage gets no target, so neither a call nor a
    saturation window stops at dim U.  With it, a call with a target may
    return at a different pop in either engine, so its snapshot keeps only
    the accepted span."""
    out = []
    engine, all_words_dim = closure._fixpoint, closure._all_words_dim

    def recording(run, moves, accepting, exact, lo, hi, target=None):
        stops = stop and target is not None
        (engine if residual else raw_fixpoint)(
            run, moves, accepting, exact, lo, hi, target if stops else None)
        spans, accepted, _, _ = run
        out.append((None if stops else {key: span.basis() for key, span in spans.items()},
                    accepted.basis()))

    def no_target(steps, seed):
        all_words_dim(steps, seed)

    with ExitStack() as stack:
        stack.enter_context(mock.patch("zclosure.closure._fixpoint", recording))
        stack.enter_context(mock.patch("zclosure.saturation._fixpoint", recording))
        if not stop:
            stack.enter_context(mock.patch("zclosure.closure._all_words_dim", no_target))
        if not residual:
            stack.enter_context(mock.patch("zclosure.closure.apply_map", dense_apply_map))
            stack.enter_context(mock.patch("zclosure.closure._tensor_apply", dense_tensor_apply))
        try:
            stage()
        except InfeasibleError:  # a window that did not stabilize by its last bound
            pass
    return out


def _assert_same_spans(stage, stops=(False,)):
    for stop in stops:
        residual, raw = _snapshots(stage, True, stop), _snapshots(stage, False, stop)
        assert residual and residual == raw


@st.composite
def _instances(draw, d_max=2, eta=2):
    d = draw(st.integers(1, d_max))
    alphabet = tuple("abc"[:draw(st.integers(1, 3))])
    mp = MorphismPair(
        alphabet, d,
        {a: Matrix([[draw(ENTRIES) for _ in range(d)] for _ in range(d)]) for a in alphabet},
        {a: draw(st.sampled_from([-1, 0, 1])) for a in alphabet},
        eta,
    )
    states = (0, 1, 2)
    nfa = Nfa(
        states, alphabet,
        frozenset(draw(st.sets(st.sampled_from(states), min_size=1, max_size=2))),
        frozenset(draw(st.sets(st.sampled_from(states), min_size=1))),
        frozenset(draw(st.sets(st.tuples(st.sampled_from(states), st.sampled_from(alphabet),
                                         st.sampled_from(states)), max_size=9))),
    )
    return mp, nfa, draw(st.integers(1, 2))


@settings(max_examples=40, deadline=None)
@given(_instances())
def test_regular_moves_keep_every_span(case):
    mp, nfa, degree = case
    _assert_same_spans(lambda: closure._nfa_span_rows(nfa, mp, degree, Caps()), (False, True))


@settings(max_examples=25, deadline=None)
@given(case=_instances())
def test_threshold_stages_keep_every_span(case):
    # the cover stage parks its pushes past eta - 1 and replays them at the top
    mp, _, degree = case
    _assert_same_spans(lambda: closure._threshold_rows(mp, degree, Caps()), (False, True))


@pytest.mark.parametrize("mode", ["cover", "reach", "zero"])
@settings(max_examples=25, deadline=None)
@given(case=_instances())
def test_saturation_windows_keep_every_span(mode, case):
    # bounds 2..4: each bound replays the parked pushes it newly admits
    mp, nfa, degree = case
    _assert_same_spans(
        lambda: saturation.counter_saturation(mp, degree, mode, nfa, Caps(counter=4)), (False, True))


@settings(max_examples=20, deadline=None)
@given(_instances(d_max=1, eta=1), st.integers(1, 2))
def test_single_track_gamma_moves_keep_every_span(case, eta):
    mp, _, degree = case
    mp = mp.with_eta(eta)
    _assert_same_spans(lambda: closure._gamma_condition_rows(mp, degree, Caps()))
