"""The exact shortcuts of the engine's stages and of the oracle.

The product-alphabet stage runs from the seed's projection onto the diagonal
degree blocks; `conftest.unprojected_gamma_rows` runs it from the whole seed.
The cover and regular stages stop once their accepted span reaches dim U, U
the span over every word (`closure._all_words_dim`); with that function
patched to give no target they run to their ends.  Each shortcut must give
the same basis as the stage without it.  The saturation windows run no
fixpoint once one has reached dim U (`test_saturation` checks their answers
against a cold reference); here the fixpoint calls are counted, and on the
corpus `rvsc2_phi1_reach` so are the oracle's inserts, one per distinct
point of each length.  Two pinned runs are ones the shortcuts take from
minutes or seconds to a fraction of a second.
"""
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import powers_morphism, unipotent_morphism, unprojected_gamma_rows
from zclosure import closure
from zclosure.automata import Nfa
from zclosure.cli import load_instance
from zclosure.closure import (
    Caps, _gamma_condition_rows, _nfa_span_rows, _threshold_rows, counter_saturation,
    pipeline,
)
from zclosure.errors import InfeasibleError, InternalInvariantError
from zclosure.exactlin import Matrix, Span
from zclosure.lang import MorphismPair
from zclosure.polys import space_to_generators
from zclosure.reduction import vass_to_constrained

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
ENTRIES = st.sampled_from([Fraction(x) for x in (0, 1, -1, 2, 3)] + [Fraction(1, 2)])
WEIGHTS = st.sampled_from([-1, 0, 1])


def _pair(letters, weights, eta):
    alphabet = tuple("abc"[:len(letters)])
    return MorphismPair(alphabet, len(letters[0]), {a: Matrix(m) for a, m in zip(alphabet, letters)},
                        dict(zip(alphabet, weights)), eta)


# the corpus zero entry's letters, and "shift": d = 3, whose cover answer
# (dimension 25) lies strictly inside U (dimension 40)
BALANCED = ([[2]], [[Fraction(1, 2)]]), (1, -1)
SHIFT_A = [[0, 1, 0], [0, 1, 1], [0, 0, 1]]
SHIFT = (SHIFT_A, [list(r) for r in zip(*SHIFT_A)]), (1, -1)


def _without_exit(stage):
    with mock.patch("zclosure.closure._all_words_dim", lambda steps, seed: None):
        return stage()


@st.composite
def _gamma_d1(draw):
    degree = draw(st.integers(1, 2))
    letters = draw(st.lists(ENTRIES.map(lambda x: [[x]]), min_size=1, max_size=3))
    weights = [draw(WEIGHTS) for _ in letters]
    return _pair(letters, weights, draw(st.integers(1, 3 if degree == 1 else 2))), degree


@settings(max_examples=40, deadline=None)
@given(_gamma_d1())
def test_projected_gamma_stage_matches_unprojected_d1(case):
    mp, degree = case
    want = unprojected_gamma_rows(mp, degree).basis()
    assert _gamma_condition_rows(mp, degree, Caps()).basis() == want


@st.composite
def _gamma_d2(draw):
    # 625 tensor coordinates at degree 1, affordable from the whole seed for
    # one letter of weight 0 (which mixes the coordinates of a block) or for
    # diagonal letters of any weight; a weighted letter next to a full one,
    # or two full ones, take the reference 5 to 15 s
    if draw(st.booleans()):
        return _pair([[[draw(ENTRIES) for _ in range(2)] for _ in range(2)]], [0], 1)
    diagonal = draw(st.lists(st.tuples(ENTRIES, ENTRIES), min_size=1, max_size=3))
    return _pair([[[x, 0], [0, y]] for x, y in diagonal], [draw(WEIGHTS) for _ in diagonal],
                 draw(st.integers(1, 2)))


@settings(max_examples=10, deadline=None)
@given(_gamma_d2())
@example(_pair([[[1, 1], [0, 1]]], [0], 1))
@example(_pair([[[2, 0], [0, 1]], [[Fraction(1, 2), 0], [0, 3]]], [1, -1], 2))
def test_projected_gamma_stage_matches_unprojected_d2(mp):
    want = unprojected_gamma_rows(mp, 1).basis()
    assert _gamma_condition_rows(mp, 1, Caps()).basis() == want


def test_a_pullback_off_the_diagonal_blocks_fails_loudly():
    # d = 1, degree 1: coordinate 0 is x (degree 1), 1 the constant, so
    # tensor coordinate 1, (0, 0, 0, 1), mixes degrees 1 and 0
    with mock.patch("zclosure.closure._mu_pullback_rows", lambda d, degree: [{1: 1}]):
        with pytest.raises(InternalInvariantError, match="off-diagonal"):
            _gamma_condition_rows(powers_morphism(), 1, Caps())


@st.composite
def _threshold_cases(draw):
    d = draw(st.integers(1, 2))
    letters = draw(st.lists(st.lists(st.lists(ENTRIES, min_size=d, max_size=d),
                                     min_size=d, max_size=d), min_size=1, max_size=3))
    weights = [draw(WEIGHTS) for _ in letters]
    return _pair(letters, weights, draw(st.sampled_from([1, 2, 3, 5]))), draw(st.integers(1, 2))


@settings(max_examples=60, deadline=None)
@given(_threshold_cases())
@example((_pair(*BALANCED, 1), 1))
@example((_pair(*BALANCED, 2), 2))
@example((_pair(*SHIFT, 4), 2))
def test_cover_stage_exit_keeps_the_basis(case):
    mp, degree = case
    want = _without_exit(lambda: _threshold_rows(mp, degree, Caps())).basis()
    assert _threshold_rows(mp, degree, Caps()).basis() == want


@st.composite
def _regular_cases(draw):
    mp, degree = draw(_threshold_cases())
    states = (0, 1, 2)
    nfa = Nfa(
        states, mp.alphabet,
        frozenset(draw(st.sets(st.sampled_from(states), min_size=1, max_size=2))),
        frozenset(draw(st.sets(st.sampled_from(states), min_size=1))),
        frozenset(draw(st.sets(st.tuples(st.sampled_from(states), st.sampled_from(mp.alphabet),
                                         st.sampled_from(states)), max_size=9))),
    )
    return mp, nfa, degree


@settings(max_examples=60, deadline=None)
@given(_regular_cases())
@example((_pair(*SHIFT, 4), Nfa.universal(("a", "b")), 2))
@example((_pair(*SHIFT, 4), Nfa((0, 1), ("a", "b"), frozenset({0}), frozenset({1}),
                                frozenset({(0, "a", 1), (1, "b", 0)})), 2))
def test_regular_stage_exit_keeps_the_basis(case):
    mp, nfa, degree = case
    want = _without_exit(lambda: _nfa_span_rows(nfa, mp, degree, Caps())).basis()
    assert _nfa_span_rows(nfa, mp, degree, Caps()).basis() == want


def _counting_fixpoints():
    """A stand-in for `closure._fixpoint` that runs it and records each
    call's arguments after the run, and the list it records them in."""
    engine, made = closure._fixpoint, []

    def counted(*args):
        made.append(args)
        engine(*args)

    return counted, made


@pytest.mark.parametrize("mp, degree, dims, calls", [
    # eta = 1: the counters [0, 0] fall short of U, the top reaches it
    (_pair(*BALANCED, 1), 1, (2, 2), 3),
    # eta = 2: the counters [0, 1] reach U, and the top call is skipped
    (_pair(*BALANCED, 2), 1, (2, 2), 2),
    # the answer lies inside U: no exit, both calls run to their ends
    (_pair(*SHIFT, 4), 2, (25, 40), 3),
])
def test_where_the_cover_exit_fires(mp, degree, dims, calls):
    # the calls are U's own fixpoint, the counters [0, eta - 1] and the top
    counted, made = _counting_fixpoints()
    with mock.patch("zclosure.closure._fixpoint", counted):
        stage = _threshold_rows(mp, degree, Caps())
    assert (stage.dim, made[1][-1]) == dims and len(made) == calls


@pytest.mark.parametrize("mp, mode, bound, dims, calls", [
    # the bound-2 window reaches dim U = 14: bounds 3, 4 and 5 run no fixpoint
    (unipotent_morphism(2), "reach", 5, (14, 14), 2),
    # bound 2 reaches 11 of dim U = 15 and bound 3 the rest: 4, 5 and 6 run none
    (_pair(([[1, 1], [0, 1]], [[0, 1], [1, 0]]), (1, 0), 2), "cover", 6, (15, 15), 3),
    # every reach word maps to 1, dimension 1 of dim U = 3: bounds 2 to 5 all run
    (powers_morphism(2), "reach", 5, (1, 3), 5),
])
def test_where_the_saturation_exit_fires(mp, mode, bound, dims, calls):
    # the calls are U's own fixpoint, then one per window until one reaches U;
    # every bound still checks its budget and records its dimension
    counted, made = _counting_fixpoints()
    with mock.patch("zclosure.closure._fixpoint", counted):
        _, stop = counter_saturation(mp, 2, mode, None, Caps())
    run, target = made[-1][0], made[-1][-1]
    assert (stop, (run[1].dim, target), len(made)) == (bound, dims, calls)


def test_a_refused_stage_never_computes_u():
    # the budget check comes first, so an over-cap stage exits 3 as before
    with mock.patch("zclosure.closure._all_words_dim", side_effect=AssertionError):
        with pytest.raises(InfeasibleError, match="exceeds the budget 1;"):
            _threshold_rows(powers_morphism(), 1, Caps(budget=1))
        with pytest.raises(InfeasibleError, match="exceeds the budget 1;"):
            _nfa_span_rows(Nfa.universal(("a", "b")), powers_morphism(), 1, Caps(budget=1))
        # d = 1, degree 1: 2 coordinates on one state pass the stage's check,
        # and the bound-2 reach window's 3 counters x 2 exceed a budget of 5
        with pytest.raises(InfeasibleError, match="at counter bound 2: .*budget 5;"):
            counter_saturation(powers_morphism(2), 1, "reach", None, Caps(budget=5))


def test_corpus_rvsc2_phi1_reach_work_counts():
    # saturation: bounds 2 to 6, and fixpoints for U, bound 2 and bound 3,
    # which reaches dim U = 9; the oracle: 26,105 words to length 30, and one
    # insert per distinct point of each length, 10,043 in all
    instance = load_instance(os.path.join(SRC, "zclosure", "corpus", "rvsc2_phi1_reach.json"))
    mp, dfa = vass_to_constrained(instance.vass, instance.mp)
    counted, made = _counting_fixpoints()
    window_rows, frontier, insert = closure._window_rows, closure.word_frontier, Span.insert
    bounds, inserts, lengths = [], [0], []

    def window(mode, nfa, moves, bound, *args):
        bounds.append(bound)
        return window_rows(mode, nfa, moves, bound, *args)

    def counting_insert(span, v):
        inserts[0] += 1
        return insert(span, v)

    def words(*args):  # each length's words, distinct points and inserts before it
        for length in frontier(*args):
            lengths.append((len(length), len({(s, *image) for _, image, s in length}),
                            inserts[0]))
            yield length

    with mock.patch("zclosure.closure._fixpoint", counted), \
            mock.patch("zclosure.closure._window_rows", window), \
            mock.patch("zclosure.closure.word_frontier", words), \
            mock.patch.object(Span, "insert", counting_insert):
        result = pipeline(mp, instance.mode, instance.degree, instance.caps, dfa)
    assert (result.counter_bound, result.oracle_max_len) == (6, 30)
    assert bounds == [2, 3, 4, 5, 6]
    assert [args[4:] for args in made] == [(0, 0), (0, 2, 9), (0, 3, 9)]
    marks = [mark for _, _, mark in lengths] + [inserts[0]]
    assert [b - a for a, b in zip(marks, marks[1:])] == [distinct for _, distinct, _ in lengths]
    assert (sum(n for n, _, _ in lengths), marks[-1] - marks[0]) == (26_105, 10_043)


# A child forked from this test process would count the test process's
# resident pages in its peak RSS, so a small process starts the run and
# reports its exit code, output, wall time and peak RSS.
_MEASURE = """
import json, os, subprocess, sys, time
t0 = time.monotonic()
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE, text=True)
out = proc.stdout.read()
_, status, usage = os.wait4(proc.pid, 0)
print(json.dumps([os.waitstatus_to_exitcode(status), out, time.monotonic() - t0,
                  usage.ru_maxrss]))
"""


def _closure_run(tmp_path, doc):
    """`closure run` on the instance `doc` in a fresh process: (exit code,
    report without `timings`, wall seconds, the run's peak RSS in MB)."""
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _MEASURE, sys.executable, "-m", "zclosure.cli", "run", str(path)],
        capture_output=True, text=True, env=env, check=True)
    code, out, elapsed, peak_kb = json.loads(proc.stdout)
    report = json.loads(out)
    report.pop("timings", None)
    return code, report, elapsed, peak_kb / 1024


def test_d3_guaranteed_cover_run(tmp_path):
    # the rvsc2 phi2 letters at the default eta = 262,145: the counter stage
    # took 74 s and 890 MB before its exit at dim U (10 of 55 coordinates)
    a = [["1", "1", "0"], ["0", "1", "1"], ["0", "0", "1"]]
    b = [["1", "-1", "0"], ["0", "1", "1"], ["0", "0", "1"]]
    doc = {"dimension": 3, "alphabet": ["a", "b"], "phi": {"a": a, "b": b},
           "omega": {"a": 1, "b": -1}, "mode": "cover", "degree": 2,
           "caps": {"budget": 20_000_000}}
    code, report, elapsed, peak_mb = _closure_run(tmp_path, doc)
    assert code == 0 and report["eta_used"] == 262_145
    assert len(report["generators"]) == report["vanishing_dimension"] == 45
    # U's annihilator, from the oracle's direct products over every word
    mp = MorphismPair(("a", "b"), 3, {"a": Matrix(a), "b": Matrix(b)}, {"a": 1, "b": -1}, 2)
    oracle = closure.oracle_closure(mp, "all", 2, 8)
    assert oracle.stabilized
    assert report["generators"] == list(space_to_generators(oracle.space).generators)
    assert elapsed < 1.0, f"{elapsed:.2f} s"
    assert peak_mb < 50, f"{peak_mb:.1f} MB"


def test_zero3_report(tmp_path):
    # "zero3": its product-alphabet stage stored 5,589 rows over all 3^4
    # tensor coordinates (2.5 s of a 3.2 s run), and 207 on the diagonal blocks
    doc = {"dimension": 1, "alphabet": ["a", "b"], "phi": {"a": [["3"]], "b": [["-1"]]},
           "omega": {"a": 1, "b": -1}, "mode": "zero", "degree": 2}
    code, report, _, _ = _closure_run(tmp_path, doc)
    assert code == 0
    assert report == {  # as recorded before the projection
        "mode": "zero", "degree": 2, "eta_used": 17, "method": "bz+flat", "generators": [],
        "vanishing_dimension": 0, "oracle_checked": False, "oracle_max_len": None,
        "oracle_stabilized": None, "counter_bound": None,
    }
    mp = _pair(([[3]], [[-1]]), (1, -1), 0)
    t0 = time.monotonic()
    _gamma_condition_rows(mp, 2, Caps())
    assert time.monotonic() - t0 < 0.5
