import itertools
import random
import time
from collections import deque
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    contains_poly,
    dense_apply_map,
    dense_tensor_apply,
    powers_morphism,
    random_matrix,
    rref,
    sparse,
    unipotent_morphism,
)
from zclosure.automata import Nfa
from zclosure.commands import recurrence_chain
from zclosure.constructions import (
    build_bz_automaton,
    build_cover_automaton,
    determinize,
    gamma_alphabet,
    gamma_weight,
)
from zclosure.closure import (
    Caps,
    Span,
    _cleared,
    _fixpoint,
    _gamma_condition_rows,
    _integer_maps,
    _mu_pullback_rows,
    _nfa_span_rows,
    _tensor_apply,
    _tensor_index,
    _threshold_rows,
    _vanishing,
    apply_map,
    letter_map,
    pipeline,
    regular_closure,
    veronese,
)
from zclosure.errors import InfeasibleError, OracleDisagreementError, PreconditionError
from zclosure.exactlin import Matrix, Subspace, dense, kernel_basis, span_of
from zclosure.ideals import gens_from_strings, ideal_slice, parse_poly
from zclosure.lang import MorphismPair
from zclosure.oracle import finite_vanishing_space, oracle_closure
from zclosure.polys import PolySpace, space_to_generators
from zclosure.saturation import counter_saturation
from zclosure.stable import rank


def test_finite_vanishing_examples():
    s = finite_vanishing_space([Matrix.identity(2)], 1)
    for text in ("x11 - 1", "x12", "x21", "x22 - 1"):
        assert contains_poly(s, parse_poly(text, 2))
    assert s.space_dim == 4

    s = finite_vanishing_space([Matrix([[1]]), Matrix([[2]])], 2)
    assert s.space_dim == 1
    assert contains_poly(s, parse_poly("x11^2 - 3*x11 + 2", 1))

    assert finite_vanishing_space([], 2, dim=2) == PolySpace.full(2, 2)


def _mapped(a, m, degree):
    return tuple(apply_map(letter_map(a, degree), sparse(veronese(m, degree))))


def test_veronese_transition_maps_are_exact():
    rng = random.Random(23)
    for _ in range(100):
        d = rng.choice([1, 2, 3])
        degree = rng.choice([1, 2, 3])
        if d == 3 and degree == 3:
            degree = 2  # keep the suite quick; d=3,D=3 covered below
        m = random_matrix(rng, d)
        a = random_matrix(rng, d)
        assert veronese(m * a, degree) == _mapped(a, m, degree)
    m = random_matrix(rng, 3)
    a = random_matrix(rng, 3)
    assert veronese(m * a, 3) == _mapped(a, m, 3)
    # sparse and triangular matrices: nu_3(m) has zero coordinates, which
    # its sparse row leaves out
    for _ in range(6):
        m, a = (Matrix([[rng.choice([0, 0, 0, 1, -2, Fraction(1, 2)]) for _ in range(3)]
                        for _ in range(3)]) for _ in range(2))
        assert veronese(m * a, 3) == _mapped(a, m, 3)
        m, a = (Matrix([[rng.randint(-2, 2) if j >= i else 0 for j in range(3)]
                        for i in range(3)]) for _ in range(2))
        assert 0 in veronese(m, 3)
        assert veronese(m * a, 3) == _mapped(a, m, 3)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 2), st.integers(1, 3))
def test_sparse_map_kernels_match_dense_references(data, d, degree):
    # random letters and sparse integer rows, often zero at the leading
    # coordinates; every tensor factor f
    entries = st.integers(-3, 3)
    a = [[data.draw(entries) for _ in range(d)] for _ in range(d)]
    cols = letter_map(a, degree)
    n = len(cols)

    def rows(length):
        skip = data.draw(st.integers(0, length - 1))
        support = data.draw(st.lists(st.integers(skip, length - 1), unique=True, max_size=6))
        v = [0] * length
        for k in support:
            v[k] = data.draw(entries.filter(bool))
        return v

    v = rows(n)
    assert apply_map(cols, sparse(v)) == dense_apply_map(cols, v)
    if n <= 10:  # n^4 tensor coordinates
        t = rows(n ** 4)
        for f in range(4):
            assert _tensor_apply(cols, f, sparse(t), n) == dense_tensor_apply(cols, f, t, n)


def test_integer_maps_clear_the_rational_maps():
    # each integer map is the lcm of the rational map's denominators times it
    rng = random.Random(29)
    entries = [0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)]
    for _ in range(12):
        d = rng.choice([1, 2, 3])
        degree = rng.choice([1, 2]) if d == 3 else rng.choice([1, 2, 3])
        mp = MorphismPair(
            ("a", "b"), d,
            {a: Matrix([[rng.choice(entries) for _ in range(d)] for _ in range(d)])
             for a in "ab"},
            {"a": 1, "b": -1},
        )
        maps = _integer_maps(mp, degree)
        for a in "ab":
            rational = letter_map(mp.phi[a], degree)
            m = lcm(*(c.denominator for _, cs in rational for c in cs))
            assert maps[a] == [(ts, tuple(m * c for c in cs)) for ts, cs in rational]
            assert all(type(c) is int for _, cs in maps[a] for c in cs)


_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 2), st.integers(1, 2))
def test_mu_pullback_rows_compose_with_the_four_block_product(data, d, degree):
    # row t . (nu(X1) x nu(X2) x nu(X3) x nu(X4)) = nu(X1 X2 X3 X4)[t]
    square = st.lists(_rationals, min_size=d * d, max_size=d * d)
    entries = data.draw(st.lists(square, min_size=4, max_size=4))
    xs = [Matrix([e[r * d:(r + 1) * d] for r in range(d)]) for e in entries]
    nus = [veronese(x, degree) for x in xs]
    n = len(nus[0])
    want = veronese(xs[0] * xs[1] * xs[2] * xs[3], degree)
    rows = _mu_pullback_rows(d, degree)
    assert len(rows) == n
    for row, w in zip(rows, want):
        got = Fraction(0)
        for idx, c in row.items():
            i1, rest = divmod(idx, n ** 3)
            i2, rest = divmod(rest, n ** 2)
            i3, i4 = divmod(rest, n)
            got += c * nus[0][i1] * nus[1][i2] * nus[2][i3] * nus[3][i4]
        assert got == w


@st.composite
def _vector_streams(draw):
    """Rational vectors with zero vectors, duplicates, scaled copies, mixed
    denominators, one or two nonzero entries and, often, enough independent
    rows to fill the space."""
    n = draw(st.integers(1, 6))
    out: list[list[Fraction]] = []
    for _ in range(draw(st.integers(0, 3 * n))):
        kind = draw(st.sampled_from(("random", "zero", "copy", "unit", "sparse")))
        if kind == "zero":
            out.append([Fraction(0)] * n)
        elif kind == "sparse":
            v = [Fraction(0)] * n
            for k in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)):
                v[k] = draw(_rationals.filter(bool))
            out.append(v)
        elif kind == "copy" and out:
            c = draw(_rationals.filter(bool))
            out.append([c * x for x in draw(st.sampled_from(out))])
        elif kind == "unit":
            k = draw(st.integers(0, n - 1))
            out.append([Fraction(int(i == k)) for i in range(n)])
        else:
            out.append(draw(st.lists(_rationals, min_size=n, max_size=n)))
    return n, out


def _check_annihilator(span):
    """`ann`, once kept: n - dim primitive vectors of full rank, each
    orthogonal to every row."""
    if span.ann is None:
        return
    assert len(span.ann) == span.n - span.dim
    assert len(rref(span.ann)) == len(span.ann)
    for k in span.ann:
        assert gcd(*k) == 1
        assert all(sum(k[i] * x for i, x in zip(*row)) == 0 for row in span.rows)


def _check_rows(rows, n):
    """Each row is a pair of int tuples (support, values): the support is
    exactly its nonzero columns, ascending, so the pivot comes first, and the
    pivot entry is positive."""
    for support, values in rows:
        assert type(support) is tuple and type(values) is tuple
        assert all(type(x) is int for x in support + values)
        assert len(support) == len(values) > 0
        assert list(support) == sorted(set(support)) and 0 <= support[0] <= support[-1] < n
        assert all(values)
        assert values[0] > 0


def _units(n, *ks):
    return [[Fraction(int(i == k)) for i in range(n)] for k in ks]


@settings(max_examples=300, deadline=None)
@given(_vector_streams())
# refused at half dimension, then accepted through the annihilator update
# (k0 = e2 dropped, e3 -> (2 e3 - 2 e2) / 2) and filled up
@example((4, _units(4, 0, 1, 0) + [[Fraction(x) for x in (0, 0, 2, 2)]] + _units(4, 2)))
# back-substitution moves the middle row's support from {1, 2} to {1, 3}
@example((4, [[Fraction(x) for x in r] for r in ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1))]))
# the pivot entry 2 does not divide 1, so the second vector is doubled first
@example((3, [[Fraction(x) for x in r] for r in ((2, 1, 0), (1, 0, 0))]))
def test_integer_span_matches_rational_rref(stream):
    n, vectors = stream
    span = Span(n)
    inserted: list[list[Fraction]] = []
    for v in vectors:
        before = len(rref(inserted))
        inserted.append(v)
        w = _cleared(v)
        assert span.insert(w) == (len(rref(inserted)) > before)
        assert w == _cleared(v)  # the input is copied, not eliminated in place
        assert span.dim == len(rref(inserted))
        _check_rows(span.rows, n)
        _check_annihilator(span)
    want = rref(inserted)
    assert span.basis() == want
    assert Subspace.from_vectors(n, vectors).basis == tuple(want)
    assert rank(Matrix(vectors)) == len(want)
    # a span fed this one's rows, as the accepting-state merge does, leaves
    # them as they were
    rows = list(span.rows)
    merged = Span(n)
    for row in reversed(span.rows):
        merged.insert(dense(row, n))
    assert span.rows == rows
    _check_rows(merged.rows, n)
    assert merged.basis() == want
    # the integer Gauss-Jordan form: primitive rows with positive pivots,
    # each zero at the other pivots, that divide to the RREF rows
    reduced = span.reduced()
    _check_rows(reduced, n)
    pivots = [support[0] for support, _ in reduced]
    assert pivots == [next(k for k, x in enumerate(r) if x) for r in want]
    for (support, values), r in zip(reduced, want):
        assert gcd(*values) == 1
        assert not set(support) & set(pivots) - {support[0]}
        assert [Fraction(x, values[0]) for x in dense((support, values), n)] == list(r)


def _reference_kernel(rows, n):
    """The `Fraction` kernel algorithm: RREF, the free-variable
    parametrization, and the RREF of that."""
    rows = rref(rows)
    pivots = [next(k for k, x in enumerate(r) if x) for r in rows]
    out = []
    for f in range(n):
        if f not in pivots:
            v = [Fraction(0)] * n
            v[f] = Fraction(1)
            for row, p in zip(rows, pivots):
                v[p] = -row[f]
            out.append(v)
    return rref(out)


@settings(max_examples=300, deadline=None)
@given(_vector_streams())
@example((3, [[Fraction(0)] * 3, [Fraction(-2), Fraction(1), Fraction(4)],
              [Fraction(-2), Fraction(1), Fraction(4)]]))  # zero, duplicate, negative lead
@example((2, [[Fraction(0), Fraction(3)], [Fraction(-2), Fraction(1)]]))  # full rank
@example((3, []))  # the empty span: its kernel is the identity basis
def test_kernel_basis_matches_fraction_reference(stream):
    n, vectors = stream
    want = _reference_kernel(vectors, n)
    span = span_of(n, vectors)
    rows, ann = span.rows[:], span.ann and [k[:] for k in span.ann]
    assert kernel_basis(span) == want
    # read off, not eliminated again: the span and a kept annihilator are as they were
    assert span.rows == rows and span.ann == ann
    assert kernel_basis(span_of(n, [_cleared(v) for v in vectors])) == want  # integer rows
    assert len(want) == n - len(rref(vectors))


@settings(max_examples=100, deadline=None)
@given(_vector_streams())
@example((4, _units(4, 0, 1, 2)))
def test_kernel_basis_leaves_a_kept_annihilator_usable(stream):
    # fill to half the dimension, then refuse the zero vector, so that both
    # spans keep `ann`; the kernel reads it and every later insert must
    # behave as on the twin that no kernel read
    n, vectors = stream
    span, twin = Span(n), Span(n)
    for v in vectors:
        if 2 * span.dim >= n:
            break
        span.insert(_cleared(v))
        twin.insert(_cleared(v))
    span.insert([0] * n)
    twin.insert([0] * n)
    assume(span.ann is not None)
    ann = [k[:] for k in span.ann]
    assert kernel_basis(span) == _reference_kernel(span.basis(), n)
    assert span.ann == ann
    for v in _units(n, *range(n)) + vectors:
        assert span.insert(_cleared(v)) == twin.insert(_cleared(v))
    assert span.rows == twin.rows and span.ann == twin.ann


@st.composite
def _growing_streams(draw):
    """Integer vectors: units to half the dimension and the zero vector, so
    that the span keeps `ann`, then vectors whose entries may grow by 2^8
    from one to the next, often a combination of the ones before (refused)
    and otherwise drawn afresh, so the packed vector is rebuilt as they
    outgrow it."""
    n = draw(st.integers(2, 6))
    small = st.integers(-3, 3)
    out = [[int(i == k) for i in range(n)] for k in range((n + 1) // 2)] + [[0] * n]
    for step in range(draw(st.integers(1, 3 * n))):
        scale = 1 << 8 * draw(st.integers(0, step))
        if draw(st.booleans()):
            coefficients = [scale * draw(small) for _ in out]
            out.append([sum(map(mul, coefficients, col)) for col in zip(*out)])
        else:
            out.append([scale * draw(small) + draw(small) for _ in range(n)])
    return n, out


@settings(max_examples=200, deadline=None)
@given(_growing_streams())
# ann = (e2): the packed vector built for |v| < 2 is rebuilt for 256, then
# for 512 once e2 is accepted
@example((3, [[1, 0, 0], [0, 1, 0], [0, 0, 0], [1, 1, 0], [256, 0, 0], [0, 0, 512]]))
# ann = (e2, e3) and v = 2 e2 - e3: k_0.v = 2 and k_1.v = -1 cancel in any
# packing 2 + 2^b * (-1) with b = 1
@example((4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 2, -1]]))
def test_packed_membership_matches_rational_rref(stream):
    n, vectors = stream
    span = Span(n)
    for i, v in enumerate(vectors):
        grows = len(rref(vectors[:i + 1])) > len(rref(vectors[:i]))
        assert span.insert(v) == grows
        _check_annihilator(span)
    assert span.basis() == rref(vectors)


def test_regular_closure_clears_letter_denominators():
    # the fixpoint runs on the integer-cleared map of a letter with
    # denominators; the oracle evaluates phi(a^k) directly
    a = Matrix([[Fraction(1, 2), 1], [0, 3]])
    mp = MorphismPair(("a",), 2, {"a": a}, {"a": 0})
    for degree in (1, 2, 3):
        powers = [Matrix.identity(2)]
        prev = None
        # once nu(a^(L+1)) lies in the span of nu(a^k), k <= L, every later
        # power does too, so the first repeat is the whole language's space
        while True:
            space = finite_vanishing_space(powers, degree)
            if space == prev:
                break
            prev = space
            powers.append(powers[-1] * a)
        engine = regular_closure(Nfa.universal("a"), mp, degree)
        assert engine == space
        assert contains_poly(engine, parse_poly("5*x12 + 2*x11 - 2*x22", 2))


def test_regular_closure_epsilon_only():
    mp = unipotent_morphism()
    eps = Nfa(
        (0, 1), ("a", "b"), frozenset({0}), frozenset({0}),
        frozenset({(0, "a", 1), (0, "b", 1), (1, "a", 1), (1, "b", 1)}),
    )
    assert regular_closure(eps, mp, 1) == finite_vanishing_space([Matrix.identity(2)], 1)


def test_regular_closure_powers_dense():
    mp = MorphismPair(("a",), 1, {"a": Matrix([[2]])}, {"a": 1})
    astar = Nfa((0,), ("a",), frozenset({0}), frozenset({0}), frozenset({(0, "a", 0)}))
    assert regular_closure(astar, mp, 3).space_dim == 0


def test_engine_within_and_equal_to_oracle():
    rng = random.Random(42)
    for _ in range(25):
        d = rng.choice([1, 2])
        degree = rng.choice([1, 2])
        alphabet = ("a", "b")
        mp = MorphismPair(
            alphabet, d,
            {a: random_matrix(rng, d) for a in alphabet},
            {a: rng.choice([-1, 0, 1]) for a in alphabet},
        )
        ns = rng.randint(1, 4)
        trans = {
            (rng.randrange(ns), rng.choice(alphabet), rng.randrange(ns))
            for _ in range(rng.randint(ns, 3 * ns))
        }
        nfa = Nfa(
            tuple(range(ns)), alphabet,
            frozenset({0}), frozenset({rng.randrange(ns)}), frozenset(trans),
        )
        engine = regular_closure(nfa, mp, degree)
        orc = oracle_closure(mp, "all", degree, 11, Caps(oracle_words=10 ** 6), determinize(nfa))
        within = orc.space.vanishing_basis.intersection(engine.vanishing_basis)
        assert within == engine.vanishing_basis
        if orc.stabilized:
            assert engine == orc.space


def test_regular_closure_d3_degree3_equals_oracle():
    # 220 Veronese coordinates, most of them zero on upper-unipotent images:
    # the sparse regime of the column maps and the support-indexed elimination
    rng = random.Random(8)
    alphabet = ("a", "b")
    checked = 0
    for _ in range(6):
        mp = MorphismPair(
            alphabet, 3,
            {a: Matrix([[int(i == j) if j <= i else rng.randint(-2, 2) for j in range(3)]
                        for i in range(3)]) for a in alphabet},
            {a: 0 for a in alphabet},
        )
        trans = {(rng.randrange(4), rng.choice(alphabet), rng.randrange(4))
                 for _ in range(rng.randint(6, 12))}
        nfa = Nfa(tuple(range(4)), alphabet, frozenset({0}),
                  frozenset({rng.randrange(4)}), frozenset(trans))
        engine = regular_closure(nfa, mp, 3)
        orc = oracle_closure(mp, "all", 3, 8, Caps(oracle_words=10 ** 6), determinize(nfa))
        within = orc.space.vanishing_basis.intersection(engine.vanishing_basis)
        assert within == engine.vanishing_basis
        if orc.stabilized and orc.words_used:
            checked += 1
            assert engine == orc.space
    assert checked >= 2


def test_cover_default_eta_examples():
    mp = powers_morphism()
    assert pipeline(mp, "cover", 2).space.space_dim == 0  # dense in the line

    mp0 = MorphismPair(
        ("a", "b"), 1, {"a": Matrix([[2]]), "b": Matrix([[3]])}, {"a": 0, "b": 0}
    )
    full_lang = regular_closure(Nfa.universal("ab"), mp0, 2)
    assert pipeline(mp0, "cover", 2).space == full_lang
    assert pipeline(mp0, "zero", 2).space == full_lang


def test_cover_matches_oracle_at_default_eta_desk_scale():
    # the cover-automaton reduction is theorem-backed at the default
    # threshold; the stabilized oracle must agree on d=1 morphisms
    for phi_b, w_b in ((Fraction(1, 2), -1), (Fraction(1), 0), (Fraction(0), -1)):
        mp = MorphismPair(
            ("a", "b"), 1,
            {"a": Matrix([[2]]), "b": Matrix([[phi_b]])},
            {"a": 1, "b": w_b},
        )
        engine = pipeline(mp, "cover", 2).space
        orc = oracle_closure(mp, "cover", 2, 14)
        assert orc.stabilized
        assert engine == orc.space


@pytest.mark.parametrize("a, b", [
    ([[1, 1], [0, 1]], [[1, 0], [1, 1]]),  # the a^n b^n letters
    ([[2, 0], [0, 4]], [[1, 0], [1, 1]]),  # rvsc2 phi1
    ([[2, 1], [0, 1]], [[1, 0], [0, 3]]),
])
def test_cover_d2_default_eta_equals_overridden_saturation(a, b):
    # the guaranteed cover-automaton run at eta = 1025 (1026 states x 15
    # coordinates, so above the default budget) and the eta = 3
    # saturation, cross-checked by the oracle, are independent routes
    mp = MorphismPair(("a", "b"), 2, {"a": Matrix(a), "b": Matrix(b)}, {"a": 1, "b": -1})
    guaranteed = pipeline(mp, "cover", 2, Caps(budget=20000))
    overridden = pipeline(mp.with_eta(3), "cover", 2)
    assert guaranteed.method == "cover-automaton" and guaranteed.eta_used == 1025
    assert overridden.oracle_checked
    assert guaranteed.space == overridden.space


def test_cover_d2_default_eta_trips_budget():
    with pytest.raises(InfeasibleError) as err:
        pipeline(unipotent_morphism(), "cover", 2)
    assert "budget" in str(err.value)


# d = 1, degree 1: 2 coordinates.  At the default eta = 17 the cover stage
# has 18 configurations (17 counters and the top), and the zero pipeline's
# one stage, the product-alphabet stage, 69 counters of 2^4 tensor
# coordinates; at eta = 2 the reach window of bound 2 has 3 configurations.
@pytest.mark.parametrize("run, budget, stage", [
    (lambda mp, caps: regular_closure(Nfa.universal(mp.alphabet), mp, 1, caps), 1,
     r"regular closure: states x Veronese = 1x2 "),
    (lambda mp, caps: pipeline(mp, "cover", 1, caps), 30,
     r"cover pipeline \(cover-automaton stage\): states x Veronese = 18x2 "),
    (lambda mp, caps: pipeline(mp, "zero", 1, caps), 100,
     r"zero pipeline \(product-alphabet stage\): states x Veronese = 69x16 "),
    (lambda mp, caps: pipeline(mp.with_eta(2), "reach", 1, caps), 5,
     r"reach saturation at counter bound 2: states x Veronese = 3x2 "),
])
def test_budget_refusal_names_its_stage(run, budget, stage):
    with pytest.raises(InfeasibleError, match=f"^{stage}exceeds the budget {budget};"):
        run(powers_morphism(), Caps(budget=budget))


_THRESHOLD_ENTRIES = st.sampled_from([Fraction(x) for x in (0, 1, -1, 2, 3)] + [Fraction(1, 2)])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_threshold_stages_equal_their_automata(data):
    # the counter stage at a small eta against the fixpoint over the built
    # cover automaton, whose counter is folded into the state
    d = data.draw(st.integers(1, 2))
    alphabet = ("a", "b", "c")[:data.draw(st.integers(1, 3))]
    mp = MorphismPair(
        alphabet, d,
        {a: Matrix([[data.draw(_THRESHOLD_ENTRIES) for _ in range(d)] for _ in range(d)])
         for a in alphabet},
        {a: data.draw(st.sampled_from([-1, 0, 1])) for a in alphabet},
        data.draw(st.sampled_from([1, 2, 3, 5])),
    )
    degree = data.draw(st.integers(1, 2))
    stage = _vanishing(d, degree, _threshold_rows(mp, degree, Caps()))
    assert stage == regular_closure(build_cover_automaton(mp), mp, degree)


def test_reach_default_eta_refuses():
    with pytest.raises(InfeasibleError) as err:
        pipeline(unipotent_morphism(), "reach", 2)
    assert "eta_override" in str(err.value)
    with pytest.raises(InfeasibleError):
        pipeline(powers_morphism(), "reach", 1)


@pytest.mark.parametrize("mode, automaton", [
    ("bz", False),  # a predicate, not a mode
    ("vass-zero", True),
    ("regular", False),
    ("vass-cover", False),
    ("vass-reach", False),
    ("cover", True),
    ("reach", True),
    ("zero", True),
])
def test_pipeline_refuses_a_mode_and_automaton_that_do_not_fit(mode, automaton):
    mp = powers_morphism(eta=2)
    nfa = Nfa.universal(mp.alphabet) if automaton else None
    with pytest.raises(PreconditionError, match=repr(mode)):
        pipeline(mp, mode, 1, nfa=nfa)


def test_zero_single_weightless_letter():
    mp = MorphismPair(("s",), 1, {"s": Matrix([[3]])}, {"s": 0})
    res = pipeline(mp, "zero", 2)
    assert res.method == "bz+flat"
    assert res.space.space_dim == 0


def test_saturation_is_deterministic():
    mp = unipotent_morphism().with_eta(2)
    s1, b1 = counter_saturation(mp, 2, "reach")
    s2, b2 = counter_saturation(mp, 2, "reach")
    assert s1 == s2 and b1 == b2


def test_oracle_examples():
    mp = powers_morphism()
    # max_len 0: only the empty word
    o = oracle_closure(mp, "reach", 1, 0)
    assert o.space == finite_vanishing_space([Matrix.identity(1)], 1)
    # empty language: a one-state automaton without an accepting state
    mp_pos = MorphismPair(("a",), 1, {"a": Matrix([[2]])}, {"a": 1})
    empty = Nfa((0,), ("a",), frozenset({0}), frozenset(), frozenset({(0, "a", 0)}))
    o = oracle_closure(mp_pos, "all", 2, 6, nfa=empty)
    assert o.space == PolySpace.full(1, 2)


def test_oracle_anbn_stabilizes_to_reach_ideal():
    from zclosure.reduction import Vass, vass_to_constrained

    vass = Vass(
        ("s", "t"), "s", ("t",),
        (("s", "a", 1, "s"), ("s", "b", -1, "t"), ("t", "b", -1, "t")),
    )
    mp_t, dfa = vass_to_constrained(vass, unipotent_morphism())
    o = oracle_closure(mp_t, "reach", 2, 16, Caps(oracle_words=10 ** 6), dfa)
    want = ideal_slice(
        gens_from_strings(2, 2, ["x11 - x12*x21 - 1", "x12 - x21", "x22 - 1"]), 2
    )
    assert o.stabilized and o.space == want


def test_degree_monotonicity():
    mp = unipotent_morphism().with_eta(2)
    lo = pipeline(mp, "reach", 1).space
    hi = pipeline(mp, "reach", 2).space
    for p in lo.polynomials():
        assert contains_poly(hi, p)


def test_truncated_oracle_refuses():
    # an over-tight oracle budget must withhold the result, not bend it
    mp = unipotent_morphism().with_eta(2)
    with pytest.raises(OracleDisagreementError):
        pipeline(mp, "reach", 2, Caps(oracle_len=2, oracle_extend=2))


def test_chain_recurrence_sets():
    chain = recurrence_chain(6)
    for i, sets in enumerate(chain):
        expected = {Matrix.zeros(2), Matrix.identity(2)} | {
            Matrix([[0, 2 ** j], [0, 0]]) for j in range(i + 1)
        }
        assert set(sets) == expected
    for i in range(6):
        assert set(chain[i]) < set(chain[i + 1])
    # the vanishing spaces shrink strictly once the degree can see the
    # Vandermonde growth (degree 7 frees seven x12-powers)
    dims = [finite_vanishing_space(sorted(s, key=str), 7).space_dim for s in chain]
    assert all(dims[i] > dims[i + 1] for i in range(6))


def test_saturation_pipelines_survive_random_cross_validation():
    # the pipelines raise on any engine/oracle mismatch, so surviving a
    # mixed random sample is the property being tested
    rng = random.Random(777)
    caps = Caps(oracle_words=200_000, oracle_len=12, oracle_extend=24)
    done = 0
    while done < 15:
        d = rng.choice([1, 1, 2])
        degree = rng.choice([1, 2])
        letters = ("a", "b", "c")[: rng.choice([2, 3])]
        weights = {a: rng.choice([-1, 0, 1]) for a in letters}
        if rng.random() < 0.8:
            weights[letters[0]] = 1
            weights[letters[-1]] = -1
        mp = MorphismPair(
            letters, d,
            {a: random_matrix(rng, d) for a in letters},
            weights,
            eta=rng.choice([1, 2, 3]),
        )
        mode = rng.choice(("cover", "reach", "zero"))
        res = pipeline(mp, mode, degree, caps)
        assert res.oracle_checked
        done += 1


def test_generators_render_stable_across_runs():
    mp = unipotent_morphism().with_eta(2)
    g1 = space_to_generators(pipeline(mp, "reach", 2).space)
    g2 = space_to_generators(pipeline(mp, "reach", 2).space)
    assert g1 == g2


def _map_rows(cols):
    """A column-form map as sparse rows: row t maps s to T[t][s]."""
    rows = [{} for _ in cols]
    for s, (ts, cs) in enumerate(cols):
        for t, c in zip(ts, cs):
            rows[t][s] = c
    return rows


def _kron_rows(tracks, n):
    """A Gamma letter's tensor map as sparse rows: the Kronecker product of
    its tracks' maps (the identity on an epsilon track), the tensor index
    being (((i1 * n) + i2) * n + i3) * n + i4."""
    mats = [[{t: 1} for t in range(n)] if m is None else _map_rows(m) for m in tracks]
    rows = []
    for idx in itertools.product(range(n), repeat=4):
        row = {}
        for terms in itertools.product(*(m[i].items() for m, i in zip(mats, idx))):
            row[_tensor_index(n, tuple(s for s, _ in terms))] = (
                terms[0][1] * terms[1][1] * terms[2][1] * terms[3][1])
        rows.append(row)
    return rows


def _full_gamma_span(mp, degree):
    """The product-alphabet stage over every letter of Gamma, first in,
    first out: rows spanning the tensors accepted at counter 0.  The
    Kronecker rows are applied here, not by the engine's kernels."""
    n = len(veronese(Matrix.identity(mp.dim), degree))
    maps = _integer_maps(mp, degree)
    letters = [(gamma_weight(g, mp), _kron_rows([None if x == "" else maps[x] for x in g], n))
               for g in gamma_alphabet(mp.alphabet)]
    seed_v = _cleared(veronese(Matrix.identity(mp.dim), degree))
    seed = [0] * n ** 4
    for idx in itertools.product(range(n), repeat=4):
        seed[_tensor_index(n, idx)] = seed_v[idx[0]] * seed_v[idx[1]] * seed_v[idx[2]] * seed_v[idx[3]]
    spans = {}
    seen = set()  # the maps commute, so many paths give one vector
    queue = deque([(0, seed)])
    while queue:
        q, v = queue.popleft()
        if (q, tuple(v)) in seen:
            continue
        seen.add((q, tuple(v)))
        if q not in spans:
            spans[q] = Span(n ** 4)
        if not spans[q].insert(v):
            continue
        for w, rows in letters:
            full = q + w in spans and spans[q + w].dim == n ** 4
            if abs(q + w) <= 2 * mp.eta and not full:
                queue.append((q + w, [sum(c * v[s] for s, c in row.items()) for row in rows]))
    return [dense(row, n ** 4) for row in spans[0].rows]


_GAMMA_ENTRIES = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                                  Fraction(1, 2), Fraction(3)])


@settings(max_examples=20, deadline=None)
@given(st.data(), st.integers(1, 2), st.integers(1, 2))
def test_single_track_gamma_stage_matches_full_gamma(data, degree, k):
    # d = 1: 2 or 3 coordinates, 16 or 81 tensor coordinates; eta = 1 is the
    # tightest counter range, and eta = 3 at degree 2 takes seconds a case
    eta = data.draw(st.integers(1, 3 if degree == 1 else 2))
    alphabet = ("a", "b")[:k]
    mp = MorphismPair(
        alphabet, 1,
        {a: Matrix([[data.draw(_GAMMA_ENTRIES)]]) for a in alphabet},
        {a: data.draw(st.sampled_from([-1, 0, 1])) for a in alphabet},
        eta,
    )
    want = _full_gamma_span(mp, degree)
    mu_rows = _mu_pullback_rows(1, degree)
    conditions = [[sum(c * s[i] for i, c in row.items()) for row in mu_rows] for s in want]
    accepted = []

    def recording(run, *args):
        _fixpoint(run, *args)
        accepted.append(run[1].basis())

    with mock.patch("zclosure.closure._fixpoint", recording):
        assert _gamma_condition_rows(mp, degree, Caps()).basis() == rref(conditions)
    # d = 1 images commute, so the pulled-back span alone would hide a lost
    # track; the accepted tensors themselves must span pi of the full-Gamma
    # span, pi the projection onto the diagonal degree blocks (i1 = .. = i4
    # at d = 1, where each degree has one monomial)
    diagonal = [len(set(idx)) == 1 for idx in itertools.product(range(degree + 1), repeat=4)]
    assert accepted == [rref([[x * keep for x, keep in zip(s, diagonal)] for s in want])]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_GAMMA_ENTRIES, st.sampled_from([-1, 0, 1])), min_size=1, max_size=3),
       st.integers(1, 3), st.integers(1, 2))
@example(letters=[(Fraction(1), 1), (Fraction(2), -1)], eta=1, degree=1)
def test_bounded_zero_span_lies_in_the_gamma_span(letters, eta, degree):
    # why the zero pipeline runs no bounded-zero stage: each bounded-zero
    # word is a one-track word of the product alphabet.  In the example "ab"
    # takes the counter to eta = 1, the edge of the bounded-zero window
    alphabet = ("a", "b", "c")[:len(letters)]
    mp = MorphismPair(
        alphabet, 1,
        {a: Matrix([[x]]) for a, (x, _) in zip(alphabet, letters)},
        {a: w for a, (_, w) in zip(alphabet, letters)},
        eta,
    )
    bz = _nfa_span_rows(build_bz_automaton(mp), mp, degree, Caps())
    gamma = _gamma_condition_rows(mp, degree, Caps())
    assert not any(gamma.insert(dense(row, bz.n)) for row in bz.rows)
