import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import powers_morphism, unipotent_morphism, word_of_code
from zclosure.automata import Nfa
from zclosure.closure import (
    DEFAULT_CAPS,
    finite_vanishing_space,
    regular_closure,
    veronese,
    word_frontier,
)
from zclosure.errors import PreconditionError, SchemaError
from zclosure.exactlin import Matrix
from zclosure.lang import MorphismPair
from zclosure.polys import PolySpace, gens_from_strings, ideal_slice, monomial_basis
from zclosure.reduction import (
    Vass,
    _pullback_vectors,
    blockify_regular,
    extract_block_closure,
    vass_to_constrained,
)

BIG = DEFAULT_CAPS._replace(budget=10 ** 6, veronese=10 ** 5)


def _phi1():
    return MorphismPair(
        ("a", "b"), 2,
        {"a": Matrix([[2, 0], [0, 4]]), "b": Matrix([[1, 0], [1, 1]])},
        {"a": 1, "b": -1},
    )


def _label_dfa():
    return Nfa(
        ("s", "t"), ("a", "b"), frozenset({"s"}), frozenset({"t"}),
        frozenset({("s", "a", "s"), ("s", "b", "t"), ("t", "b", "s")}),
    )


def test_blockify_one_state_dimension():
    bm = blockify_regular(unipotent_morphism(), Nfa.universal("ab"))
    assert bm.dim == 3
    # single block: the lift embeds phi with the homogenizing 1
    lifted = bm.lifted["a"]
    assert lifted[0, 0] == 1 and lifted[0, 1] == 1 and lifted[2, 2] == 1


def test_blockify_two_state_dimension_matches_reference_value():
    bm = blockify_regular(_phi1(), _label_dfa())
    assert bm.dim == 6


def test_blockify_rejects_nondeterminism():
    nd = Nfa(
        ("s", "t"), ("a", "b"), frozenset({"s"}), frozenset({"t"}),
        frozenset({("s", "a", "s"), ("s", "a", "t"), ("s", "b", "t"),
                   ("t", "b", "s")}),
    )
    with pytest.raises(PreconditionError):
        blockify_regular(_phi1(), nd)


def test_block_row_one_structure():
    bm = blockify_regular(_phi1(), _label_dfa())
    rng = random.Random(24)
    b = 3
    for _ in range(60):
        w = tuple(rng.choice("ab") for _ in range(rng.randint(0, 8)))
        img = bm.morphism_pair.image(w)
        nonzero = [
            j for j in range(2)
            if any(img[r, j * b + c] for r in range(b) for c in range(b))
        ]
        assert len(nonzero) <= 1
        if nonzero:
            # indicator entry is exactly 1 on the live block
            assert img[b - 1, nonzero[0] * b + b - 1] == 1


_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 2), st.integers(1, 2), st.integers(1, 2))
def test_pullback_vectors_evaluate_to_the_homogenized_base_monomials(data, d, k, degree):
    # row t at nu(lifted image of w) = T^mono_t * iota^(D - |mono_t|), where T
    # sums the accepting blocks of block-row 1 and iota their indicators
    square = st.lists(_rationals, min_size=d * d, max_size=d * d)
    phi = {a: data.draw(square) for a in "ab"}
    mp = MorphismPair(
        ("a", "b"), d,
        {a: Matrix([e[r * d:(r + 1) * d] for r in range(d)]) for a, e in phi.items()},
        {"a": 1, "b": -1},
    )
    states = tuple(range(k))
    targets = st.sampled_from(states + (None,))  # None: no transition
    moves = data.draw(st.lists(targets, min_size=2 * k, max_size=2 * k))
    transitions = frozenset(
        (q, a, q2)
        for (q, a), q2 in zip(itertools.product(states, "ab"), moves)
        if q2 is not None
    )
    accepting = frozenset(data.draw(st.sets(st.sampled_from(states))))
    dfa = Nfa(states, ("a", "b"), frozenset({0}), accepting, transitions)
    bm = blockify_regular(mp, dfa)
    word = data.draw(st.lists(st.sampled_from("ab"), max_size=4))
    image = Matrix.identity(bm.dim)
    for a in word:
        image = image * bm.lifted[a]
    b = d + 1
    acc = [i for i, q in enumerate(bm.state_order) if q in accepting]
    def summed(r, c):
        return sum((image[r, i * b + c] for i in acc), Fraction(0))

    t = Matrix([[summed(r, c) for c in range(d)] for r in range(d)])
    iota = summed(d, d)
    point = veronese(image, degree)
    rows = _pullback_vectors(bm, degree)
    bases = zip(monomial_basis(d * d, degree), veronese(t, degree), strict=True)
    for row, (mono, base) in zip(rows, bases, strict=True):
        assert sum(x * y for x, y in zip(row, point)) == base * iota ** (degree - sum(mono))


def test_extraction_reproduces_reference_block_ideal():
    bm = blockify_regular(_phi1(), _label_dfa())
    lifted = regular_closure(Nfa.universal("ab"), bm.morphism_pair, 2, BIG)
    ext = extract_block_closure(lifted, bm, 2)
    assert ext == ideal_slice(gens_from_strings(2, 2, ["x12", "x11^2 - x22"]), 2)


def _poly_eval_flat(p, flat):
    total = Fraction(0)
    for k, v in p.items():
        term = v
        for var, e in enumerate(k):
            for _ in range(e):
                term *= flat[var]
        total += term
    return total


def test_extraction_is_sound_on_enumerated_words():
    # every returned polynomial vanishes on phi(w) for every state-accepted
    # word up to length 12
    bm = blockify_regular(_phi1(), _label_dfa())
    lifted = regular_closure(Nfa.universal("ab"), bm.morphism_pair, 2, BIG)
    ext = extract_block_closure(lifted, bm, 2)
    polys = ext.polynomials()
    dfa = _label_dfa()
    mp = _phi1()
    checked = 0
    for ln in range(0, 13):
        for w in itertools.product("ab", repeat=min(ln, 12)):
            if len(w) != ln:
                continue
            if not dfa.accepts(w):
                continue
            flat = mp.image(w).flat()
            for p in polys:
                assert _poly_eval_flat(p, flat) == 0
            checked += 1
        if checked > 300:
            break
    assert checked


def test_extraction_one_state_drops_homogenizer():
    mp = unipotent_morphism()
    bm = blockify_regular(mp, Nfa.universal("ab"))
    lifted = regular_closure(Nfa.universal("ab"), bm.morphism_pair, 1, BIG)
    assert extract_block_closure(lifted, bm, 1) == regular_closure(
        Nfa.universal("ab"), mp, 1
    )


def test_extraction_round_trip_on_finite_language():
    mp = powers_morphism()
    # counts its input length; only length-2 words are accepted
    fin = Nfa(
        (0, 1, 2, 3), ("a", "b"), frozenset({0}), frozenset({2}),
        frozenset({(q, a, min(q + 1, 3)) for q in (0, 1, 2, 3) for a in "ab"}),
    )
    bm = blockify_regular(mp, fin)
    lifted = regular_closure(Nfa.universal("ab"), bm.morphism_pair, 2, BIG)
    ext = extract_block_closure(lifted, bm, 2)
    points = [mp.image(w) for w in itertools.product("ab", repeat=2)]
    assert ext == finite_vanishing_space(points, 2)


def test_extraction_vacuous_full_space():
    bm = blockify_regular(powers_morphism(), Nfa.universal("ab"))
    full = PolySpace.full(bm.dim, 2)
    assert extract_block_closure(full, bm, 2) == PolySpace.full(1, 2)


def test_extraction_degree_guard():
    bm = blockify_regular(powers_morphism(), Nfa.universal("ab"))
    with pytest.raises(PreconditionError):
        extract_block_closure(PolySpace.full(bm.dim, 2), bm, 1)


def test_vass_schema_rules():
    with pytest.raises(SchemaError):
        Vass(("s",), "s", ("s",), (("s", "a", 5, "s"),))
    with pytest.raises(SchemaError):
        Vass(("s",), "s", ("missing",), ())


def test_vass_refuses_a_repeated_state():
    with pytest.raises(SchemaError, match=r"^vass state 't' is listed twice$"):
        Vass(("s", "t", "t"), "s", ("t",), (("s", "a", 1, "t"),))


def test_vass_to_constrained_shapes():
    vass = Vass(
        ("s", "t"), "s", ("t",),
        (("s", "a", 1, "s"), ("s", "b", -1, "t"), ("t", "b", -1, "t")),
    )
    mp_t, dfa = vass_to_constrained(vass, unipotent_morphism())
    assert mp_t.alphabet == ("t0", "t1", "t2")
    assert mp_t.omega == {"t0": 1, "t1": -1, "t2": -1}
    assert mp_t.phi["t0"] == unipotent_morphism().phi["a"]
    assert set(dfa.states) == {"s", "t", "_dead"}
    assert dfa.delta()[("s", "t0")] == "s"
    assert dfa.delta()[("t", "t0")] == "_dead"


def test_vass_word_enumeration_matches_brute_force():
    vass = Vass(
        ("s", "t"), "s", ("t",),
        (("s", "a", 1, "s"), ("s", "b", -1, "t"), ("t", "b", -1, "t")),
    )
    mp_t, dfa = vass_to_constrained(vass, unipotent_morphism())
    source = word_frontier(mp_t, "reach", dfa, 6)
    by_source = {}
    trans = [("t0", "s", 1, "s"), ("t1", "s", -1, "t"), ("t2", "t", -1, "t")]
    for name, src, w, dst in trans:
        by_source.setdefault(src, []).append((name, w, dst))

    def brute(ln):
        out = []
        for names in itertools.product(("t0", "t1", "t2"), repeat=ln):
            q, c, ok = "s", 0, True
            for name in names:
                hit = [t for t in by_source.get(q, []) if t[0] == name]
                if not hit or c + hit[0][1] < 0:
                    ok = False
                    break
                c += hit[0][1]
                q = hit[0][2]
            if ok and q == "t" and c == 0:
                out.append(names)
        return out

    for ln in range(0, 7):
        got = [word_of_code(code, ln, mp_t.alphabet) for code, _, _ in next(source)]
        assert got == brute(ln)
