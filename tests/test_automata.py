import itertools
import random

import pytest

from conftest import powers_morphism, unipotent_morphism
from zclosure.automata import (
    Nfa,
    build_bz_automaton,
    build_cover_automaton,
    build_reach_automaton,
    build_zero_automaton,
    construct_zero_witness,
    determinize,
    flatten,
    gamma_alphabet,
)
from zclosure.errors import InfeasibleError, PreconditionError
from zclosure.exactlin import is_stable
from zclosure.facttree import extract_stable_factor
from zclosure.lang import classify_word


def _is_complete(nfa):
    pairs = {(q, a) for (q, a, _) in nfa.transitions}
    return all((q, a) in pairs for q in nfa.states for a in nfa.alphabet)


def recover_cover_factorization(w, mp):
    """For w accepted by the cover automaton but outside the cover language,
    return (w1, u, w2) with w = w1 u w2, phi(u) stable, omega(u) > 0 and all
    prefixes of w1 u nonnegative."""
    w = mp.check_word(w)
    v_end = next((i for i, c in enumerate(mp.prefix_weights(w)) if c == mp.eta), None)
    if v_end is None:
        raise PreconditionError("word never reaches the threshold")
    i, j = extract_stable_factor(w[:v_end], mp, 1)
    return w[:i], w[i:j], w[j:]


def test_cover_automaton_shape():
    mp = powers_morphism()
    nfa = build_cover_automaton(mp)
    assert len(nfa.states) == 18  # eta(1) = 17 plus the sink
    assert nfa.accepting == frozenset(nfa.states)
    assert not nfa.accepts(tuple("ba"))  # no b-transition from 0
    assert nfa.accepts(tuple("ab"))


def test_cover_automaton_strict_containment_at_low_threshold():
    mp = powers_morphism(eta=1)
    nfa = build_cover_automaton(mp)
    # abb is not coverable but the sink accepts it once a is read
    assert nfa.accepts(tuple("abb"))
    assert not classify_word(tuple("abb"), mp).in_LC


def test_reach_automaton_shape():
    mp = powers_morphism()
    nfa = build_reach_automaton(mp)
    assert len(nfa.states) == 35  # 2*eta + 1
    assert nfa.accepts(())
    assert nfa.accepts(tuple("ab"))
    assert not nfa.accepts(tuple("ba"))
    # ab is accepted without ever visiting the sink
    current = nfa.initial
    for letter in "ab":
        current = frozenset(q for q in nfa.step(current, letter) if q != "inf")
    assert current & nfa.accepting


def test_nfa_validates_its_parts():
    with pytest.raises(PreconditionError):
        Nfa((0,), ("a",), frozenset({0}), frozenset({0}),
            frozenset({(0, "a", 1)}))  # unknown target state
    with pytest.raises(PreconditionError):
        Nfa((0,), ("a",), frozenset({1}), frozenset({0}), frozenset())


def test_nfa_refuses_a_repeated_state():
    with pytest.raises(PreconditionError, match=r"^state 'q' is listed twice$"):
        Nfa(("p", "q", "q"), ("a",), frozenset({"p"}), frozenset({"q"}),
            frozenset({("p", "a", "q")}))


def test_reach_determinization_stays_linear_in_eta():
    for eta in range(1, 7):
        mp = powers_morphism(eta=eta)
        det = determinize(build_reach_automaton(mp))
        assert len(det.states) <= 3 * eta + 5


def test_zero_automaton_shape():
    mp = powers_morphism()
    nfa = build_zero_automaton(mp)
    assert len(nfa.states) == 69  # 4*eta + 1
    assert len(nfa.alphabet) == 80  # (|Sigma|+1)^4 - 1
    g = ("a", "b", "", "")
    assert nfa.accepts((g,))  # weight 0 loops at the accepting initial state


def test_zero_automaton_language_is_a_semigroup():
    mp = powers_morphism(eta=1)
    nfa = build_zero_automaton(mp)
    rng = random.Random(18)
    gamma = gamma_alphabet(mp.alphabet)
    accepted = []
    for _ in range(400):
        w = tuple(rng.choice(gamma) for _ in range(rng.randint(1, 3)))
        if nfa.accepts(w):
            accepted.append(w)
    assert accepted
    for _ in range(50):
        u, v = rng.choice(accepted), rng.choice(accepted)
        assert nfa.accepts(u + v)


def test_flat_image_is_zero_weight():
    mp = powers_morphism(eta=1)
    nfa = build_zero_automaton(mp)
    gamma = gamma_alphabet(mp.alphabet)
    # exhaustive short words plus a random sample of longer ones
    for w in itertools.chain(
        itertools.product(gamma, repeat=1), itertools.product(gamma, repeat=2)
    ):
        if nfa.accepts(w):
            _, flat = flatten(w)
            assert classify_word(flat, mp).in_LZ
    rng = random.Random(19)
    for _ in range(500):
        w = tuple(rng.choice(gamma) for _ in range(rng.randint(3, 4)))
        if nfa.accepts(w):
            _, flat = flatten(w)
            assert classify_word(flat, mp).in_LZ


def test_bz_automaton_is_exact():
    mp = powers_morphism(eta=2)
    nfa = build_bz_automaton(mp)
    assert nfa.accepts(tuple("ab"))
    assert nfa.accepts(tuple("ba"))  # dip to -1 allowed at eta >= 1
    assert not nfa.accepts(tuple("aaab"))  # prefix weight 3 > eta
    for ln in range(0, 9):
        for w in itertools.product(mp.alphabet, repeat=ln):
            assert nfa.accepts(w) == classify_word(w, mp).in_LBZ


def test_flatten_examples():
    prod, flat = flatten([("a", "b", "", "")])
    assert prod == (("a",), ("b",), (), ())
    assert flat == ("a", "b")
    prod, flat = flatten([])
    assert prod == ((), (), (), ()) and flat == ()
    prod, flat = flatten([("a", "", "", ""), ("", "b", "", "")])
    assert flat == ("a", "b")


def test_determinize_preserves_acceptance():
    rng = random.Random(20)
    for _ in range(20):
        ns = rng.randint(2, 8)
        trans = {
            (rng.randrange(ns), rng.choice("ab"), rng.randrange(ns))
            for _ in range(rng.randint(ns, 3 * ns))
        }
        nfa = Nfa(
            tuple(range(ns)), ("a", "b"),
            frozenset({0}), frozenset({rng.randrange(ns)}), frozenset(trans),
        )
        det = determinize(nfa)
        assert det.is_deterministic() and _is_complete(det)
        for _ in range(1000):
            w = tuple(rng.choice("ab") for _ in range(rng.randint(0, 6)))
            assert nfa.accepts(w) == det.accepts(w)


def test_state_cap_is_enforced():
    mp = powers_morphism()
    with pytest.raises(InfeasibleError):
        build_zero_automaton(mp, max_states=10)


def test_cover_factorization_recoverable():
    # every accepted-but-not-coverable word factors as w1 u w2 with phi(u)
    # stable, positive weight, and w1 u prefix-nonnegative
    for eta in (1, 2, 3):
        mp = powers_morphism(eta=eta)
        nfa = build_cover_automaton(mp)
        checked = 0
        for ln in range(1, 13):
            for w in itertools.product(mp.alphabet, repeat=ln):
                if nfa.accepts(w) and not classify_word(w, mp).in_LC:
                    w1, u, w2 = recover_cover_factorization(w, mp)
                    assert w1 + u + w2 == w
                    assert mp.weight(u) > 0
                    assert is_stable(mp.image(u))
                    assert classify_word(w1 + u, mp).in_LC
                    checked += 1
            if checked > 400:
                break
        assert checked


def test_witness_example_and_structure():
    mp = powers_morphism(eta=1)
    za = build_zero_automaton(mp)
    w = tuple("aabb")
    witness, pump = construct_zero_witness(w, mp)
    for k in range(4):
        word = witness + pump * k
        assert za.accepts(word)
        _, flat = flatten(word)
        assert classify_word(flat, mp).in_LZ


def test_witness_exhaustive_small_words():
    mp = powers_morphism(eta=1)
    za = build_zero_automaton(mp)
    count = 0
    for ln in range(1, 11):
        for w in itertools.product(mp.alphabet, repeat=ln):
            c = classify_word(w, mp)
            if not (c.in_LZ and not c.in_LBZ):
                continue
            count += 1
            witness, pump = construct_zero_witness(w, mp)
            for k in range(4):
                assert za.accepts(witness + pump * k)
    assert count == 288


def test_witness_mirror_case():
    mp = powers_morphism(eta=1)
    za = build_zero_automaton(mp)
    witness, pump = construct_zero_witness(tuple("bbaa"), mp)
    assert all(za.accepts(witness + pump * k) for k in range(4))


def test_witness_exhaustive_at_threshold_two():
    mp = powers_morphism(eta=2)
    za = build_zero_automaton(mp)
    count = 0
    for ln in range(1, 11):
        for w in itertools.product(mp.alphabet, repeat=ln):
            c = classify_word(w, mp)
            if not (c.in_LZ and not c.in_LBZ):
                continue
            count += 1
            witness, pump = construct_zero_witness(w, mp)
            for k in range(3):
                assert za.accepts(witness + pump * k)
    assert count > 30


def test_witness_rejects_bounded_words():
    mp = powers_morphism(eta=1)
    with pytest.raises(PreconditionError):
        construct_zero_witness(tuple("ab"), mp)


def test_witness_d2_small_threshold():
    mp = unipotent_morphism().with_eta(1)
    za = build_zero_automaton(mp)
    for w in (tuple("aabb"), tuple("bbaa"), tuple("aabbab")[:6]):
        c = classify_word(w, mp)
        if not (c.in_LZ and not c.in_LBZ):
            continue
        witness, pump = construct_zero_witness(w, mp)
        assert all(za.accepts(witness + pump * k) for k in range(3))
