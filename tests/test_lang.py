import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import in_reference_language, powers_morphism, word_of_code
from zclosure.closure import Caps, oracle_closure, word_frontier
from zclosure.errors import InfeasibleError, PreconditionError, SchemaError
from zclosure.exactlin import Matrix
from zclosure.lang import (
    MorphismPair,
    classify_word,
    default_eta,
    in_language,
    split_weights,
)


def test_default_eta_values():
    assert default_eta(1) == 17
    assert default_eta(2) == 1025


def test_classify_examples():
    mp = powers_morphism()
    c = classify_word(tuple("ab"), mp)
    assert (c.weight, c.in_LC, c.in_LR, c.in_LZ, c.in_LBZ) == (0, True, True, True, True)
    c = classify_word(tuple("ba"), mp)
    assert (c.weight, c.in_LC, c.in_LR, c.in_LZ) == (0, False, False, True)
    c = classify_word(tuple("a"), mp)
    assert (c.weight, c.in_LC, c.in_LR, c.in_LZ) == (1, True, False, False)


def test_classify_empty_word_in_everything():
    c = classify_word((), powers_morphism())
    assert c.weight == 0 and c.in_LC and c.in_LR and c.in_LZ and c.in_LBZ


def test_classify_rejects_unknown_letter():
    with pytest.raises(PreconditionError):
        classify_word(("z",), powers_morphism())


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(1, 4))
def test_membership_matches_the_reference_definitions(data, k, eta):
    alphabet = tuple("abc"[:k])
    weights = data.draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=k, max_size=k))
    mp = MorphismPair(alphabet, 1, {a: Matrix([[1]]) for a in alphabet},
                      dict(zip(alphabet, weights)), eta)
    w = tuple(data.draw(st.lists(st.sampled_from(alphabet), max_size=12)))
    pw = list(accumulate((mp.omega[a] for a in w), initial=0))
    c = classify_word(w, mp)
    assert (c.weight, c.min_prefix_weight, c.max_prefix_weight) == (pw[-1], min(pw), max(pw))
    assert (c.in_LC, c.in_LR, c.in_LZ, c.in_LBZ) == tuple(
        in_reference_language(w, mp, p) for p in ("cover", "reach", "zero", "bz")
    )
    for p in ("cover", "reach", "zero", "bz", "all"):
        assert in_language(w, mp, p) == in_reference_language(w, mp, p)


def _words(mp, predicate, max_len):
    """The language's words of length <= max_len, by length, then in
    alphabet order."""
    lengths = word_frontier(mp, predicate, None, max_len)
    return [
        word_of_code(code, ln, mp.alphabet)
        for ln, length in enumerate(lengths) for code, _, _ in length
    ]


def test_enumerate_examples():
    mp = powers_morphism()
    assert _words(mp, "reach", 2) == [(), ("a", "b")]
    assert _words(mp, "zero", 2) == [(), ("a", "b"), ("b", "a")]
    assert _words(mp, "cover", 1) == [(), ("a",)]
    # zero-weight letters are coverable too
    mp3 = MorphismPair(
        ("a", "b", "c"), 1,
        {"a": Matrix([[2]]), "b": Matrix([[3]]), "c": Matrix([[5]])},
        {"a": 1, "b": -1, "c": 0},
    )
    assert _words(mp3, "cover", 1) == [(), ("a",), ("c",)]


def test_enumerate_word_cap_is_a_resource_error():
    mp = powers_morphism()
    with pytest.raises(InfeasibleError):
        oracle_closure(mp, "all", 1, 10, Caps(oracle_words=5))


def test_enumeration_subset_relations():
    mp = powers_morphism()
    cover = set(_words(mp, "cover", 7))
    reach = set(_words(mp, "reach", 7))
    zero = set(_words(mp, "zero", 7))
    bz = set(_words(mp, "bz", 7))
    assert reach <= cover & zero
    assert bz <= zero


def test_concatenation_weight_rule():
    mp = powers_morphism()
    rng = random.Random(17)
    for _ in range(200):
        w = tuple(rng.choice("ab") for _ in range(rng.randint(0, 12)))
        k = rng.randint(0, len(w))
        u, v = w[:k], w[k:]
        cu, cv, cw = (classify_word(x, mp) for x in (u, v, w))
        assert cw.weight == cu.weight + cv.weight
        assert cw.min_prefix_weight == min(
            cu.min_prefix_weight, cu.weight + cv.min_prefix_weight
        )


def test_weights_outside_unit_range_rejected():
    with pytest.raises(SchemaError) as err:
        MorphismPair(("a",), 1, {"a": Matrix([[2]])}, {"a": 2})
    assert "normalized" in str(err.value)


@pytest.mark.parametrize("table", ["phi", "omega"])
def test_phi_and_omega_name_each_letter_and_no_other(table):
    def build(change):
        fields = {"phi": {"a": Matrix([[2]])}, "omega": {"a": 1}}
        change(fields[table])
        return MorphismPair(("a",), 1, fields["phi"], fields["omega"])

    extra = {"phi": Matrix([[3]]), "omega": -1}[table]
    with pytest.raises(SchemaError, match=f"^{table} letter 'b' not in alphabet$"):
        build(lambda t: t.update(b=extra))
    with pytest.raises(SchemaError, match=f"^{table} lacks letter 'a'$"):
        build(lambda t: t.pop("a"))


def test_split_weights_helper():
    mp, expansion = split_weights(
        ["a", "b"], 1,
        {"a": Matrix([[2]]), "b": Matrix([[3]])},
        {"a": 3, "b": -2},
    )
    assert expansion["a"] == ("a", "a'1", "a'2")
    assert mp.omega["a"] == mp.omega["a'1"] == 1
    assert mp.omega["b"] == mp.omega["b'1"] == -1
    assert mp.phi["a'1"] == Matrix.identity(1)
    assert mp.image(expansion["a"]) == Matrix([[2]])


def test_eta_override_is_explicit():
    mp = powers_morphism()
    assert mp.eta_is_default
    assert not mp.with_eta(2).eta_is_default
    with pytest.raises(SchemaError):
        mp.with_eta(-1)
