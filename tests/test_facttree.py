import random
from fractions import Fraction

import pytest

from conftest import powers_morphism, random_matrix, random_rank_sequence, unipotent_morphism
from zclosure.errors import InternalInvariantError, PreconditionError
from zclosure.exactlin import Matrix
from zclosure.facttree import (
    FactTree,
    build_rank_tree,
    build_tree,
    extract_stable_factor,
    validate_tree,
    validate_tree_report,
)
from zclosure.lang import MorphismPair
from zclosure.stable import is_stable

A = Matrix([[1, 1], [0, 1]])


def test_single_matrix_is_a_leaf():
    t = build_rank_tree([A])
    assert t.is_leaf and t.height == 0
    assert build_tree([A]).height == 0


def test_pair_is_binary():
    t = build_rank_tree([A, A])
    assert t.height == 1 and len(t.children) == 2


def test_five_copies_keeps_height_two():
    ms = [A] * 5
    t = build_rank_tree(ms)
    assert t.height <= 2
    assert validate_tree(t, ms)


def test_rank_tree_rejects_non_rank_sequence():
    nil = Matrix([[0, 1], [0, 0]])
    with pytest.raises(PreconditionError) as err:
        build_rank_tree([nil, nil])  # product drops to rank 0
    assert "prefix 1..2" in str(err.value)
    with pytest.raises(PreconditionError):
        build_rank_tree([A, nil])  # mixed factor ranks


def test_witness_rewind_sequences():
    # prefix before the last greedy element is unstable; the witness rewinds
    m1 = Matrix([[1, 1], [0, 0]])
    m2 = Matrix([[0, 0], [1, 0]])
    m3 = Matrix([[1, 0], [0, 0]])
    t = build_rank_tree([m1, m2, m3])
    assert validate_tree(t, [m1, m2, m3]) and t.height <= 4
    # final element outside the greedy certificate
    m1 = Matrix([[0, 0], [1, 1]])
    m3 = Matrix([[0, 0], [1, 0]])
    m4 = Matrix([[1, 0], [0, 0]])
    ms = [m1, m1, m3, m4]
    t = build_rank_tree(ms)
    assert validate_tree(t, ms) and t.height <= 4


def test_build_tree_alternating_nilpotents():
    n1 = Matrix([[0, 1], [0, 0]])
    n2 = Matrix([[0, 0], [1, 0]])
    ms = [n1 if i % 2 == 0 else n2 for i in range(20)]
    t = build_tree(ms)
    assert validate_tree(t, ms)
    assert t.height <= 10


def test_build_tree_random_d2_within_bound():
    rng = random.Random(12)
    for _ in range(40):
        ms = [random_matrix(rng, 2) for _ in range(rng.randint(1, 50))]
        t = build_tree(ms)
        assert validate_tree(t, ms)
        assert t.height <= 10


def test_build_tree_rejects_empty():
    with pytest.raises(PreconditionError):
        build_tree([])


def test_validate_tree_accepts_construction_and_binary_trees():
    rng = random.Random(13)
    ms = [random_matrix(rng, 2) for _ in range(9)]
    assert validate_tree(build_tree(ms), ms)

    # balanced binary-only tree needs no stability anywhere
    def balanced(lo, hi):
        if hi - lo == 1:
            return FactTree(ms[lo], (lo, lo + 1))
        mid = (lo + hi) // 2
        left, right = balanced(lo, mid), balanced(mid, hi)
        return FactTree(left.label * right.label, (lo, hi), (left, right))

    assert validate_tree(balanced(0, len(ms)), ms)


def test_validate_tree_rejects_corruption():
    ms = [A, A, A]
    t = build_tree(ms)
    bad = FactTree(Matrix.zeros(2), t.span, t.children)
    ok, msg = validate_tree_report(bad, ms)
    assert not ok and "product" in msg
    ok, msg = validate_tree_report(t, [A, A])
    assert not ok


def test_wide_nodes_carry_stable_labels():
    rng = random.Random(14)
    for _ in range(30):
        ms = [random_matrix(rng, 2) for _ in range(rng.randint(3, 25))]
        for node in build_tree(ms).iter_nodes():
            if len(node.children) >= 3:
                assert is_stable(node.label)


def test_yield_reconstruction_exact():
    rng = random.Random(15)
    for _ in range(30):
        d = rng.choice([1, 2, 3])
        ms = [random_matrix(rng, d) for _ in range(rng.randint(1, 30))]
        t = build_tree(ms)
        assert [lf.label for lf in t.leaves()] == ms
        assert [lf.span for lf in t.leaves()] == [(i, i + 1) for i in range(len(ms))]


def test_rank_sequences_respect_segment_rank_claim():
    rng = random.Random(16)
    for _ in range(40):
        d = rng.choice([2, 3])
        r = rng.randint(1, d)
        ms = random_rank_sequence(rng, d, r, rng.randint(2, 10))
        t = build_rank_tree(ms)
        assert validate_tree(t, ms)
        assert t.height <= d + 2
        # every segment product keeps rank r (claimed consequence)
        from zclosure.stable import rank

        prod = ms[0]
        for m in ms[1:]:
            prod = prod * m
            assert rank(prod) == r


def test_extract_stable_factor_examples():
    mp = powers_morphism()
    assert mp.eta == 17
    i, j = extract_stable_factor(tuple("a" * 17), mp, 1)
    assert set("a" * 17)  # any all-a span qualifies
    assert 0 <= i < j <= 17

    # whole word stable with positive weight: the root qualifies
    mp2 = unipotent_morphism().with_eta(3)
    assert extract_stable_factor(tuple("aaa"), mp2, 1) == (0, 3)

    i, j = extract_stable_factor(tuple("b" * 17), mp, -1)
    assert 0 <= i < j <= 17


def test_extract_stable_factor_precondition():
    mp = powers_morphism()
    with pytest.raises(PreconditionError):
        extract_stable_factor(tuple("a" * 16), mp, 1)
    with pytest.raises(PreconditionError):
        extract_stable_factor(tuple("a" * 17), mp, 2)


def test_extract_can_fail_below_the_guaranteed_threshold():
    nil = Matrix([[0, 1], [0, 0]])
    mp = MorphismPair(("c",), 2, {"c": nil}, {"c": 1}, eta=1)
    with pytest.raises(InternalInvariantError):
        extract_stable_factor(("c",), mp, 1)
