import random
from fractions import Fraction

import pytest

from conftest import random_matrix, rref
from zclosure.errors import DimensionError, PreconditionError
from zclosure.exactlin import Matrix, Subspace
from zclosure.exterior import (
    ExtVector,
    combination,
    greedy_basis,
    iota,
    trivially_intersects,
    wedge,
)
from zclosure.stable import rank, rank_decomp


def test_iota_examples():
    s = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
    assert iota(s).coords == {(0, 1): Fraction(1)}
    s = Subspace.from_vectors(2, [[1, 1]])
    assert iota(s).coords == {(0,): Fraction(1), (1,): Fraction(1)}
    s = Subspace.from_vectors(2, [[2, 1], [0, 1]])  # all of Q^2
    assert iota(s).coords == {(0, 1): Fraction(1)}


def test_iota_zero_subspace_is_unit_scalar():
    assert iota(Subspace.zero(3)) == ExtVector.unit(3)


def test_wedge_examples():
    e1 = ExtVector.from_vector([1, 0])
    e2 = ExtVector.from_vector([0, 1])
    assert wedge(e1, e2).coords == {(0, 1): Fraction(1)}
    assert wedge(e1, e1).is_zero
    assert wedge(e1.add(e2), e2).coords == {(0, 1): Fraction(1)}


def test_wedge_dimension_mismatch():
    with pytest.raises(DimensionError):
        wedge(ExtVector.from_vector([1, 0]), ExtVector.from_vector([1, 0, 0]))


def test_overfull_wedge_is_zero():
    e1 = ExtVector.from_vector([1, 0])
    e2 = ExtVector.from_vector([0, 1])
    assert wedge(wedge(e1, e2), e1).is_zero


def test_trivially_intersects_examples():
    s1 = Subspace.from_vectors(2, [[1, 0]])
    s2 = Subspace.from_vectors(2, [[0, 1]])
    assert trivially_intersects(s1, s2)
    assert not trivially_intersects(s1, s1)
    assert trivially_intersects(
        Subspace.from_vectors(2, [[1, 1]]), Subspace.from_vectors(2, [[1, -1]])
    )


def test_wedge_nonzero_iff_independent():
    rng = random.Random(7)
    for _ in range(200):
        d = rng.randint(2, 5)
        k = rng.randint(1, d)
        vecs = [[Fraction(rng.randint(-2, 2)) for _ in range(d)] for _ in range(k)]
        prod = ExtVector.unit(d)
        for v in vecs:
            prod = wedge(prod, ExtVector.from_vector(v))
        assert (not prod.is_zero) == (len(rref(vecs)) == k)


def test_agreement_with_subspace_intersection():
    rng = random.Random(8)
    for _ in range(500):
        d = rng.randint(2, 5)
        s1 = Subspace.from_vectors(
            d, [[Fraction(rng.randint(-2, 2)) for _ in range(d)]
                for _ in range(rng.randint(1, d))]
        )
        s2 = Subspace.from_vectors(
            d, [[Fraction(rng.randint(-2, 2)) for _ in range(d)]
                for _ in range(rng.randint(1, d))]
        )
        if s1.dim == 0 or s2.dim == 0:
            continue
        assert trivially_intersects(s1, s2) == (s1.intersection(s2).dim == 0)


def test_wedge_associative_and_bilinear():
    rng = random.Random(9)
    for _ in range(100):
        d = rng.randint(2, 4)
        u, v, w = (
            ExtVector.from_vector([Fraction(rng.randint(-2, 2)) for _ in range(d)])
            for _ in range(3)
        )
        assert wedge(wedge(u, v), w) == wedge(u, wedge(v, w))
        c = Fraction(rng.randint(-3, 3))
        assert wedge(u.scale(c).add(v), w) == wedge(u, w).scale(c).add(wedge(v, w))


def test_greedy_basis_examples():
    v = ExtVector.from_vector([1, 0, 0])
    w = ExtVector.from_vector([0, 1, 0])
    assert greedy_basis([v, v, v]) == [1]
    assert greedy_basis([v, w, v.add(w), v]) == [1, 2]
    with pytest.raises(PreconditionError):
        greedy_basis([])
    with pytest.raises(DimensionError):
        greedy_basis([v, ExtVector.from_vector([1, 0])])


def test_greedy_basis_matches_incremental_rref_oracle():
    rng = random.Random(10)
    for _ in range(50):
        d = rng.randint(2, 3)
        vs = []
        for _ in range(rng.randint(1, 8)):
            m = random_matrix(rng, d)
            if rank(m) == 0:
                continue
            vs.append(iota(rank_decomp(m)[1]))
        if not vs:
            continue
        got = greedy_basis(vs)
        # oracle: dense rref rank growth over the full coordinate space
        keys = sorted({k for v in vs for k in v.coords})
        rows = []
        expect = []
        for i, v in enumerate(vs):
            rows.append([v.coords.get(k, Fraction(0)) for k in keys])
            if len(rref(rows)) > (len(rref(rows[:-1])) if i else 0):
                expect.append(i + 1)
        assert got == expect


def test_greedy_basis_spans_input():
    rng = random.Random(11)
    for _ in range(50):
        d = rng.randint(2, 3)
        vs = [
            ExtVector.from_vector([Fraction(rng.randint(-2, 2)) for _ in range(d)])
            for _ in range(6)
        ]
        vs = [v for v in vs if not v.is_zero]
        if not vs:
            continue
        chosen = [vs[i - 1] for i in greedy_basis(vs)]
        for v in vs:
            assert combination(chosen, v) is not None
