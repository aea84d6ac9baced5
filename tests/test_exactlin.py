import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_matrix, rref
from zclosure.errors import DimensionError, PreconditionError
from zclosure.exactlin import Matrix, Subspace
from zclosure.stable import invert, is_stable, rank, rank_decomp, stable_identity


def _transpose(m: Matrix) -> Matrix:
    return Matrix(list(zip(*m.entries))) if m.entries else m


def _matvec(m: Matrix, v) -> tuple:
    assert len(v) == m.cols
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m.entries)


def test_rank_decomp_invertible():
    r, image, ker = rank_decomp(Matrix([[1, 1], [0, 1]]))
    assert r == 2
    assert image == Subspace.full(2)
    assert ker == Subspace.zero(2)


def test_rank_decomp_jordan_block():
    r, image, ker = rank_decomp(Matrix([[0, 1], [0, 0]]))
    assert r == 1
    assert image == Subspace.from_vectors(2, [[1, 0]])
    assert ker == Subspace.from_vectors(2, [[1, 0]])


def test_rank_decomp_zero():
    r, image, ker = rank_decomp(Matrix.zeros(2))
    assert (r, image, ker) == (0, Subspace.zero(2), Subspace.full(2))


def test_rank_decomp_rejects_non_square():
    with pytest.raises(DimensionError):
        rank_decomp(Matrix([[1, 2, 3], [4, 5, 6]]))


def test_is_stable_examples():
    assert not is_stable(Matrix([[0, 1], [0, 0]]))
    assert is_stable(Matrix([[2, 0], [0, 4]]))
    # hand oracle: M^2 = [[4,0],[2,0]] keeps rank 1
    assert is_stable(Matrix([[2, 0], [1, 0]]))


def test_stable_identity_examples():
    assert stable_identity(Matrix([[3, 1], [1, 1]])) == Matrix.identity(2)
    p = Matrix([[1, 0], [0, 0]])
    assert stable_identity(p) == p
    m = Matrix([[2, 0], [1, 0]])
    q = stable_identity(m)
    assert q == Matrix([[1, 0], [Fraction(1, 2), 0]])
    assert q * m == m and m * q == m


def test_stable_identity_rejects_unstable():
    with pytest.raises(PreconditionError):
        stable_identity(Matrix([[0, 1], [0, 0]]))


def test_rank_of_transpose_matches():
    rng = random.Random(1)
    for _ in range(100):
        m = random_matrix(rng, rng.randint(1, 4))
        assert rank(m) == rank(_transpose(m)) == len(rref(m.entries))


def test_rank_nullity_on_random_matrices():
    rng = random.Random(2)
    for _ in range(100):
        d = rng.randint(1, 4)
        m = random_matrix(rng, d)
        r, image, ker = rank_decomp(m)
        assert r == image.dim
        assert image.dim + ker.dim == d
        for v in ker.basis:
            assert _matvec(m, v) == tuple([Fraction(0)] * d)
        for col in m.columns():
            assert image.contains(col)


def test_stability_iff_trivial_image_kernel_intersection():
    rng = random.Random(3)
    singulars = 0
    for _ in range(200):
        d = rng.randint(1, 3)
        m = random_matrix(rng, d)
        _, image, ker = rank_decomp(m)
        assert is_stable(m) == (image.intersection(ker).dim == 0)
        singulars += rank(m) < d
    assert singulars > 20  # the sample genuinely includes singular matrices


def _random_stable(rng: random.Random, d: int) -> Matrix:
    # A.B with an invertible middle is stable; rejection keeps it honest
    while True:
        m = random_matrix(rng, d)
        if is_stable(m):
            return m


def test_stable_identity_properties_on_random_stable_matrices():
    rng = random.Random(4)
    for _ in range(200):
        d = rng.randint(1, 3)
        m = _random_stable(rng, d)
        p = stable_identity(m)
        assert p * p == p
        assert p * m == m and m * p == m
        assert rank(p) == rank(m)
        assert rank_decomp(p)[1] == rank_decomp(m)[1]
        assert rank_decomp(p)[2] == rank_decomp(m)[2]


def test_subspace_equality_is_canonical():
    rng = random.Random(5)
    for _ in range(50):
        d = rng.randint(2, 4)
        vecs = [[Fraction(rng.randint(-3, 3)) for _ in range(d)] for _ in range(d)]
        s1 = Subspace.from_vectors(d, vecs)
        # a shuffled, rescaled spanning set of the same space
        mixed = [
            [3 * x for x in vecs[i]] for i in rng.sample(range(len(vecs)), len(vecs))
        ]
        mixed.append([a + b for a, b in zip(vecs[0], vecs[-1])])
        s2 = Subspace.from_vectors(d, mixed)
        assert s1 == s2
        assert s1.basis == tuple(rref(vecs))


def test_rref_pivot_choice_is_first_nonzero_column():
    rows = Subspace.from_vectors(3, [[0, 2, 4], [0, 0, 3]]).basis
    assert rows == (
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    )


def test_invert_round_trip():
    rng = random.Random(6)
    for _ in range(30):
        d = rng.randint(1, 4)
        m = random_matrix(rng, d)
        if rank(m) < d:
            continue
        assert m * invert(m) == Matrix.identity(d)
        aug = rref([row + unit for row, unit in zip(m.entries, Matrix.identity(d).entries)])
        assert invert(m) == Matrix([row[d:] for row in aug])


def test_wrong_lengths_and_singular_inverse_are_refused():
    with pytest.raises(DimensionError):
        Subspace.from_vectors(3, [[1, 0, 0], [1, 2]])
    with pytest.raises(DimensionError):
        Subspace.from_vectors(2, [[0, 0, 0]])
    with pytest.raises(DimensionError):
        Subspace.full(2).contains([1, 2, 3])
    with pytest.raises(DimensionError):
        Subspace.from_vectors(3, [[1, 0, 0]]).contains([1, 0])
    with pytest.raises(PreconditionError):
        invert(Matrix([[1, 2], [2, 4]]))
    with pytest.raises(PreconditionError):
        invert(Matrix.zeros(3))


_ENTRIES = st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(-1),
                            Fraction(2), Fraction(1, 2), Fraction(-3, 4)])


@st.composite
def _subspace_pairs(draw):
    n = draw(st.integers(1, 5))
    vectors = st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), max_size=n + 1)
    return n, draw(vectors), draw(vectors)


@settings(max_examples=300, deadline=None)
@given(_subspace_pairs())
@example((3, [], [[1, 0, 0]]))  # a zero operand
@example((2, [[1, 0], [0, 1]], [[1, 1]]))  # a full operand
@example((3, [[1, 0, 0], [0, 1, 0]], [[0, 1, 0], [0, 0, 1]]))  # a line in two planes
def test_intersection_matches_fraction_reference(pair):
    n, b1, b2 = pair
    w1, w2 = Subspace.from_vectors(n, b1), Subspace.from_vectors(n, b2)
    meet = w1.intersection(w2)
    assert meet == w2.intersection(w1)
    assert meet.ambient_dim == n
    assert list(meet.basis) == rref(meet.basis)  # canonical
    r1, r2 = len(rref(b1)), len(rref(b2))
    for v in meet.basis:
        assert len(rref([*b1, v])) == r1 and len(rref([*b2, v])) == r2
    assert meet.dim == r1 + r2 - len(rref([*b1, *b2]))
