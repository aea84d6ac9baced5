import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import contains_poly
from zclosure.errors import PreconditionError
from zclosure.ideals import gens_from_strings, ideal_slice, parse_poly
from zclosure.polys import (
    BASIS_CACHE_SIZE,
    _grevlex_key,
    IdealGens,
    PolySpace,
    basis_index,
    monomial_basis,
    poly_mul,
    render_poly,
    space_to_generators,
    substitution_rows,
    var_name,
)


def test_monomial_basis_counts_and_order():
    basis = monomial_basis(4, 2)
    assert len(basis) == 15  # C(4+2, 2)
    degrees = [sum(m) for m in basis]
    assert degrees == sorted(degrees, reverse=True)
    # grevlex within a degree: x11^2 > x11*x12 > x12^2 (vars x11 < x12 < ...)
    two = [m for m in basis if sum(m) == 2]
    assert two[0] == (2, 0, 0, 0)
    assert two[1] == (1, 1, 0, 0)
    assert two[2] == (0, 2, 0, 0)


@pytest.mark.parametrize("nvars", range(6))
@pytest.mark.parametrize("degree", range(4))
def test_monomial_basis_matches_a_brute_force_listing(nvars, degree):
    every = itertools.product(range(degree + 1), repeat=nvars)
    want = sorted((m for m in every if sum(m) <= degree), key=_grevlex_key, reverse=True)
    assert monomial_basis(nvars, degree) == tuple(want)


def test_monomial_basis_of_many_variables():
    # more variables than the interpreter's recursion limit allows frames;
    # __wrapped__ skips the cache, which would keep the long tuples alive
    basis = monomial_basis.__wrapped__(1100, 1)
    assert len(basis) == 1101
    assert basis[0] == (1,) + (0,) * 1099 and basis[-1] == (0,) * 1100


def test_basis_caches_stay_bounded_and_exact():
    keys = [(nvars, degree) for nvars in range(1, 10) for degree in range(5)]
    assert len(keys) > BASIS_CACHE_SIZE
    for nvars, degree in keys + keys[:3]:  # the first keys again, evicted by now
        basis = monomial_basis(nvars, degree)
        assert basis == monomial_basis.__wrapped__(nvars, degree)
        assert basis_index(nvars, degree) == {m: i for i, m in enumerate(basis)}
    for cached in (monomial_basis, basis_index):
        assert 0 < cached.cache_info().currsize <= BASIS_CACHE_SIZE


def test_var_name_conventions():
    assert var_name(2, 1, 2) == "x12"
    assert var_name(12, 10, 3) == "x_{10}_{3}"


def test_render_and_parse_round_trip():
    rng = random.Random(22)
    for _ in range(100):
        d = rng.choice([1, 2, 3])
        basis = monomial_basis(d * d, 2)
        p = {}
        for mono in rng.sample(basis, rng.randint(1, min(5, len(basis)))):
            p[mono] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        p = {k: v for k, v in p.items() if v}
        if not p:
            continue
        text = render_poly(p, d)
        q = parse_poly(text, d)
        # round trip up to the canonical scalar
        assert render_poly(q, d) == text


def test_render_examples():
    # span{2x - 2} renders as x11 - 1 after clearing and normalization
    p = {(1,): Fraction(2), (0,): Fraction(-2)}
    assert render_poly(p, 1) == "x11 - 1"
    assert render_poly({}, 1) == "0"


def test_parse_rejects_garbage():
    from zclosure.errors import SchemaError

    with pytest.raises(SchemaError):
        parse_poly("x99", 2)
    with pytest.raises(SchemaError):
        parse_poly("x1", 2)


def test_ideal_slice_examples():
    # <x - 1> at d=1, D=2: spans {x-1, x^2-x}
    gens = gens_from_strings(1, 2, ["x11 - 1"])
    s = ideal_slice(gens, 2)
    assert s.space_dim == 2
    assert contains_poly(s, parse_poly("x11 - 1", 1))
    assert contains_poly(s, parse_poly("x11^2 - x11", 1))
    assert contains_poly(s, parse_poly("x11^2 - 1", 1))  # (x-1)(x+1) is in the ideal
    assert not contains_poly(s, parse_poly("x11^2 + 1", 1))

    assert ideal_slice(IdealGens(1, 2, ()), 2) == PolySpace.zero(1, 2)

    det = gens_from_strings(2, 2, ["x11*x22 - x12*x21 - 1"])
    assert ideal_slice(det, 2).space_dim == 1


def test_ideal_slice_degree_guard():
    det = gens_from_strings(2, 2, ["x11*x22 - x12*x21 - 1"])
    with pytest.raises(PreconditionError):
        ideal_slice(det, 1)


def test_space_to_generators_deterministic_and_invertible():
    gens = gens_from_strings(2, 2, ["x22 - 1", "x11 - x12*x21 - 1"])
    s = ideal_slice(gens, 2)
    out1 = space_to_generators(s)
    out2 = space_to_generators(ideal_slice(gens, 2))
    assert out1 == out2
    # parse(render(.)) reproduces the same space
    reparsed = gens_from_strings(2, 2, out1.generators)
    assert ideal_slice(reparsed, 2) == s


def test_space_to_generators_zero_space():
    assert space_to_generators(PolySpace.zero(2, 1)).generators == ()


def test_poly_mul_matches_expansion():
    # (x11 + 1)(x11 - 1) = x11^2 - 1
    p = parse_poly("x11 + 1", 1)
    q = parse_poly("x11 - 1", 1)
    assert render_poly(poly_mul(p, q), 1) == "x11^2 - 1"


def test_large_dimension_variable_names_round_trip():
    text = "x_{10}_{3} - 1"
    p = parse_poly(text, 10)
    assert render_poly(p, 10) == text


@st.composite
def _forms(draw):
    """A few polynomials of degree <= 2 in a few variables, rational
    coefficients, the zero polynomial included."""
    nvars = draw(st.integers(1, 3))
    terms = st.dictionaries(
        st.sampled_from(monomial_basis(nvars, 2)),
        st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool),
        max_size=3,
    )
    return nvars, draw(st.lists(terms, min_size=1, max_size=3)), draw(terms)


@settings(max_examples=100, deadline=None)
@given(_forms(), st.integers(0, 2), st.booleans())
def test_substitution_rows_match_repeated_products(drawn, degree, homogenize):
    nvars, forms, unit = drawn
    got = substitution_rows(forms, degree, nvars, unit if homogenize else None)
    basis = monomial_basis(len(forms), degree)
    assert len(got) == len(basis)
    for row, mono in zip(got, basis):
        want = {(0,) * nvars: Fraction(1)}
        for var, e in enumerate(mono):
            for _ in range(e):
                want = poly_mul(want, forms[var])
        if homogenize:
            for _ in range(degree - sum(mono)):
                want = poly_mul(want, unit)
        assert row == want
