"""Monomial bases, polynomial rendering/parsing, and polynomial spaces.

A polynomial in the d x d matrix entries lives in variables x_{ij} flattened
row-major (variable order x11 < x12 < ... < xdd).  The coefficient-vector
basis enumerates all monomials of total degree <= D in graded reverse
lexicographic order, largest first, so the RREF pivot of a basis vector is
its grevlex leading monomial.  Rendering clears denominators, divides out the
content and makes the leading coefficient positive; parse(render(p)) is the
identity on canonical forms.
"""
from __future__ import annotations

import re
from bisect import bisect
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import gcd, lcm
from typing import NamedTuple, Sequence

from .errors import DimensionError, PreconditionError, SchemaError
from .exactlin import Subspace, Vector

Exponent = tuple[int, ...]
Poly = dict[Exponent, Fraction]


def _grevlex_key(alpha: Exponent) -> tuple:
    return (sum(alpha),) + tuple(-e for e in reversed(alpha))


# Distinct (nvars, degree) keys the two caches below keep: a `closure run`
# uses one, a perfbench pass two, and `closure verify-corpus` ten in all.
BASIS_CACHE_SIZE = 32


@lru_cache(maxsize=BASIS_CACHE_SIZE)
def monomial_basis(nvars: int, degree: int) -> tuple[Exponent, ...]:
    """All exponent tuples of total degree <= degree, grevlex-descending.
    Each is a multiset of `degree` variables, variable `nvars` standing for
    the degree left over."""
    monos: list[Exponent] = []
    for picks in combinations_with_replacement(range(nvars + 1), degree):
        alpha = [0] * (nvars + 1)
        for v in picks:
            alpha[v] += 1
        monos.append(tuple(alpha[:nvars]))
    monos.sort(key=_grevlex_key, reverse=True)
    return tuple(monos)


@lru_cache(maxsize=BASIS_CACHE_SIZE)
def basis_index(nvars: int, degree: int) -> dict[Exponent, int]:
    return {m: i for i, m in enumerate(monomial_basis(nvars, degree))}


def poly_mul(p: Poly, q: Poly) -> Poly:
    """p * q, with the coefficients' own arithmetic: integer polynomials
    multiply to an integer one."""
    out: Poly = {}
    for ka, va in p.items():
        for kb, vb in q.items():
            k = tuple(a + b for a, b in zip(ka, kb))
            s = out.get(k, 0) + va * vb
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def monomial_steps(nvars: int, degree: int) -> list[tuple[int, int, int]]:
    """(monomial, parent, variable) as `monomial_basis` indices, ascending in
    degree: each nonconstant monomial is its parent (one degree lower) times
    the variable, and every parent comes before its children."""
    basis = monomial_basis(nvars, degree)
    index = basis_index(nvars, degree)
    steps = []
    for k in reversed(range(len(basis))):
        mono = basis[k]
        var = next((v for v, e in enumerate(mono) if e), None)
        if var is not None:
            steps.append((k, index[mono[:var] + (mono[var] - 1,) + mono[var + 1:]], var))
    return steps


def substitution_rows(
    forms: Sequence[Poly], degree: int, nvars: int, unit: Poly | None = None
) -> list[Poly]:
    """The monomials composed with the forms: for each e in
    `monomial_basis(len(forms), degree)`, prod_v forms[v]^e_v as a polynomial
    in `nvars` variables, times unit^(degree - |e|) when `unit` is given.
    Each product is its parent's times one form (`monomial_steps`).  The
    empty product is the integer 1, so integer forms give integer rows."""
    basis = monomial_basis(len(forms), degree)
    one: Poly = {(0,) * nvars: 1}
    out = [one] * len(basis)
    for k, parent, var in monomial_steps(len(forms), degree):
        out[k] = poly_mul(out[parent], forms[var])
    if unit is None:
        return out
    powers = [one]
    for _ in range(degree):
        powers.append(poly_mul(powers[-1], unit))
    return [poly_mul(p, powers[degree - sum(e)]) for p, e in zip(out, basis)]


def poly_degree(p: Poly) -> int:
    return max((sum(k) for k in p), default=0)


def poly_to_vector(p: Poly, nvars: int, degree: int) -> Vector:
    idx = basis_index(nvars, degree)
    vec = [Fraction(0)] * len(idx)
    for k, v in p.items():
        if k not in idx:
            raise PreconditionError(f"monomial degree exceeds the bound {degree}")
        vec[idx[k]] = v
    return tuple(vec)


def var_name(d: int, i: int, j: int) -> str:
    return f"x{i}{j}" if d <= 9 else f"x_{{{i}}}_{{{j}}}"


def render_poly(p: Poly, d: int) -> str:
    """Integer-cleared, grevlex-descending, positive leading coefficient."""
    if not p:
        return "0"
    den = lcm(*(v.denominator for v in p.values()))
    num = gcd(*(abs(v.numerator * den // v.denominator) for v in p.values()))
    scale = Fraction(den, num)
    terms = sorted(p.items(), key=lambda kv: _grevlex_key(kv[0]), reverse=True)
    if (terms[0][1] * scale) < 0:
        scale = -scale
    out = []
    for alpha, coeff in terms:
        c = coeff * scale
        assert c.denominator == 1
        n = c.numerator
        factors = []
        for var, e in enumerate(alpha):
            if e:
                i, j = divmod(var, d)
                name = var_name(d, i + 1, j + 1)
                factors.append(name if e == 1 else f"{name}^{e}")
        body = "*".join(factors)
        mag = abs(n)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if not out:
            out.append(text if n > 0 else f"-{text}")
        else:
            out.append(("+ " if n > 0 else "- ") + text)
    return " ".join(out)


_TERM_RE = re.compile(r"^(\d+)?\*?((?:x\d\d|x_\{\d+\}_\{\d+\})(?:\^\d+)?(?:\*(?:x\d\d|x_\{\d+\}_\{\d+\})(?:\^\d+)?)*)?$")
_VAR_RE = re.compile(r"^(?:x(\d)(\d)|x_\{(\d+)\}_\{(\d+)\})(?:\^(\d+))?$")


def parse_poly(text: str, d: int) -> Poly:
    text = text.strip()
    if text == "0":
        return {}
    text = text.replace("-", " - ").replace("+", " + ")
    tokens = text.split()
    sign = 1
    out: Poly = {}
    i = 0
    nvars = d * d
    while i < len(tokens):
        tok = tokens[i]
        if tok == "+":
            sign = 1
            i += 1
            continue
        if tok == "-":
            sign = -1
            i += 1
            continue
        m = _TERM_RE.match(tok)
        if not m:
            raise SchemaError(f"cannot parse polynomial term {tok!r}")
        coeff = Fraction(int(m.group(1))) if m.group(1) else Fraction(1)
        alpha = [0] * nvars
        if m.group(2):
            for factor in m.group(2).split("*"):
                vm = _VAR_RE.match(factor)
                if not vm:
                    raise SchemaError(f"cannot parse variable {factor!r}")
                gi = vm.group(1) or vm.group(3)
                gj = vm.group(2) or vm.group(4)
                e = int(vm.group(5)) if vm.group(5) else 1
                vi, vj = int(gi), int(gj)
                if not (1 <= vi <= d and 1 <= vj <= d):
                    raise SchemaError(f"variable {factor!r} out of range for d={d}")
                alpha[(vi - 1) * d + (vj - 1)] += e
        key = tuple(alpha)
        s = out.get(key, Fraction(0)) + sign * coeff
        if s:
            out[key] = s
        else:
            out.pop(key, None)
        sign = 1
        i += 1
    return out


class _PolySpaceFields(NamedTuple):
    dim: int
    degree: int
    vanishing_basis: Subspace


class PolySpace(_PolySpaceFields):
    """A subspace of the degree-<=D coefficient space for d x d entries,
    held canonically (RREF); pipeline outputs use it for vanishing spaces."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        expected = len(monomial_basis(self.dim * self.dim, self.degree))
        if self.vanishing_basis.ambient_dim != expected:
            raise DimensionError("coefficient vectors do not match the basis")
        return self

    @property
    def space_dim(self) -> int:
        return self.vanishing_basis.dim

    def polynomials(self) -> list[Poly]:
        """The basis rows as polynomials, read off without testing every
        entry: an RREF row is zero before its pivot, which lies past the
        previous row's, and at every other row's pivot, so only its pivot
        and the columns that are no row's pivot can hold its terms."""
        basis = monomial_basis(self.dim * self.dim, self.degree)
        rows = self.vanishing_basis.basis
        pivots, j = [], 0
        for row in rows:
            while not row[j]:
                j += 1
            pivots.append(j)
            j += 1
        free = sorted(set(range(len(basis))) - set(pivots))
        return [
            {basis[p]: row[p], **{basis[f]: row[f] for f in free[bisect(free, p):] if row[f]}}
            for row, p in zip(rows, pivots)
        ]

    @staticmethod
    def from_vectors(dim: int, degree: int, vectors) -> "PolySpace":
        n = len(monomial_basis(dim * dim, degree))
        return PolySpace(dim, degree, Subspace.from_vectors(n, vectors))

    @staticmethod
    def zero(dim: int, degree: int) -> "PolySpace":
        n = len(monomial_basis(dim * dim, degree))
        return PolySpace(dim, degree, Subspace.zero(n))

    @staticmethod
    def full(dim: int, degree: int) -> "PolySpace":
        n = len(monomial_basis(dim * dim, degree))
        return PolySpace(dim, degree, Subspace.full(n))


class IdealGens(NamedTuple):
    """Deterministic generator listing; round-trips through parsing."""

    dim: int
    degree: int
    generators: tuple[str, ...]

    def polynomials(self) -> list[Poly]:
        return [parse_poly(g, self.dim) for g in self.generators]


def space_to_generators(s: PolySpace) -> IdealGens:
    gens = tuple(render_poly(p, s.dim) for p in s.polynomials())
    return IdealGens(s.dim, s.degree, gens)


def ideal_slice(gens: IdealGens, degree: int) -> PolySpace:
    """Span of {g * m : deg(g * m) <= degree} over the generator list."""
    nvars = gens.dim * gens.dim
    vectors = []
    for g in gens.polynomials():
        dg = poly_degree(g)
        if dg > degree:
            raise PreconditionError(
                f"generator degree {dg} exceeds the slice degree {degree}"
            )
        for mono in monomial_basis(nvars, degree - dg):
            prod = poly_mul(g, {mono: Fraction(1)})
            vectors.append(poly_to_vector(prod, nvars, degree))
    if not vectors:
        return PolySpace.zero(gens.dim, degree)
    return PolySpace.from_vectors(gens.dim, degree, vectors)


def gens_from_strings(d: int, degree: int, gens) -> IdealGens:
    # normalize through parse -> render so equality is canonical
    return IdealGens(
        d, degree, tuple(render_poly(parse_poly(g, d), d) for g in gens)
    )
