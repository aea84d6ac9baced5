"""Generator strings read back, and the degree slice of the ideal they
generate: what `closure verify-corpus` and the tests compare a report's
generators with.  No pipeline run imports this module.

`parse_poly` reads what `polys.render_poly` writes, so parse(render(p)) is
the identity on canonical forms, and `gens_from_strings` normalizes a list of
generators through that round trip so that equal lists are equal ideals'
canonical listings.
"""
from __future__ import annotations

import re
from fractions import Fraction

from .errors import PreconditionError, SchemaError
from .polys import IdealGens, Poly, PolySpace, monomial_basis, poly_mul, poly_to_vector, render_poly

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


def poly_degree(p: Poly) -> int:
    return max((sum(k) for k in p), default=0)


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
