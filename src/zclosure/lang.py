"""Weighted-language semantics: morphism pairs and membership.

A morphism pair assigns each letter a square rational matrix and a weight in
{-1, 0, 1}.  A language is named by a predicate on prefix weights: a word is
in it when every prefix weight stays in a window [lo, hi] and, if the window
is exact, the total weight is 0.  `bounds` is the one table of the windows:

    cover  : every prefix has nonnegative weight
    reach  : cover and total weight zero
    zero   : total weight zero
    bz     : zero with every prefix weight in [-eta, eta]
    all    : every word

General integer weights are deliberately unsupported; `words.split_weights`
is the opt-in preprocessing helper that rewrites a weight-k letter into |k|
unit letters over a fresh intermediate alphabet.  A single word's class
and membership in each language (`words.classify_word`) are read off
`bounds` as well.
"""
from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate
from math import inf
from operator import mul
from typing import NamedTuple, Sequence

from .errors import DimensionError, PreconditionError, SchemaError
from .exactlin import Matrix

Word = tuple[str, ...]


@lru_cache(maxsize=1)
def default_eta(d: int) -> int:
    """Threshold 2^(d(d+3)) + 1 above which a word of that weight contains a
    stable factor of matching sign.  Built by a shift, and kept for the last
    d: a pair asks for it when it is made and again in `eta_is_default`, and
    at a large d the integer has d(d+3) bits."""
    return (1 << d * (d + 3)) + 1


class _MorphismPairFields(NamedTuple):
    alphabet: tuple[str, ...]
    dim: int
    phi: dict[str, Matrix]
    omega: dict[str, int]
    eta: int = 0


class MorphismPair(_MorphismPairFields):
    """Alphabet with per-letter matrix and normalized weight, plus the
    threshold eta (defaults to the guaranteed value for the dimension;
    overriding it is allowed but voids the theorem-level guarantees)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.eta == 0:
            self = self._replace(eta=default_eta(self.dim))
        if self.eta < 1:
            raise SchemaError("eta must be >= 1")
        if len(set(self.alphabet)) != len(self.alphabet) or not all(self.alphabet):
            raise SchemaError("alphabet letters must be distinct nonempty strings")
        for name, table in (("phi", self.phi), ("omega", self.omega)):
            for a in table:
                if a not in self.alphabet:
                    raise SchemaError(f"{name} letter {a!r} not in alphabet")
            for a in self.alphabet:
                if a not in table:
                    raise SchemaError(f"{name} lacks letter {a!r}")
        for a in self.alphabet:
            m = self.phi[a]
            if not (m.is_square and m.rows == self.dim):
                raise DimensionError(f"phi({a!r}) is not {self.dim}x{self.dim}")
            if self.omega[a] not in (-1, 0, 1):
                raise SchemaError(
                    f"omega({a!r}) = {self.omega[a]} is not in {{-1,0,1}}; general "
                    "weights must be normalized first (see split_weights)"
                )
        return self

    @property
    def eta_is_default(self) -> bool:
        return self.eta == default_eta(self.dim)

    def with_eta(self, eta: int) -> "MorphismPair":
        return MorphismPair(self.alphabet, self.dim, self.phi, self.omega, eta)

    def weight(self, w: Sequence[str]) -> int:
        return sum(self.omega[a] for a in w)

    def image(self, w: Sequence[str]) -> Matrix:
        return reduce(mul, (self.phi[a] for a in w), Matrix.identity(self.dim))

    def prefix_weights(self, w: Sequence[str]) -> list[int]:
        """The weights of the prefixes of w, from the empty one to w."""
        return list(accumulate((self.omega[a] for a in w), initial=0))

    def check_word(self, w: Sequence[str]) -> Word:
        w = tuple(w)
        for a in w:
            if a not in self.omega:
                raise PreconditionError(f"unknown letter {a!r}")
        return w


def bounds(predicate: str, eta: int) -> tuple[float, float, bool]:
    """(lo, hi, exact) of the predicate's language at threshold eta: its
    words keep every prefix weight in [lo, hi] and, if exact, end at 0."""
    windows = {
        "cover": (0, inf, False),
        "reach": (0, inf, True),
        "zero": (-inf, inf, True),
        "bz": (-eta, eta, True),
        "all": (-inf, inf, False),
    }
    if predicate not in windows:
        raise PreconditionError(f"unknown predicate {predicate!r}")
    return windows[predicate]
