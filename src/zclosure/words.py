"""One word against the languages of `lang.bounds`: its class (weight,
prefix-weight range and membership in each language), as the witness
builder (`constructions`) and the tests read it, and `split_weights`, the
opt-in rewriting of general integer weights into unit ones.  No pipeline run
imports this module.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

from .exactlin import Matrix
from .lang import MorphismPair, Word, bounds


class WordClass(NamedTuple):
    weight: int
    min_prefix_weight: int
    max_prefix_weight: int
    in_LC: bool
    in_LR: bool
    in_LZ: bool
    in_LBZ: bool


def classify_word(w: Sequence[str], mp: MorphismPair) -> WordClass:
    """The word's weight, prefix-weight range and membership in each language."""
    pw = mp.prefix_weights(mp.check_word(w))
    flags = (in_language(w, mp, predicate) for predicate in ("cover", "reach", "zero", "bz"))
    return WordClass(pw[-1], min(pw), max(pw), *flags)


def in_language(w: Sequence[str], mp: MorphismPair, predicate: str) -> bool:
    pw = mp.prefix_weights(mp.check_word(w))
    lo, hi, exact = bounds(predicate, mp.eta)
    return lo <= min(pw) and max(pw) <= hi and not (exact and pw[-1])


def split_weights(
    alphabet: Sequence[str],
    dim: int,
    phi: dict[str, Matrix],
    omega: dict[str, int],
    eta: int = 0,
) -> tuple[MorphismPair, dict[str, Word]]:
    """Rewrite general integer weights into unit weights.

    A weight-k letter a becomes a followed by |k|-1 fresh letters "a'1",...,
    each of weight sign(k); a keeps phi(a) and the fresh letters map to the
    identity.  Returns the normalized pair and the letter -> replacement-word
    map.  Off by default everywhere; callers opt in explicitly.
    """
    new_alphabet: list[str] = []
    new_phi: dict[str, Matrix] = {}
    new_omega: dict[str, int] = {}
    expansion: dict[str, Word] = {}
    for a in alphabet:
        k = omega[a]
        sign = 0 if k == 0 else (1 if k > 0 else -1)
        pieces = [a]
        for i in range(max(abs(k) - 1, 0)):
            pieces.append(f"{a}'{i + 1}")
        for i, b in enumerate(pieces):
            new_alphabet.append(b)
            new_phi[b] = phi[a] if i == 0 else Matrix.identity(dim)
            new_omega[b] = sign if abs(k) >= 1 else 0
        expansion[a] = tuple(pieces)
    return (
        MorphismPair(tuple(new_alphabet), dim, new_phi, new_omega, eta),
        expansion,
    )
