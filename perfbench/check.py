"""Output checks that do not trust the code under test.

Each returned generator must vanish at phi(w) for words w sampled from the
instance's language.  Words are drawn by this file's own automaton and
counter walks, phi(w) is this file's own exact `Fraction` product, and the
generator strings are read by this file's own parser.  Nothing here imports
zclosure.
"""
from __future__ import annotations

import random
import re
from fractions import Fraction

from workloads import Mat, identity, mat, mat_mul

WORDS_PER_INSTANCE = 24
MAX_WORD_LEN = 40

_VAR = re.compile(r"x(\d)(\d)(?:\^(\d+))?$")


def parse_poly(text: str) -> list[tuple[int, list[tuple[int, int, int]]]]:
    """Terms of a rendered generator ("x11^2 - 2*x12*x21 + 1") as
    (coefficient, [(row, col, exponent), ...]), indices from 0."""
    terms = []
    sign = 1
    for tok in text.replace("-", " - ").replace("+", " + ").split():
        if tok in "+-":
            sign = -1 if tok == "-" else 1
            continue
        coeff, factors = 1, []
        for part in tok.split("*"):
            if part.isdigit():
                coeff = int(part)
                continue
            m = _VAR.match(part)
            if m is None:
                raise ValueError(f"cannot read factor {part!r} of {text!r}")
            factors.append((int(m[1]) - 1, int(m[2]) - 1, int(m[3] or 1)))
        terms.append((sign * coeff, factors))
        sign = 1
    return terms


def evaluate(terms, m: Mat) -> Fraction:
    total = Fraction(0)
    for coeff, factors in terms:
        t = Fraction(coeff)
        for i, j, e in factors:
            t *= m[i][j] ** e
        total += t
    return total


# ---------------------------------------------------------------------------
# Language samplers: each yields accepted words as letter tuples


def _counter_steps(doc: dict):
    """(initial config, step function, acceptance test) for the counter modes;
    a configuration is (state, counter)."""
    mode = doc["mode"]
    if mode.startswith("vass-"):
        vass = doc["vass"]
        by_src: dict = {}
        for src, letter, w, dst in vass["transitions"]:
            by_src.setdefault(src, []).append((letter, w, dst))

        def steps(cfg):
            q, c = cfg
            return [(a, (dst, c + w)) for a, w, dst in by_src.get(q, []) if c + w >= 0]

        reach = mode == "vass-reach"
        accepting = set(vass["accepting"])
        return (vass["initial"], 0), steps, lambda cfg: cfg[0] in accepting and (
            not reach or cfg[1] == 0)
    omega = doc["omega"]
    floor = None if mode == "zero" else 0

    def steps(cfg):
        _, c = cfg
        return [(a, (None, c + w)) for a, w in sorted(omega.items())
                if floor is None or c + w >= floor]

    return (None, 0), steps, lambda cfg: mode == "cover" or cfg[1] == 0


def _nfa_steps(doc: dict):
    nfa = doc["nfa"]
    delta: dict = {}
    for q, a, r in nfa["transitions"]:
        delta.setdefault((q, a), set()).add(r)
    accepting = set(nfa["accepting"])

    def steps(cfg):
        out = []
        for a in doc["alphabet"]:
            nxt = frozenset(r for q in cfg for r in delta.get((q, a), ()))
            if nxt:
                out.append((a, nxt))
        return out

    return frozenset(nfa["initial"]), steps, lambda cfg: bool(cfg & accepting)


def sample_words(doc: dict, rng: random.Random) -> list[tuple[str, ...]]:
    """Every accepted word up to length 8, then accepted prefixes of random
    walks up to MAX_WORD_LEN letters, WORDS_PER_INSTANCE words in all."""
    start, steps, accepts = (_nfa_steps if doc["mode"] == "regular"
                             else _counter_steps)(doc)
    found: list[tuple[str, ...]] = []
    level = [((), start)]
    for _ in range(9):
        found.extend(w for w, cfg in level if accepts(cfg))
        level = [(w + (a,), nxt) for w, cfg in level for a, nxt in steps(cfg)]
    short = sorted(set(found), key=lambda w: (len(w), w))
    words = rng.sample(short, min(len(short), WORDS_PER_INSTANCE // 2))
    walks = 0
    while len(words) < WORDS_PER_INSTANCE and walks < 50 * WORDS_PER_INSTANCE:
        walks += 1
        word, cfg = (), start
        for _ in range(rng.randint(9, MAX_WORD_LEN)):
            options = steps(cfg)
            if not options:
                break
            a, cfg = rng.choice(options)
            word += (a,)
        if accepts(cfg) and len(word) > 8:
            words.append(word)
    return words or [()]


def image(doc: dict, word) -> Mat:
    phi = {a: mat(m) for a, m in doc["phi"].items()}
    m = identity(doc["dimension"])
    for a in word:
        m = mat_mul(m, phi[a])
    return m


def vanishing_failures(doc: dict, generators: list[str], rng: random.Random) -> list[str]:
    """Messages for every (generator, word) pair where the generator does not
    vanish at phi(word); empty when the output passes."""
    polys = [(g, parse_poly(g)) for g in generators]
    bad = []
    for word in sample_words(doc, rng):
        m = image(doc, word)
        for text, terms in polys:
            if evaluate(terms, m) != 0:
                bad.append(f"{text!r} does not vanish at phi({''.join(word) or 'eps'})")
    return bad
