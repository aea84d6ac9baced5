"""The commands other than `closure run`: `verify-corpus`, `tree`,
`automaton` and `oracle` (`COMMANDS`), with the corpus they verify.
`cli.main` imports this module only when one of them runs, so a `closure
run` process compiles none of it.

`verify-corpus` runs every bundled instance through `closure run`'s report
and compares its generators with the entry's expected ones, then checks two
built-in entries: the chain of finite sets that grows strictly forever
(`recurrence_chain`) and the block reduction's dimensions and extraction.
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction

from .automata import Nfa
from .cli import Instance, _language, _read_json, load_instance, run_pipeline
from .closure import DEFAULT_CAPS, regular_closure
from .constructions import (
    build_bz_automaton,
    build_cover_automaton,
    build_reach_automaton,
    build_zero_automaton,
    determinize,
)
from .errors import InfeasibleError, PreconditionError, SchemaError, ZClosureError
from .exactlin import Matrix
from .ideals import gens_from_strings, ideal_slice
from .lang import MorphismPair
from .oracle import oracle_closure
from .polys import space_to_generators


# ---------------------------------------------------------------------------
# The non-stabilizing chain of finite sets (regression corpus)


def monoid_closure(seed: list[Matrix], cap: int = 512) -> frozenset[Matrix]:
    d = seed[0].rows
    out = set(seed) | {Matrix.identity(d)}
    frontier = list(out)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(out):
                for prod in (a * b, b * a):
                    if prod not in out:
                        out.add(prod)
                        nxt.append(prod)
                        if len(out) > cap:
                            raise InfeasibleError("monoid closure exceeded the cap")
        frontier = nxt
    return frozenset(out)


def recurrence_chain(steps: int) -> list[frozenset[Matrix]]:
    """S_0 = closure{0, N}; S_{i+1} = closure(S_i + alpha S_i beta).  The sets
    grow strictly forever; finite saturation cannot compute the closure."""
    zero = Matrix.zeros(2)
    nil = Matrix([[0, 1], [0, 0]])
    alpha = Matrix([[2, 0], [0, 1]])
    beta = Matrix([[Fraction(1, 2), 0], [0, 1]])
    chain = [monoid_closure([zero, nil])]
    for _ in range(steps):
        prev = chain[-1]
        seed = list(prev) + [alpha * x * beta for x in prev]
        chain.append(monoid_closure(seed))
    return chain


# ---------------------------------------------------------------------------
# Corpus


def _iter_corpus_files(corpus_dir=None):
    """(file name, file) of each `.json` file of the corpus directory, the
    bundled one by default, in name order; a missing directory has none."""
    from importlib import resources
    from pathlib import Path

    root = resources.files("zclosure") / "corpus" if corpus_dir is None else Path(corpus_dir)
    if not root.is_dir():
        return
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            yield entry.name, entry


def _verify_entry(name: str, entry) -> dict:
    doc = _read_json(entry, name)
    instance = Instance(doc, name)
    expected = doc.get("expected_generators")
    if expected is not None and not (
        isinstance(expected, list) and all(isinstance(g, str) for g in expected)
    ):
        raise SchemaError(f"{name}: expected_generators must be a list of strings")
    report = run_pipeline(instance)
    entry = {
        "name": doc.get("name", name),
        "mode": instance.mode,
        "generators": report["generators"],
        "oracle_checked": report["oracle_checked"],
    }
    if expected is None:
        entry["status"] = "PASS"
        return entry
    want = ideal_slice(
        gens_from_strings(instance.mp.dim, instance.degree, expected),
        instance.degree,
    )
    got_gens = gens_from_strings(instance.mp.dim, instance.degree, report["generators"])
    ok = ideal_slice(got_gens, instance.degree) == want
    if not ok:
        entry["status"] = "FAIL"
        entry["expected"] = expected
    elif "discrepancy" in doc:
        entry["status"] = "DISCREPANCY"
        entry["explanation"] = doc["discrepancy"]
    else:
        entry["status"] = "PASS"
    return entry


def _verify_builtin_chain() -> dict:
    chain = recurrence_chain(6)
    ok = True
    for i, sets in enumerate(chain):
        expected = {Matrix.zeros(2), Matrix.identity(2)} | {
            Matrix([[0, 2 ** j], [0, 0]]) for j in range(i + 1)
        }
        ok = ok and set(sets) == expected
    ok = ok and all(set(chain[i]) < set(chain[i + 1]) for i in range(6))
    return {
        "name": "chain-recurrence-regression",
        "status": "PASS" if ok else "FAIL",
        "detail": "finite set chain grows strictly at every step, matching the "
        "displayed sets; no finite saturation computes the closure",
    }


def _verify_builtin_blocks() -> dict:
    from .reduction import blockify_regular, extract_block_closure

    phi1 = MorphismPair(
        ("a", "b"), 2,
        {"a": Matrix([[2, 0], [0, 4]]), "b": Matrix([[1, 0], [1, 1]])},
        {"a": 1, "b": -1},
    )
    phi2 = MorphismPair(
        ("a", "b"), 3,
        {"a": Matrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]]),
         "b": Matrix([[1, -1, 0], [0, 1, 1], [0, 0, 1]])},
        {"a": 1, "b": -1},
    )
    label_dfa = Nfa(
        ("s", "t"), ("a", "b"), frozenset({"s"}), frozenset({"t"}),
        frozenset({("s", "a", "s"), ("s", "b", "t"), ("t", "b", "s")}),
    )
    bm1 = blockify_regular(phi1, label_dfa)
    bm2 = blockify_regular(phi2, label_dfa)
    ok = bm1.dim == 6 and bm2.dim == 8
    lifted = regular_closure(
        Nfa.universal(("a", "b")), bm1.morphism_pair, 2, DEFAULT_CAPS._replace(budget=10 ** 6)
    )
    ext = extract_block_closure(lifted, bm1, 2)
    want = ideal_slice(gens_from_strings(2, 2, ["x12", "x11^2 - x22"]), 2)
    ok = ok and ext == want
    return {
        "name": "block-reduction-dimensions",
        "status": "PASS" if ok else "FAIL",
        "detail": "lifted dimensions 6 and 8; extraction of the lifted closure "
        "reproduces the reference ideal",
    }


def verify_corpus(corpus_dir=None) -> list[dict]:
    entries = []
    for name, entry in _iter_corpus_files(corpus_dir):
        try:
            entries.append(_verify_entry(name, entry))
        except ZClosureError as exc:
            entries.append({"name": name, "status": "FAIL", "error": str(exc)})
    if corpus_dir is None:
        entries.append(_verify_builtin_chain())
        entries.append(_verify_builtin_blocks())
    return entries


# ---------------------------------------------------------------------------
# Handlers


def _cmd_verify(args) -> int:
    entries = verify_corpus(args.corpus_dir)
    failed = False
    for entry in entries:
        status = entry["status"]
        failed = failed or status == "FAIL"
        line = f"{status:12s} {entry['name']}"
        if status == "DISCREPANCY":
            line += f"  ({entry['explanation']})"
        if "error" in entry:
            line += f"  [{entry['error']}]"
        print(line)
    if args.json:
        json.dump(entries, sys.stdout, indent=2)
        print()
    return 1 if failed else 0


def _split_word(text: str) -> tuple[str, ...]:
    if "," in text:
        return tuple(x for x in text.split(",") if x)
    return tuple(text)


def _cmd_tree(args) -> int:
    from .facttree import build_tree

    instance = load_instance(args.file)
    try:
        word = instance.mp.check_word(_split_word(args.word))
    except PreconditionError as exc:
        raise PreconditionError(f"{args.file}: --word {args.word!r}: {exc}") from exc
    tree = build_tree([instance.mp.phi[a] for a in word])
    if args.json:
        json.dump(tree.to_json(), sys.stdout, indent=2)
        print()
    else:
        print(tree.render_text())
        print(f"height {tree.height} (bound {instance.mp.dim * (instance.mp.dim + 3)})")
    return 0


def _cmd_automaton(args) -> int:
    instance = load_instance(args.file)
    build = {
        "cover": build_cover_automaton,
        "reach": build_reach_automaton,
        "zero": build_zero_automaton,
        "bz": build_bz_automaton,
    }[args.which]
    nfa = build(instance.mp, instance.caps.states)
    json.dump(nfa.to_json(), sys.stdout, indent=2)
    print()
    return 0


def _cmd_oracle(args) -> int:
    if args.max_len < 0:
        raise SchemaError(f"{args.file}: --max-len must be >= 0, got {args.max_len}")
    instance = load_instance(args.file)
    mp, nfa = _language(instance)
    predicate = instance.mode.removeprefix("vass-")
    if instance.mode == "regular":  # every word of the NFA, read deterministically
        predicate, nfa = "all", determinize(nfa, instance.caps.states)
    result = oracle_closure(mp, predicate, instance.degree, args.max_len, instance.caps, nfa)
    json.dump(
        {
            "mode": instance.mode,
            "degree": instance.degree,
            "max_len": result.max_len,
            "stabilized": result.stabilized,
            "words_used": result.words_used,
            "generators": list(space_to_generators(result.space).generators),
        },
        sys.stdout,
        indent=2,
    )
    print()
    return 0


COMMANDS = {
    "verify-corpus": _cmd_verify,
    "tree": _cmd_tree,
    "automaton": _cmd_automaton,
    "oracle": _cmd_oracle,
}
