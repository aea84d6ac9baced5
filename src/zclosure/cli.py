"""Command-line frontend.

Subcommands:

    closure run <file>            run the instance's pipeline, JSON report
    closure verify-corpus         run the bundled worked-example corpus
    closure tree <file> --word    factorization-tree demo over a word
    closure automaton <file>      dump one of the counter constructions
    closure oracle <file>         brute-force enumeration oracle

Instances are JSON; matrices are row-major arrays of "p/q" strings so no
value ever passes through floating point.  Errors leave as structured JSON on
stderr with distinct exit codes: 2 schema, 3 infeasible, 4 oracle
disagreement, 5 internal invariant violation.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields, replace
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .automata import (
    Nfa,
    build_bz_automaton,
    build_cover_automaton,
    build_reach_automaton,
    build_zero_automaton,
    determinize,
)
from .closure import (
    Caps,
    DEFAULT_CAPS,
    PipelineResult,
    oracle_closure,
    recurrence_chain,
    regular_closure,
    run_cover,
    run_reach,
    run_zero,
)
from .errors import SchemaError, ZClosureError
from .exactlin import Matrix
from .facttree import build_tree
from .lang import MorphismPair
from .polys import gens_from_strings, ideal_slice, space_to_generators
from .reduction import Vass, blockify_regular, extract_block_closure, run_vass, vass_to_constrained

_CAP_ENV = {f.name: f"CLOSURE_CAP_{f.name.upper()}" for f in fields(Caps)}


def _is_int(x) -> bool:
    """A JSON integer; `true`/`false` are not integers here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_rational(text) -> Fraction:
    if _is_int(text):
        return Fraction(text)
    if isinstance(text, str):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad rational {text!r}: {exc}") from exc
    raise SchemaError(f"rationals must be strings like \"-3/2\", got {text!r}")


def _check_object(doc, path: str, what: str, keys=(), missing: str = "{} lacks {!r}") -> None:
    """`doc` must be a JSON object with every one of `keys`; `missing`
    formats the error for an absent key from `what` and the key."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: {what} must be a JSON object")
    for key in keys:
        if key not in doc:
            raise SchemaError(f"{path}: " + missing.format(what, key))


_AUTOMATON_KEYS = ("states", "initial", "accepting", "transitions")


def _check_states(states, path: str, where: str) -> list:
    """A JSON list of automaton states; each must be hashable (not an array
    or an object)."""
    if not isinstance(states, list):
        raise SchemaError(f"{path}: {where} must be a list")
    for q in states:
        if isinstance(q, (list, dict)):
            raise SchemaError(
                f"{path}: {where}: state {q!r} must be a string or a number"
            )
    return states


def _parse_matrix(rows, dim: int, where: str) -> Matrix:
    if (
        not isinstance(rows, list)
        or len(rows) != dim
        or any(not isinstance(r, list) or len(r) != dim for r in rows)
    ):
        raise SchemaError(f"{where}: expected a {dim}x{dim} row-major array")
    return Matrix([[_parse_rational(x) for x in r] for r in rows])


class Instance:
    """Validated instance file."""

    def __init__(self, doc: dict, path: str = "<instance>"):
        if isinstance(doc, dict) and "instance" in doc:  # corpus wrapper
            doc = doc["instance"]
        _check_object(
            doc, path, "instance", ("dimension", "alphabet", "phi", "omega", "mode", "degree"),
            "missing required field {1!r}",
        )
        self.dimension = doc["dimension"]
        if not _is_int(self.dimension) or self.dimension < 1:
            raise SchemaError(f"{path}: dimension must be a positive integer")
        alphabet = doc["alphabet"]
        if not isinstance(alphabet, list) or not all(
            isinstance(a, str) and a for a in alphabet
        ):
            raise SchemaError(f"{path}: alphabet must be nonempty strings")
        self.alphabet = tuple(alphabet)
        self.mode = doc["mode"]
        if self.mode not in MODES:
            raise SchemaError(f"{path}: mode must be one of {MODES}")
        self.degree = doc["degree"]
        if not _is_int(self.degree) or self.degree < 1:
            raise SchemaError(f"{path}: degree must be a positive integer")
        for key in ("phi", "omega"):
            if not isinstance(doc[key], dict):
                raise SchemaError(f"{path}: {key} must be an object keyed by letter")
            for a in doc[key]:
                if a not in self.alphabet:
                    raise SchemaError(f"{path}: {key} letter {a!r} not in alphabet")
        phi = {}
        for a in self.alphabet:
            if a not in doc["phi"]:
                raise SchemaError(f"{path}: phi lacks letter {a!r}")
            phi[a] = _parse_matrix(doc["phi"][a], self.dimension, f"phi[{a!r}]")
        omega = {}
        for a in self.alphabet:
            if a not in doc["omega"]:
                raise SchemaError(f"{path}: omega lacks letter {a!r}")
            w = doc["omega"][a]
            if not _is_int(w) or w not in (-1, 0, 1):
                raise SchemaError(
                    f"{path}: omega[{a!r}] = {w!r}; only weights in {{-1,0,1}} are "
                    "supported (normalize general weights first, e.g. with "
                    "zclosure.lang.split_weights)"
                )
            omega[a] = w
        self.eta_override = doc.get("eta_override", 0)
        if not _is_int(self.eta_override) or self.eta_override < 0:
            raise SchemaError(
                f"{path}: eta_override must be a positive integer (0 or absent: "
                "the default threshold)"
            )
        self.mp = MorphismPair(
            self.alphabet, self.dimension, phi, omega, self.eta_override
        )
        self.nfa = None
        if self.mode == "regular":
            if "nfa" not in doc:
                raise SchemaError(f"{path}: mode 'regular' needs an 'nfa' field")
            self.nfa = self._parse_nfa(doc["nfa"], path)
        self.vass = None
        if self.mode.startswith("vass-"):
            if "vass" not in doc:
                raise SchemaError(f"{path}: mode {self.mode!r} needs a 'vass' field")
            self.vass = self._parse_vass(doc["vass"], path)
        self.caps = self._parse_caps(doc.get("caps", {}), path)
        self.doc = doc

    def _parse_nfa(self, doc, path) -> Nfa:
        _check_object(doc, path, "nfa", _AUTOMATON_KEYS)
        transitions = doc["transitions"]
        if not isinstance(transitions, list) or not all(
            isinstance(t, list) and len(t) == 3 for t in transitions
        ):
            raise SchemaError(f"{path}: nfa transitions are [from, letter, to]")
        for src, letter, dst in transitions:
            _check_states([src, dst], path, "nfa transition")
            if not isinstance(letter, str):
                raise SchemaError(
                    f"{path}: nfa transition letter {letter!r} is not a string"
                )
        try:
            return Nfa(
                states=tuple(_check_states(doc["states"], path, "nfa states")),
                alphabet=self.alphabet,
                initial=frozenset(_check_states(doc["initial"], path, "nfa initial")),
                accepting=frozenset(
                    _check_states(doc["accepting"], path, "nfa accepting")
                ),
                transitions=frozenset(tuple(t) for t in transitions),
            )
        except ZClosureError as exc:
            raise SchemaError(f"{path}: bad nfa: {exc}") from exc

    def _parse_vass(self, doc, path) -> Vass:
        _check_object(doc, path, "vass", _AUTOMATON_KEYS)
        if not isinstance(doc["transitions"], list):
            raise SchemaError(f"{path}: vass transitions must be a list")
        transitions = []
        for t in doc["transitions"]:
            if not (isinstance(t, list) and len(t) == 4):
                raise SchemaError(
                    f"{path}: vass transitions are [from, letter, weight, to]"
                )
            src, letter, weight, dst = t
            _check_states([src, dst], path, "vass transition")
            if not isinstance(letter, str) or letter not in self.mp.phi:
                raise SchemaError(f"{path}: vass letter {letter!r} not in alphabet")
            if not _is_int(weight):
                raise SchemaError(
                    f"{path}: vass transition weight {weight!r} must be an integer "
                    "in {-1,0,1}; zero-test transitions are out of scope"
                )
            transitions.append((src, letter, weight, dst))
        return Vass(
            states=tuple(_check_states(doc["states"], path, "vass states")),
            initial=_check_states([doc["initial"]], path, "vass initial")[0],
            accepting=tuple(_check_states(doc["accepting"], path, "vass accepting")),
            transitions=tuple(transitions),
        )

    def _parse_caps(self, doc, path) -> Caps:
        _check_object(doc, path, "caps")
        bad = set(doc) - {f.name for f in fields(Caps)}
        if bad:
            raise SchemaError(f"{path}: unknown caps {sorted(bad)}")
        overrides = dict(doc)
        for key, env in _CAP_ENV.items():
            if env in os.environ:
                try:
                    overrides[key] = int(os.environ[env])
                except ValueError:
                    raise SchemaError(
                        f"{env}={os.environ[env]!r} is not an integer"
                    ) from None
        for key, value in overrides.items():
            if not _is_int(value) or value < 0:
                raise SchemaError(
                    f"{path}: cap {key!r} = {value!r} must be a non-negative integer"
                )
        return replace(DEFAULT_CAPS, **overrides)

def _read_json(source, name: str):
    """The JSON document in `source`, a file path or a corpus entry; one that
    cannot be read or parsed is a schema error naming `name`."""
    try:
        with open(source, "rb") if isinstance(source, str) else source.open("rb") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not decodable
        raise SchemaError(f"{name}: {exc}") from exc


def load_instance(path: str) -> Instance:
    return Instance(_read_json(path, path), path)


# mode -> the pipeline that runs an instance of it
_RUNNERS = {
    "cover": lambda i: run_cover(i.mp, i.degree, i.caps),
    "reach": lambda i: run_reach(i.mp, i.degree, i.caps),
    "zero": lambda i: run_zero(i.mp, i.degree, i.caps),
    "regular": lambda i: PipelineResult(
        regular_closure(i.nfa, i.mp, i.degree, i.caps), "regular", i.mp.eta, "fixpoint"
    ),
    "vass-cover": lambda i: run_vass(i.vass, i.mp, "cover", i.degree, i.caps),
    "vass-reach": lambda i: run_vass(i.vass, i.mp, "reach", i.degree, i.caps),
}
MODES = tuple(_RUNNERS)


def _language(instance: Instance) -> tuple:
    """The instance's language as `oracle_closure` takes it: (morphism,
    predicate name, DFA or None), a 1-VASS's through `vass_to_constrained`
    and a regular NFA's as "all" under `determinize`, capped by caps.states."""
    if instance.vass is not None:
        mp, dfa = vass_to_constrained(instance.vass, instance.mp)
        return mp, instance.mode.removeprefix("vass-"), dfa
    if instance.nfa is not None:
        return instance.mp, "all", determinize(instance.nfa, instance.caps.states)
    return instance.mp, instance.mode, None


def run_pipeline(instance: Instance) -> dict:
    t0 = time.monotonic()
    result = _RUNNERS[instance.mode](instance)
    gens = space_to_generators(result.space)
    return {
        "mode": result.mode,
        "degree": instance.degree,
        "eta_used": result.eta_used,
        "method": result.method,
        "generators": list(gens.generators),
        "vanishing_dimension": result.space.space_dim,
        "oracle_checked": result.oracle_checked,
        "oracle_max_len": result.oracle_max_len,
        "oracle_stabilized": result.oracle_stabilized,
        "counter_bound": result.counter_bound,
        "timings": {"total_s": round(time.monotonic() - t0, 3)},
    }


# ---------------------------------------------------------------------------
# Corpus


def _iter_corpus_files(corpus_dir=None):
    """(file name, file) of each `.json` file of the corpus directory, the
    bundled one by default, in name order; a missing directory has none."""
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
        gens_from_strings(instance.dimension, instance.degree, expected),
        instance.degree,
    )
    got_gens = gens_from_strings(
        instance.dimension, instance.degree, report["generators"]
    )
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
        Nfa.universal(("a", "b")), bm1.morphism_pair, 2, replace(DEFAULT_CAPS, budget=10 ** 6)
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


def verify_corpus(corpus_dir=None, include_builtin: bool = True) -> list[dict]:
    entries = []
    for name, entry in _iter_corpus_files(corpus_dir):
        try:
            entries.append(_verify_entry(name, entry))
        except ZClosureError as exc:
            entries.append({"name": name, "status": "FAIL", "error": str(exc)})
    if include_builtin and corpus_dir is None:
        entries.append(_verify_builtin_chain())
        entries.append(_verify_builtin_blocks())
    return entries


# ---------------------------------------------------------------------------
# Entry point


def _emit_error(exc: ZClosureError) -> int:
    json.dump({"error": exc.kind, "message": str(exc)}, sys.stderr)
    sys.stderr.write("\n")
    return exc.exit_code


def _cmd_run(args) -> int:
    instance = load_instance(args.file)
    if args.eta_override:
        instance.mp = instance.mp.with_eta(args.eta_override)
        instance.eta_override = args.eta_override
    report = run_pipeline(instance)
    if args.text:
        print(f"mode {report['mode']}  degree {report['degree']}  "
              f"eta {report['eta_used']}  method {report['method']}")
        if report["oracle_checked"]:
            print(f"oracle checked to length {report['oracle_max_len']} "
                  f"(stabilized: {report['oracle_stabilized']})")
        for g in report["generators"]:
            print(" ", g)
        if not report["generators"]:
            print("  (zero space: no degree-bounded relations)")
    else:
        json.dump(report, sys.stdout, indent=2)
        print()
    return 0


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
    instance = load_instance(args.file)
    word = instance.mp.check_word(_split_word(args.word))
    tree = build_tree([instance.mp.phi[a] for a in word])
    if args.json:
        json.dump(tree.to_json(), sys.stdout, indent=2)
        print()
    else:
        print(tree.render_text())
        print(f"height {tree.height} (bound {instance.dimension * (instance.dimension + 3)})")
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
    instance = load_instance(args.file)
    mp, predicate, dfa = _language(instance)
    result = oracle_closure(
        mp, predicate, instance.degree, args.max_len, instance.caps, dfa
    )
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="closure",
        description="degree-bounded vanishing ideals of matrix images of "
        "one-counter languages",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run an instance's pipeline")
    p.add_argument("file")
    p.add_argument("--eta-override", type=int, default=0)
    p.add_argument("--text", action="store_true", help="human-oriented output")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("verify-corpus", help="run the bundled corpus")
    p.add_argument("--corpus-dir", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("tree", help="factorization-tree demo over a word")
    p.add_argument("file")
    p.add_argument("--word", required=True,
                   help="letters, comma-separated for multi-char alphabets")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("automaton", help="dump a counter construction")
    p.add_argument("file")
    p.add_argument("--which", choices=("cover", "reach", "zero", "bz"),
                   required=True)
    p.set_defaults(func=_cmd_automaton)

    p = sub.add_parser("oracle", help="brute-force enumeration oracle")
    p.add_argument("file")
    p.add_argument("--max-len", type=int, default=10)
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ZClosureError as exc:
        return _emit_error(exc)


if __name__ == "__main__":
    sys.exit(main())
