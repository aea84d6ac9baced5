"""Command-line frontend.

Subcommands:

    closure run <file>            run the instance's pipeline, JSON report
    closure verify-corpus         run the bundled worked-example corpus
    closure tree <file> --word    factorization-tree demo over a word
    closure automaton <file>      dump one of the counter constructions
    closure oracle <file>         brute-force enumeration oracle

Instances are JSON; matrices are row-major arrays of "p/q" strings so no
value ever passes through floating point.  The records an instance builds
(`MorphismPair`, `Nfa`, `Vass`) check what it means, and `Instance` only what
its JSON looks like.  Errors leave as structured JSON on stderr with distinct
exit codes: 2 schema (the message starts with the instance file's path),
3 infeasible, 4 oracle disagreement, 5 internal invariant violation.

This module reads instances and runs `closure run`; the other commands'
handlers and the corpus are in `commands`, which `main` imports only for
them.  So `closure run` loads neither the counter constructions, the
factorization trees and the exterior algebra (`constructions`, `facttree`
and `exterior`), nor the corpus's file access (`importlib.resources` and
`pathlib`).  It loads saturation and the oracle (`saturation` and
`oracle`) only when eta is overridden, and the block reduction
(`reduction`) only for a 1-VASS instance.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from functools import cache

from .automata import Nfa
from .closure import DEFAULT_CAPS, MODES, Caps, pipeline
from .errors import SchemaError, ZClosureError
from .exactlin import Matrix
from .lang import MorphismPair
from .polys import space_to_generators

_CAP_ENV = {name: f"CLOSURE_CAP_{name.upper()}" for name in Caps._fields}


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


def _check_object(doc, what: str, keys=()) -> None:
    """`doc` must be a JSON object with every one of `keys`."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} must be a JSON object")
    for key in keys:
        if key not in doc:
            raise SchemaError(f"{what} lacks {key!r}")


_AUTOMATON_KEYS = ("states", "initial", "accepting", "transitions")


def _check_states(states, where: str) -> list:
    """A JSON list of automaton states; each must be hashable (not an array
    or an object)."""
    if not isinstance(states, list):
        raise SchemaError(f"{where} must be a list")
    for q in states:
        if isinstance(q, (list, dict)):
            raise SchemaError(f"{where}: state {q!r} must be a string or a number")
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
    """An instance file's records, `mp` and the `nfa` or `vass` its mode
    needs (else None), with its `mode`, `degree` and `caps`.  The records
    check what the instance means; `Instance` checks only what its JSON looks
    like (JSON types, where an int is never a bool; hashable states; d x d
    arrays of rationals; the ranges of dimension, degree and eta_override;
    the mode and its block) and what no record sees (VASS letters in the
    alphabet, the caps).  Every error leaves as a `SchemaError` whose message
    starts with `path`."""

    def __init__(self, doc: dict, path: str = "<instance>"):
        try:
            self._read(doc)
        except ZClosureError as exc:
            raise SchemaError(f"{path}: {exc}") from exc

    def _read(self, doc) -> None:
        if isinstance(doc, dict) and "instance" in doc:  # corpus wrapper
            doc = doc["instance"]
        _check_object(doc, "instance", ("dimension", "alphabet", "phi", "omega", "mode", "degree"))
        dim = doc["dimension"]
        if not _is_int(dim) or dim < 1:
            raise SchemaError("dimension must be a positive integer")
        alphabet = doc["alphabet"]
        if not isinstance(alphabet, list) or not all(isinstance(a, str) for a in alphabet):
            raise SchemaError("alphabet must be a list of strings")
        self.mode = doc["mode"]
        if self.mode not in MODES:
            raise SchemaError(f"mode must be one of {MODES}")
        self.degree = doc["degree"]
        if not _is_int(self.degree) or self.degree < 1:
            raise SchemaError("degree must be a positive integer")
        for key in ("phi", "omega"):
            if not isinstance(doc[key], dict):
                raise SchemaError(f"{key} must be an object keyed by letter")
        for a, w in doc["omega"].items():
            if not _is_int(w):
                raise SchemaError(f"omega[{a!r}] = {w!r} must be an integer")
        eta = doc.get("eta_override", 0)
        if not _is_int(eta) or eta < 0:
            raise SchemaError(
                "eta_override must be a positive integer (0 or absent: the default threshold)"
            )
        phi = {a: _parse_matrix(rows, dim, f"phi[{a!r}]") for a, rows in doc["phi"].items()}
        self.mp = MorphismPair(tuple(alphabet), dim, phi, doc["omega"], eta)
        self.nfa = self.vass = None
        if self.mode == "regular":
            if "nfa" not in doc:
                raise SchemaError("mode 'regular' needs an 'nfa' field")
            self.nfa = _parse_nfa(doc["nfa"], self.mp.alphabet)
        if self.mode.startswith("vass-"):
            if "vass" not in doc:
                raise SchemaError(f"mode {self.mode!r} needs a 'vass' field")
            self.vass = _parse_vass(doc["vass"], self.mp.alphabet)
        self.caps = _parse_caps(doc.get("caps", {}))


def _parse_nfa(doc, alphabet: tuple) -> Nfa:
    _check_object(doc, "nfa", _AUTOMATON_KEYS)
    transitions = doc["transitions"]
    if not isinstance(transitions, list) or not all(
        isinstance(t, list) and len(t) == 3 for t in transitions
    ):
        raise SchemaError("nfa transitions are [from, letter, to]")
    for src, letter, dst in transitions:
        _check_states([src, dst], "nfa transition")
        if not isinstance(letter, str):
            raise SchemaError(f"nfa transition letter {letter!r} is not a string")
    return Nfa(
        states=tuple(_check_states(doc["states"], "nfa states")),
        alphabet=alphabet,
        initial=frozenset(_check_states(doc["initial"], "nfa initial")),
        accepting=frozenset(_check_states(doc["accepting"], "nfa accepting")),
        transitions=frozenset(tuple(t) for t in transitions),
    )


def _parse_vass(doc, alphabet: tuple) -> Vass:
    from .reduction import Vass

    _check_object(doc, "vass", _AUTOMATON_KEYS)
    if not isinstance(doc["transitions"], list):
        raise SchemaError("vass transitions must be a list")
    transitions = []
    for t in doc["transitions"]:
        if not (isinstance(t, list) and len(t) == 4):
            raise SchemaError("vass transitions are [from, letter, weight, to]")
        src, letter, weight, dst = t
        _check_states([src, dst], "vass transition")
        if letter not in alphabet:
            raise SchemaError(f"vass letter {letter!r} not in alphabet")
        if not _is_int(weight):
            raise SchemaError(
                f"vass transition weight {weight!r} must be an integer "
                "in {-1,0,1}; zero-test transitions are out of scope"
            )
        transitions.append(tuple(t))
    return Vass(
        states=tuple(_check_states(doc["states"], "vass states")),
        initial=_check_states([doc["initial"]], "vass initial")[0],
        accepting=tuple(_check_states(doc["accepting"], "vass accepting")),
        transitions=tuple(transitions),
    )


def _parse_caps(doc) -> Caps:
    _check_object(doc, "caps")
    bad = set(doc) - set(Caps._fields)
    if bad:
        raise SchemaError(f"unknown caps {sorted(bad)}")
    overrides = dict(doc)
    for key, env in _CAP_ENV.items():
        if env in os.environ:
            try:
                overrides[key] = int(os.environ[env])
            except ValueError:
                raise SchemaError(f"{env}={os.environ[env]!r} is not an integer") from None
    for key, value in overrides.items():
        if not _is_int(value) or value < 0:
            raise SchemaError(f"cap {key!r} = {value!r} must be a non-negative integer")
    return DEFAULT_CAPS._replace(**overrides)

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


def _language(instance: Instance) -> tuple:
    """The instance's language as `pipeline` takes it, for `closure run` and
    `closure oracle`: (morphism, automaton or None), a 1-VASS's through
    `vass_to_constrained`."""
    if instance.vass is not None:
        from .reduction import vass_to_constrained

        return vass_to_constrained(instance.vass, instance.mp)
    return instance.mp, instance.nfa


def run_pipeline(instance: Instance) -> dict:
    t0 = time.monotonic()
    mp, nfa = _language(instance)
    result = pipeline(mp, instance.mode, instance.degree, instance.caps, nfa)
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
# Entry point


def _emit_error(exc: ZClosureError) -> int:
    json.dump({"error": exc.kind, "message": str(exc)}, sys.stderr)
    sys.stderr.write("\n")
    return exc.exit_code


def _cmd_run(args) -> int:
    if args.eta_override < 0:
        raise SchemaError(f"{args.file}: --eta-override must be >= 1 (0 keeps the "
                          f"instance's eta), got {args.eta_override}")
    instance = load_instance(args.file)
    if args.eta_override:
        instance.mp = instance.mp.with_eta(args.eta_override)
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


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process (parsing leaves it
    as it was), so a process that calls `main` several times builds it
    once."""
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

    p = sub.add_parser("verify-corpus", help="run the bundled corpus")
    p.add_argument("--corpus-dir", default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("tree", help="factorization-tree demo over a word")
    p.add_argument("file")
    p.add_argument("--word", required=True,
                   help="letters, comma-separated for multi-char alphabets")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("automaton", help="dump a counter construction")
    p.add_argument("file")
    p.add_argument("--which", choices=("cover", "reach", "zero", "bz"),
                   required=True)

    p = sub.add_parser("oracle", help="brute-force enumeration oracle")
    p.add_argument("file")
    p.add_argument("--max-len", type=int, default=10)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        handler = _cmd_run
    else:  # the other commands' code is loaded only for them
        from .commands import COMMANDS

        handler = COMMANDS[args.command]
    try:
        return handler(args)
    except ZClosureError as exc:
        return _emit_error(exc)


if __name__ == "__main__":
    sys.exit(main())
