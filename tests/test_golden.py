"""Golden snapshots of the command-line output.

`golden/verify_corpus.json` is the whole standard output of `closure
verify-corpus --json` (one status line per entry, then the JSON list of
entries), recorded before the saturation windows were warm-started.  Any
change to an engine, a pipeline or the rendering shows up here byte for byte.
To re-record after an intended change of output:

    PYTHONPATH=src python -m zclosure.cli verify-corpus --json > tests/golden/verify_corpus.json

`golden/cli_modes.json` pins the dispatch that the corpus run never reaches:
`closure oracle --max-len 10` on every corpus entry and on an inline regular
instance, `closure run --eta-override 2` on the cover and zero entries (the
overridden branches; the report without `timings`), `closure run` on the
inline regular instance, and the exit code and error JSON of `closure run` on
the reach and VASS entries with `eta_override` removed (the default-threshold
refusals).

`golden/automaton_tree.json` pins `closure automaton --which W` for each of
the four counter constructions and `closure tree --word a,a,b,a,b,b,a,a,a,b
--json` on every corpus entry.  Each `zero` dump (the product-alphabet
automaton, most of the output by size) is pinned by the SHA-256 of its
standard output; every other output is pinned in full.

To re-record both `cli_modes.json` and `automaton_tree.json` after an
intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib
import json
import os
import pathlib
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

from conftest import unipotent_morphism
from zclosure.cli import main
from zclosure.closure import pipeline
from zclosure.errors import InfeasibleError
from zclosure.reduction import Vass, vass_to_constrained

GOLDEN = pathlib.Path(__file__).parent / "golden" / "verify_corpus.json"
CLI_MODES = pathlib.Path(__file__).parent / "golden" / "cli_modes.json"
AUTOMATON_TREE = pathlib.Path(__file__).parent / "golden" / "automaton_tree.json"
CORPUS = pathlib.Path(__file__).parent.parent / "src" / "zclosure" / "corpus"

REGULAR = {
    "dimension": 2,
    "alphabet": ["a", "b"],
    "phi": {"a": [["1", "1/2"], ["0", "1"]], "b": [["2", "0"], ["0", "1"]]},
    "omega": {"a": 1, "b": -1},
    "mode": "regular",
    "degree": 2,
    "nfa": {
        "states": ["p", "q"],
        "initial": ["p"],
        "accepting": ["q"],
        "transitions": [["p", "a", "q"], ["q", "a", "q"], ["q", "b", "p"]],
    },
}


def _cli(*args) -> dict:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _without_timings(stdout: str) -> str:
    report = json.loads(stdout)
    report.pop("timings")
    return json.dumps(report, indent=2)


def cli_modes(tmp: pathlib.Path) -> dict:
    """Every recorded command, by a readable key, with its exit code and
    output."""
    regular = tmp / "regular.json"
    regular.write_text(json.dumps(REGULAR))
    out = {}
    for path in sorted(CORPUS.glob("*.json")) + [regular]:
        out[f"oracle {path.stem}"] = _cli("oracle", str(path), "--max-len", "10")
    for name in ("cover_powers_d1", "zero_balanced_d1"):
        run = _cli("run", str(CORPUS / f"{name}.json"), "--eta-override", "2")
        run["stdout"] = _without_timings(run["stdout"])
        out[f"run {name} --eta-override 2"] = run
    run = _cli("run", str(regular))
    run["stdout"] = _without_timings(run["stdout"])
    out["run regular"] = run
    for name in ("dyck_reach", "anbndyck_reach"):
        doc = json.loads((CORPUS / f"{name}.json").read_text())
        del doc["instance"]["eta_override"]
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(doc))
        out[f"run {name} without eta_override"] = _cli("run", str(path))
    return out


TREE_WORD = "a,a,b,a,b,b,a,a,a,b"


def automaton_tree() -> dict:
    """The automaton dumps and tree demos of every corpus entry, by a
    readable key; a `zero` dump's stdout is replaced by its SHA-256."""
    out = {}
    for path in sorted(CORPUS.glob("*.json")):
        for which in ("cover", "reach", "zero", "bz"):
            run = _cli("automaton", str(path), "--which", which)
            if which == "zero":
                stdout = run.pop("stdout")
                run["stdout_sha256"] = hashlib.sha256(stdout.encode()).hexdigest()
            out[f"automaton {which} {path.stem}"] = run
        out[f"tree {path.stem}"] = _cli("tree", str(path), "--word", TREE_WORD, "--json")
    return out


def _clear_cap_env(monkeypatch) -> None:
    for key in list(os.environ):
        if key.startswith("CLOSURE_CAP_"):
            monkeypatch.delenv(key)


def test_verify_corpus_output_matches_golden(capsys, monkeypatch):
    _clear_cap_env(monkeypatch)
    assert main(["verify-corpus", "--json"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()


def test_cli_modes_match_golden(tmp_path, monkeypatch):
    _clear_cap_env(monkeypatch)
    want = json.loads(CLI_MODES.read_text())
    got = cli_modes(tmp_path)
    assert list(got) == list(want)
    for key in want:
        assert got[key] == want[key], key


def test_library_vass_refusal_matches_the_cli_golden():
    # `anbndyck_reach` without eta_override, through `pipeline` directly
    vass = Vass(("s", "t"), "s", ("t",),
                (("s", "a", 1, "s"), ("s", "b", -1, "t"), ("t", "b", -1, "t")))
    mp, dfa = vass_to_constrained(vass, unipotent_morphism())
    with pytest.raises(InfeasibleError) as err:
        pipeline(mp, "vass-reach", 2, nfa=dfa)
    golden = json.loads(CLI_MODES.read_text())["run anbndyck_reach without eta_override"]
    assert str(err.value) == json.loads(golden["stderr"])["message"]


def test_automaton_and_tree_match_golden(monkeypatch):
    _clear_cap_env(monkeypatch)
    want = json.loads(AUTOMATON_TREE.read_text())
    got = automaton_tree()
    assert list(got) == list(want)
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    import tempfile

    if any(key.startswith("CLOSURE_CAP_") for key in os.environ):
        sys.exit("unset every CLOSURE_CAP_* variable before recording")
    with tempfile.TemporaryDirectory() as tmp:
        record = cli_modes(pathlib.Path(tmp))
    CLI_MODES.write_text(json.dumps(record, indent=2) + "\n")
    AUTOMATON_TREE.write_text(json.dumps(automaton_tree(), indent=2) + "\n")
