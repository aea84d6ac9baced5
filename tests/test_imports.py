"""The package's import graph, each check in a fresh interpreter: every
module imports on its own; a cover, reach, zero or regular run loads neither
the other commands, the counter constructions, the rank algebra, the block
reduction nor the factorization trees and the exterior algebra, and a 1-VASS
run loads the block reduction only; only an eta-overridden run loads
saturation and the oracle; each other command loads the commands module and
what it runs (`closure oracle` the oracle but not saturation, `closure
automaton` the constructions, `closure tree` the factorization trees); no
run loads `dataclasses` or the corpus's file access; and the package's names
(pinned by name) are the defining modules' objects."""
import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
CORPUS = SRC / "zclosure" / "corpus"
MODULES = sorted(p.stem for p in (SRC / "zclosure").glob("*.py") if p.stem != "__init__")
DEFERRED = (
    "zclosure.commands", "zclosure.constructions", "zclosure.exterior", "zclosure.facttree",
    "zclosure.ideals", "zclosure.reduction", "zclosure.stable", "zclosure.words",
)
# what only an eta-overridden pipeline runs
SATURATION_AND_ORACLE = ("zclosure.oracle", "zclosure.saturation")
# what the records and the corpus listing would load; a run needs none of it
NOT_ON_THE_RUN_PATH = ("dataclasses", "inspect", "importlib.resources", "pathlib")


def _fresh(code: str, *flags: str):
    """The JSON document that `code`, run in a new interpreter (with the
    interpreter `flags`) importing this checkout's package, prints as its
    last line of standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_on_its_own(module):
    assert _fresh(f"import json, zclosure.{module}; print(json.dumps(True))")


def _loaded_after(argv: list[str], watched=DEFERRED, *flags: str) -> dict:
    """[exit code, the `watched` modules loaded] of `cli.main(argv)`."""
    return _fresh(
        "import contextlib, io, json, sys\n"
        "from zclosure import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        f"print(json.dumps([code, [m for m in {tuple(watched)!r} if m in sys.modules]]))",
        *flags,
    )


def _instance(tmp_path, name: str) -> pathlib.Path:
    """The corpus entry `name`, or for "regular" an inline regular instance
    written to `tmp_path`."""
    if name != "regular":
        return CORPUS / name
    path = tmp_path / "regular.json"
    path.write_text(json.dumps({
        "dimension": 1, "alphabet": ["a", "b"], "phi": {"a": [["2"]], "b": [["1/2"]]},
        "omega": {"a": 1, "b": -1}, "mode": "regular", "degree": 2,
        "nfa": {"states": ["p", "q"], "initial": ["p"], "accepting": ["q"],
                "transitions": [["p", "a", "q"], ["q", "b", "p"]]},
    }))
    return path


@pytest.mark.parametrize(
    "name", ["cover_powers_d1.json", "zero_balanced_d1.json", "dyck_reach.json", "regular"]
)
def test_run_loads_no_deferred_module(tmp_path, name):
    assert _loaded_after(["run", str(_instance(tmp_path, name))]) == [0, []]


def test_vass_run_loads_the_block_reduction_only():
    path = CORPUS / "anbndyck_reach.json"
    assert _loaded_after(["run", str(path)]) == [0, ["zclosure.reduction"]]


@pytest.mark.parametrize("name, overridden", [
    ("cover_powers_d1.json", False), ("zero_balanced_d1.json", False), ("regular", False),
    ("dyck_reach.json", True), ("anbndyck_reach.json", True),
])
def test_only_an_eta_overridden_run_loads_saturation_and_the_oracle(tmp_path, name, overridden):
    path = _instance(tmp_path, name)
    loaded = list(SATURATION_AND_ORACLE) if overridden else []
    assert _loaded_after(["run", str(path)], SATURATION_AND_ORACLE) == [0, loaded]


@pytest.mark.parametrize(
    "name", ["cover_powers_d1.json", "zero_balanced_d1.json", "anbndyck_reach.json", "regular"]
)
def test_run_loads_neither_dataclasses_nor_the_corpus_file_access(tmp_path, name):
    # -S: no site hook may load these modules before the package does
    path = _instance(tmp_path, name)
    assert _loaded_after(["run", str(path)], NOT_ON_THE_RUN_PATH, "-S") == [0, []]


def test_no_module_imports_dataclasses():
    importers = []
    for path in sorted((SRC / "zclosure").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else \
                [node.module] if isinstance(node, ast.ImportFrom) else []
            if "dataclasses" in names:
                importers.append(path.name)
    assert importers == []


def test_tree_loads_the_factorization_trees():
    code, loaded = _loaded_after(["tree", str(CORPUS / "cover_powers_d1.json"), "--word", "ab"])
    assert code == 0 and {"zclosure.commands", "zclosure.facttree"} <= set(loaded)


@pytest.mark.parametrize("name", ["dyck_reach.json", "regular"])
def test_oracle_loads_the_oracle_but_not_saturation(tmp_path, name):
    argv = ["oracle", str(_instance(tmp_path, name)), "--max-len", "4"]
    code, loaded = _loaded_after(argv, DEFERRED + SATURATION_AND_ORACLE)
    assert code == 0 and {"zclosure.commands", "zclosure.oracle"} <= set(loaded)
    assert "zclosure.saturation" not in loaded


def test_automaton_loads_the_constructions():
    path = CORPUS / "dyck_reach.json"
    code, loaded = _loaded_after(["automaton", str(path), "--which", "reach"])
    assert code == 0 and {"zclosure.commands", "zclosure.constructions"} <= set(loaded)


# the engine's letter maps and worklist: the oracle is the check on the
# engine, so it evaluates its words directly and names none of them
ENGINE_ONLY = (
    "letter_map", "apply_map", "_integer_maps", "_fixpoint", "_stage", "_moves",
    "substitution_rows", "_tensor_apply",
)


def test_the_oracle_names_none_of_the_engines_letter_map_machinery():
    named = set()
    for node in ast.walk(ast.parse((SRC / "zclosure" / "oracle.py").read_text())):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.update((node.name.rpartition(".")[2], node.asname))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.add(node.value)  # getattr(module, "name")
    assert sorted(named & set(ENGINE_ONLY)) == []


# zclosure.__all__, sorted: an API change shows here by name
PACKAGE_NAMES = [
    "BlockMorphism", "Caps", "DEFAULT_CAPS", "DimensionError", "ExtVector", "FactTree",
    "IdealGens", "InfeasibleError", "InternalInvariantError", "Matrix", "MorphismPair", "Nfa",
    "OracleDisagreementError", "OracleResult", "PipelineResult", "PolySpace",
    "PreconditionError", "SchemaError", "Subspace", "Vass", "WordClass", "ZClosureError",
    "automata", "blockify_regular", "build_bz_automaton", "build_cover_automaton",
    "build_rank_tree", "build_reach_automaton", "build_tree", "build_zero_automaton",
    "classify_word", "closure", "construct_zero_witness", "constructions", "counter_saturation",
    "default_eta", "determinize", "errors", "exactlin", "exterior", "extract_block_closure",
    "extract_stable_factor", "facttree", "finite_vanishing_space", "flatten", "greedy_basis",
    "ideal_slice", "ideals", "iota", "is_stable", "lang", "oracle", "oracle_closure", "pipeline", "polys",
    "rank", "rank_decomp", "reduction", "regular_closure", "saturation", "space_to_generators",
    "stable", "stable_identity", "trivially_intersects", "validate_tree", "vass_to_constrained",
    "wedge", "words",
]


def test_package_names_are_the_defining_modules_objects():
    # in a fresh interpreter, so the deferred names are first resolved here
    wrong = _fresh(
        "import importlib, json, types, zclosure\n"
        "wrong = []\n"
        "for name in zclosure.__all__:\n"
        "    value = getattr(zclosure, name)\n"
        "    if isinstance(value, types.ModuleType):\n"
        "        ok = value is importlib.import_module('zclosure.' + name)\n"
        "    else:\n"
        "        ok = getattr(importlib.import_module(value.__module__), name) is value\n"
        "    if not ok:\n"
        "        wrong.append(name)\n"
        "print(json.dumps([zclosure.__all__, wrong]))"
    )
    assert wrong == [PACKAGE_NAMES, []]
