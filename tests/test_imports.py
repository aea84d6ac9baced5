"""The package's import graph, each check in a fresh interpreter: every
module imports on its own, a pipeline run loads neither the block reduction
nor the factorization trees and the exterior algebra, and the package's
names are the defining modules' objects."""
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
CORPUS = SRC / "zclosure" / "corpus"
MODULES = sorted(p.stem for p in (SRC / "zclosure").glob("*.py") if p.stem != "__init__")
DEFERRED = ("zclosure.exterior", "zclosure.facttree", "zclosure.reduction")


def _fresh(code: str):
    """The JSON document that `code`, run in a new interpreter importing this
    checkout's package, prints as its last line of standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_on_its_own(module):
    assert _fresh(f"import json, zclosure.{module}; print(json.dumps(True))")


def _loaded_after(argv: list[str]) -> dict:
    return _fresh(
        "import contextlib, io, json, sys\n"
        "from zclosure import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        f"print(json.dumps([code, [m for m in {DEFERRED!r} if m in sys.modules]]))"
    )


@pytest.mark.parametrize("name", ["cover_powers_d1.json", "zero_balanced_d1.json"])
def test_run_loads_no_deferred_module(name):
    assert _loaded_after(["run", str(CORPUS / name)]) == [0, []]


def test_tree_loads_the_factorization_trees():
    code, loaded = _loaded_after(["tree", str(CORPUS / "cover_powers_d1.json"), "--word", "ab"])
    assert code == 0 and "zclosure.facttree" in loaded


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
        "print(json.dumps([len(zclosure.__all__), wrong]))"
    )
    assert wrong == [64, []]
