"""The benchmark's tracer still fits the program.

`perfbench/spans.py` lists its targets as (span name, module, attribute
path); a renamed or deleted one is silently left untraced there, so the
per-layer counts would drop without an error.  A target that breaks when
wrapped would crash the benchmark's worker, so one traced `closure run` per
engine path is compared with an untraced one.
"""
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"

# as the benchmark's worker does: install the tracer (when asked), validate
# each file with `cli.load_instance`, then run it with `cli.main`
_TRACED_RUN = """
import contextlib, io, json, sys
sys.path.insert(0, {perfbench!r})
tracer = None
if sys.argv[1] == "1":
    from spans import Tracer
    tracer = Tracer()
    tracer.install()
from zclosure import cli
runs = []
for path in sys.argv[2:]:
    cli.load_instance(path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["run", path])
    report = json.loads(out.getvalue())
    report.pop("timings")
    runs.append([code, report])
print(json.dumps([runs, tracer.report() if tracer else None]))
"""


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for name, module, path in spans.TARGETS:
        owner = importlib.import_module(module)
        for part in path.split("."):
            assert hasattr(owner, part), f"{name}: {module}.{path} does not resolve"
            owner = getattr(owner, part)
        assert callable(owner), name


def _run(trace: bool, paths) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    code = _TRACED_RUN.format(perfbench=str(ROOT / "perfbench"))
    proc = subprocess.run([sys.executable, "-c", code, str(int(trace)), *map(str, paths)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_a_traced_run_matches_an_untraced_one(tmp_path):
    regular = tmp_path / "regular.json"
    regular.write_text(json.dumps({
        "dimension": 1, "alphabet": ["a", "b"], "phi": {"a": [["2"]], "b": [["1/2"]]},
        "omega": {"a": 1, "b": -1}, "mode": "regular", "degree": 2,
        "nfa": {"states": ["p", "q"], "initial": ["p"], "accepting": ["q"],
                "transitions": [["p", "a", "q"], ["q", "b", "p"]]},
    }))
    paths = [ROOT / "src" / "zclosure" / "corpus" / "zero_balanced_d1.json", regular]
    runs, trace = _run(True, paths)
    assert [code for code, _ in runs] == [0, 0]
    assert trace["untraced"] == []
    assert trace["calls"]["cli.Instance"] == 4  # `load_instance` and `run`, per file
    assert runs == _run(False, paths)[0]
