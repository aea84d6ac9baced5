"""Every name the benchmark's tracer wraps still exists.

`perfbench/spans.py` lists its targets as (span name, module, attribute
path); a renamed or deleted one is silently left untraced there, so the
per-layer counts would drop without an error.
"""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
