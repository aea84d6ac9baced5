"""Work counts of a traced pass repeat exactly, and conjugation keeps them.

    python3 -m pytest perfbench/test_counts.py

Each case runs traced worker passes; the whole file takes about a minute.
"""
from __future__ import annotations

import functools
import json
import tempfile
import time
from pathlib import Path

import pytest

import workloads
from run import END_TO_END, per_layer, run_pass, work_counts, write_instances


@functools.lru_cache(maxsize=None)
def traced_counts(workload: str, seed: int, repeat: int) -> str:
    docs = workloads.generate(workload, seed)
    with tempfile.TemporaryDirectory() as tmp:
        files = write_instances(docs, Path(tmp))
        result = run_pass(files, 1, Path(tmp) / "pass.json", time.monotonic() + 170)
    assert [r["exit_code"] for r in result["runs"]] == [0] * len(docs)
    assert result["trace"]["untraced"] == []
    return json.dumps(work_counts(result["trace"]), sort_keys=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_for_one_seed(workload):
    assert traced_counts(workload, 1, 0) == traced_counts(workload, 1, 1)


def test_counter_counts_equal_across_seeds():
    assert traced_counts("counter", 1, 0) == traced_counts("counter", 2, 0)


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    empty = {"calls": {}, "s": {}, "self_s": {}, "counts": {}, "last_window_s": 0.0,
             "untraced": []}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (k, unit)
        for k, (_, unit) in per_layer(empty, 1.0, dict.fromkeys(workloads.GROUPS, 0.0)).items()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
