"""Golden snapshot of `closure verify-corpus --json`.

`golden/verify_corpus.json` is the command's whole standard output (one
status line per entry, then the JSON list of entries), recorded before the
saturation windows were warm-started.  Any change to an engine, a pipeline
or the rendering shows up here byte for byte.  To re-record after an
intended change of output:

    PYTHONPATH=src python -m zclosure.cli verify-corpus --json > tests/golden/verify_corpus.json
"""
import os
import pathlib

from zclosure.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "verify_corpus.json"


def test_verify_corpus_output_matches_golden(capsys, monkeypatch):
    for key in list(os.environ):
        if key.startswith("CLOSURE_CAP_"):
            monkeypatch.delenv(key)
    assert main(["verify-corpus", "--json"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()
