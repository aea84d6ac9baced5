import copy
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zclosure.cli import Instance, load_instance, main, run_pipeline
from zclosure.closure import Caps
from zclosure.commands import verify_corpus
from zclosure.constructions import determinize
from zclosure.errors import SchemaError
from zclosure.oracle import finite_vanishing_space
from zclosure.polys import space_to_generators

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
CORPUS = os.path.join(SRC, "zclosure", "corpus")


def _run_cli(*args, env_extra=None):
    # the child imports this checkout's package, whatever else is installed
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "zclosure.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def _corpus_path(name):
    return os.path.join(CORPUS, name)


def test_run_reports_expected_fields():
    proc = _run_cli("run", _corpus_path("simple_reach.json"))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    for key in ("mode", "degree", "eta_used", "generators", "oracle_checked",
                "oracle_max_len", "timings"):
        assert key in report
    assert report["generators"] == ["x11 - 1"]
    assert report["oracle_checked"] is True


def test_run_is_byte_deterministic_modulo_timings():
    out = []
    for _ in range(2):
        proc = _run_cli("run", _corpus_path("dyck_reach.json"))
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        report.pop("timings")
        out.append(json.dumps(report, sort_keys=True))
    assert out[0] == out[1]


@pytest.mark.parametrize("name, extra, generators", [
    ("dyck_reach.json", (), 1),
    ("cover_powers_d1.json", ("--eta-override", "2"), 0),
])
def test_run_text_matches_the_json_report(name, extra, generators):
    args = ("run", _corpus_path(name), *extra)
    proc = _run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    proc = _run_cli(*args, "--text")
    assert proc.returncode == 0, proc.stderr
    head, oracle, *rest = proc.stdout.splitlines()
    m = re.fullmatch(r"mode (\S+)  degree (\d+)  eta (\d+)  method (\S+)", head)
    assert m and m.groups() == (report["mode"], str(report["degree"]),
                                str(report["eta_used"]), report["method"])
    m = re.fullmatch(r"oracle checked to length (\d+) \(stabilized: (True|False)\)", oracle)
    assert report["oracle_checked"] and m
    assert m.groups() == (str(report["oracle_max_len"]), str(report["oracle_stabilized"]))
    assert len(report["generators"]) == generators
    if generators:
        assert rest == [f"  {g}" for g in report["generators"]]
    else:
        assert rest == ["  (zero space: no degree-bounded relations)"]


def _to_doc(inst, source):
    """The instance as a JSON document that `load_instance` reads back; the
    automaton and caps blocks are copied from `source`, the document it was
    read from."""
    mp = inst.mp
    out = {
        "dimension": mp.dim,
        "alphabet": list(mp.alphabet),
        "phi": {
            a: [[str(x) for x in row] for row in mp.phi[a].entries]
            for a in mp.alphabet
        },
        "omega": {a: mp.omega[a] for a in mp.alphabet},
        "mode": inst.mode,
        "degree": inst.degree,
    }
    if not mp.eta_is_default:
        out["eta_override"] = mp.eta
    if inst.nfa is not None:
        out["nfa"] = source["nfa"]
    if inst.vass is not None:
        out["vass"] = source["vass"]
    if "caps" in source:
        out["caps"] = source["caps"]
    return out


def test_instance_round_trip(tmp_path):
    inst = load_instance(_corpus_path("anbndyck_reach.json"))
    doc = _to_doc(inst, _vass_doc())
    path = tmp_path / "roundtrip.json"
    path.write_text(json.dumps(doc))
    again = load_instance(str(path))
    assert again.mp == inst.mp
    assert again.mode == inst.mode
    assert again.degree == inst.degree
    assert _to_doc(again, doc) == doc


def test_schema_rejection_cites_normalization(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "dimension": 1, "alphabet": ["a"], "phi": {"a": [["2"]]},
        "omega": {"a": 2}, "mode": "cover", "degree": 1,
    }))
    proc = _run_cli("run", str(path))
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"] == "schema"
    assert "normalize" in err["message"]


def test_reach_default_eta_exits_infeasible(tmp_path):
    path = tmp_path / "reach_default.json"
    path.write_text(json.dumps({
        "dimension": 2, "alphabet": ["a", "b"],
        "phi": {"a": [["1", "1"], ["0", "1"]], "b": [["1", "0"], ["1", "1"]]},
        "omega": {"a": 1, "b": -1}, "mode": "reach", "degree": 2,
    }))
    proc = _run_cli("run", str(path))
    assert proc.returncode == 3
    err = json.loads(proc.stderr)
    assert err["error"] == "infeasible"
    assert "eta_override" in err["message"]


def test_a_large_dimension_is_refused_without_building_its_threshold_twice(tmp_path):
    # the default threshold 2^(d(d+3)) + 1 has 400,060,001 bits at d = 20,000;
    # raised as a power, once for the pair and once more for eta_is_default,
    # it took about 4.5 s and 244 MB before this refusal
    doc = {"dimension": 20000, "alphabet": [], "phi": {}, "omega": {}, "mode": "cover",
           "degree": 1}
    t0 = time.monotonic()
    proc = _run_doc(tmp_path, doc)
    elapsed = time.monotonic() - t0
    assert proc.returncode == 3
    assert json.loads(proc.stderr) == {
        "error": "infeasible",
        "message": "cover pipeline (cover-automaton stage): Veronese dimension 400000001 "
                   "exceeds the cap 10000; set eta_override (result is then oracle-checked) "
                   "or raise the veronese cap",
    }
    assert elapsed < 1.0, f"{elapsed:.2f} s"


def test_cover_d2_default_eta_exits_infeasible(tmp_path):
    # the states x Veronese budget refuses the 1026-state run at the default
    # threshold, pointing at eta_override
    path = tmp_path / "cover_default.json"
    path.write_text(json.dumps({
        "dimension": 2, "alphabet": ["a", "b"],
        "phi": {"a": [["1", "1"], ["0", "1"]], "b": [["1", "0"], ["1", "1"]]},
        "omega": {"a": 1, "b": -1}, "mode": "cover", "degree": 2,
    }))
    proc = _run_cli("run", str(path))
    assert proc.returncode == 3
    err = json.loads(proc.stderr)
    assert "budget" in err["message"] and "eta_override" in err["message"]


def test_zero_d2_default_eta_exits_infeasible(tmp_path):
    # 15^4 tensor coordinates exceed the Veronese cap at the default
    # threshold; the refusal still points at eta_override
    path = tmp_path / "zero_default.json"
    path.write_text(json.dumps({
        "dimension": 2, "alphabet": ["a", "b"],
        "phi": {"a": [["1", "1"], ["0", "1"]], "b": [["1", "0"], ["1", "1"]]},
        "omega": {"a": 1, "b": -1}, "mode": "zero", "degree": 2,
    }))
    proc = _run_cli("run", str(path))
    assert proc.returncode == 3
    err = json.loads(proc.stderr)
    assert err["error"] == "infeasible"
    assert "eta_override" in err["message"]


@pytest.mark.parametrize("args, mode, d, degree, message", [
    # d = 119: eta = 2^14518 + 1, past the 4,300 digits Python converts to a
    # string; the refusal writes only the numbers it names
    (("run",), "cover", 119, 1, r".*: Veronese dimension 14162 exceeds the cap 10000; .*"),
    (("run",), "reach", 119, 1, r"reach at default eta=~2\^14518 blockifies a ~2\^14519-state "
                                r"automaton into dimension ~2\^14525; .* needs ~10\^34981 .*"),
    (("automaton", "--which", "cover"), "cover", 119, 1,
     r"cover automaton needs ~2\^14518 states, over the cap 1000000; .*"),
    (("automaton", "--which", "zero"), "cover", 119, 1,
     r"zero automaton needs ~2\^14520 states, over the cap 1000000; .*"),
    # d = 2 reach at the default eta: the flat stage's size is a count of
    # digits, made without printing (3,000) or computing (300,000) it
    (("run",), "reach", 2, 3000, r"reach at default eta=1025 .* needs ~10\^54425 .*"),
    (("run",), "reach", 2, 300_000, r"reach at default eta=1025 .* needs ~10\^\d{7} .*"),
], ids=["cover-veronese", "reach-eta", "automaton-cover", "automaton-zero", "reach-degree-3000",
        "reach-degree-300000"])
def test_refusal_with_unprintable_numbers_exits_infeasible(
    tmp_path, capsys, args, mode, d, degree, message
):
    if d == 2:
        phi = {"a": [["1", "1"], ["0", "1"]], "b": [["1", "0"], ["1", "1"]]}
        omega = {"a": 1, "b": -1}
    else:
        phi = {"a": [[str(int(i == j)) for j in range(d)] for i in range(d)]}
        omega = {"a": 1}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dimension": d, "alphabet": sorted(phi), "phi": phi,
                                "omega": omega, "mode": mode, "degree": degree}))
    assert main([args[0], str(path), *args[1:]]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "infeasible"
    assert re.fullmatch(message, err["message"])


@pytest.mark.parametrize("command, mode, cap, stage", [
    ("oracle", "reach", "veronese", "oracle"),
    ("run", "cover", "budget", "cover saturation"),
    ("run", "regular", "budget", "regular closure"),
])
def test_refusal_off_the_default_threshold_names_only_its_cap(
    tmp_path, capsys, command, mode, cap, stage
):
    # eta_override cannot help the oracle, the saturation windows or the
    # regular closure, so their refusals name only the cap
    doc = {
        "dimension": 2, "alphabet": ["a", "b"],
        "phi": {"a": [["1", "1"], ["0", "1"]], "b": [["1", "0"], ["1", "1"]]},
        "omega": {"a": 1, "b": -1}, "mode": mode, "degree": 2,
        "eta_override": 2, "caps": {cap: 1},
    }
    if mode == "regular":
        doc["nfa"] = {"states": [0], "initial": [0], "accepting": [0],
                      "transitions": [[0, "a", 0], [0, "b", 0]]}
    path = tmp_path / "capped.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "infeasible"
    assert err["message"].startswith(stage)
    assert err["message"].endswith(f"; raise the {cap} cap")
    assert "eta_override" not in err["message"]


def test_truncated_oracle_exits_disagreement(tmp_path):
    path = tmp_path / "tight.json"
    path.write_text(json.dumps({
        "dimension": 2, "alphabet": ["a", "b"],
        "phi": {"a": [["1", "1"], ["0", "1"]], "b": [["1", "0"], ["1", "1"]]},
        "omega": {"a": 1, "b": -1}, "mode": "reach", "degree": 2,
        "eta_override": 2,
        "caps": {"oracle_len": 2, "oracle_extend": 2},
    }))
    proc = _run_cli("run", str(path))
    assert proc.returncode == 4
    assert json.loads(proc.stderr)["error"] == "oracle-disagreement"


def test_env_caps_override(tmp_path):
    proc = _run_cli(
        "run", _corpus_path("simple_reach.json"),
        env_extra={"CLOSURE_CAP_BUDGET": "1"},
    )
    assert proc.returncode == 3


def test_eta_override_flag(tmp_path):
    path = tmp_path / "no_eta.json"
    path.write_text(json.dumps({
        "dimension": 1, "alphabet": ["a", "b"],
        "phi": {"a": [["2"]], "b": [["1/2"]]},
        "omega": {"a": 1, "b": -1}, "mode": "reach", "degree": 1,
    }))
    assert _run_cli("run", str(path)).returncode == 3  # default eta refuses
    proc = _run_cli("run", str(path), "--eta-override", "2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["eta_used"] == 2


def test_run_refuses_a_negative_eta_override():
    path = _corpus_path("simple_reach.json")
    proc = _run_cli("run", path, "--eta-override", "-3")
    assert proc.returncode == 2, proc.stdout
    assert proc.stdout == ""
    assert json.loads(proc.stderr) == {
        "error": "schema",
        "message": f"{path}: --eta-override must be >= 1 (0 keeps the instance's eta), got -3",
    }
    # 0 is no override: the report is the one without the flag
    reports = [json.loads(_run_cli("run", path, *flag).stdout)
               for flag in ((), ("--eta-override", "0"))]
    for report in reports:
        del report["timings"]
    assert reports[0] == reports[1]


def test_commands_in_one_process_print_what_fresh_processes_print(capsys):
    # `main` builds its parser once per process; each call still parses only
    # its own arguments
    path = _corpus_path("simple_reach.json")

    def without_timings(out):
        if not out.startswith("{"):
            return out
        report = json.loads(out)
        report.pop("timings", None)
        return report

    for argv in (["run", path], ["oracle", path, "--max-len", "6"], ["run", path, "--text"]):
        code = main(argv)
        captured = capsys.readouterr()
        proc = _run_cli(*argv)
        assert (code, without_timings(captured.out), captured.err) == (
            proc.returncode, without_timings(proc.stdout), proc.stderr)


def test_tree_and_automaton_and_oracle_commands():
    proc = _run_cli("tree", _corpus_path("dyck_reach.json"), "--word", "aabb")
    assert proc.returncode == 0 and "height" in proc.stdout
    proc = _run_cli("tree", _corpus_path("dyck_reach.json"), "--word", "a,a,b,b",
                    "--json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["span"] == [0, 4] and len(doc["children"]) >= 2

    # zero_balanced_d1 runs at the default threshold: 17 counters plus sink
    proc = _run_cli("automaton", _corpus_path("zero_balanced_d1.json"),
                    "--which", "cover")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert len(doc["states"]) == 18

    proc = _run_cli("oracle", _corpus_path("simple_reach.json"), "--max-len", "6")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["generators"] == ["x11 - 1"]


def test_verify_corpus_empty_directory(tmp_path):
    assert verify_corpus(str(tmp_path)) == []
    proc = _run_cli("verify-corpus", "--corpus-dir", str(tmp_path))
    assert proc.returncode == 0 and proc.stdout.strip() == ""


def test_verify_corpus_flags_corrupted_expectation(tmp_path):
    with open(_corpus_path("simple_reach.json")) as fh:
        doc = json.load(fh)
    doc["expected_generators"] = ["x11 - 2"]  # deliberately wrong
    (tmp_path / "corrupt.json").write_text(json.dumps(doc))
    entries = verify_corpus(str(tmp_path))
    assert [e["status"] for e in entries] == ["FAIL"]
    proc = _run_cli("verify-corpus", "--corpus-dir", str(tmp_path))
    assert proc.returncode == 1


def _malformed_entry(case):
    with open(_corpus_path("cover_powers_d1.json")) as fh:
        doc = json.load(fh)
    if case == "not-json":
        return "{" + json.dumps(doc)
    doc["expected_generators"] = {"generators-not-a-list": 5, "generator-not-a-string": [5]}[case]
    return json.dumps(doc)


@pytest.mark.parametrize(
    "case", ["not-json", "generators-not-a-list", "generator-not-a-string", "missing-directory"]
)
def test_verify_corpus_reports_malformed_entries(tmp_path, capsys, case):
    corpus = tmp_path / "corpus"
    if case != "missing-directory":
        corpus.mkdir()
        (corpus / "entry.json").write_text(_malformed_entry(case))
    entries = verify_corpus(str(corpus))
    code = main(["verify-corpus", "--corpus-dir", str(corpus)])
    lines = capsys.readouterr().out.splitlines()
    if case == "missing-directory":
        assert (entries, code, lines) == ([], 0, [])
        return
    assert code == 1
    assert [(e["name"], e["status"]) for e in entries] == [("entry.json", "FAIL")]
    assert entries[0]["error"].startswith("entry.json: ")
    assert lines == [f"FAIL         entry.json  [{entries[0]['error']}]"]


@pytest.mark.parametrize("command", [["run"], ["oracle", "--max-len", "2"]])
def test_veronese_cap_refuses_before_any_basis_is_built(tmp_path, command):
    # 144 variables at degree 4: 19,190,605 monomials, far over the cap
    one = [["1" if i == j else "0" for j in range(12)] for i in range(12)]
    doc = {
        "dimension": 12, "alphabet": ["a", "b"], "phi": {"a": one, "b": one},
        "omega": {"a": 1, "b": -1}, "mode": "zero", "degree": 4, "eta_override": 2,
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    proc = _run_cli(command[0], str(path), *command[1:])
    assert proc.returncode == 3, proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "infeasible"
    assert "Veronese dimension 19190605 exceeds the cap 10000" in err["message"]


def test_run_pipeline_accepts_regular_mode(tmp_path):
    doc = {
        "dimension": 2, "alphabet": ["a", "b"],
        "phi": {"a": [["1", "1"], ["0", "1"]], "b": [["1", "0"], ["1", "1"]]},
        "omega": {"a": 1, "b": -1}, "mode": "regular", "degree": 1,
        "nfa": {
            "states": ["q"], "initial": ["q"], "accepting": ["q"],
            "transitions": [["q", "a", "q"], ["q", "b", "q"]],
        },
    }
    report = run_pipeline(Instance(doc))
    assert report["mode"] == "regular"
    assert report["generators"] == []


def test_oracle_refuses_a_negative_max_len():
    path = _corpus_path("simple_reach.json")
    proc = _run_cli("oracle", path, "--max-len", "-3")
    assert proc.returncode == 2, proc.stdout
    assert proc.stdout == ""
    assert json.loads(proc.stderr) == {
        "error": "schema", "message": f"{path}: --max-len must be >= 0, got -3",
    }


def test_tree_refuses_an_unknown_letter_naming_the_file_and_the_word():
    path = _corpus_path("dyck_reach.json")
    proc = _run_cli("tree", path, "--word", "abz")
    assert proc.returncode == 2, proc.stdout
    assert proc.stdout == ""
    assert json.loads(proc.stderr) == {
        "error": "precondition", "message": f"{path}: --word 'abz': unknown letter 'z'",
    }


def test_oracle_reads_a_nondeterministic_regular_instance(tmp_path):
    doc = {
        "dimension": 2, "alphabet": ["a", "b"],
        "phi": {"a": [["1", "1"], ["0", "2"]], "b": [["1", "0"], ["0", "3"]]},
        "omega": {"a": 1, "b": -1}, "mode": "regular", "degree": 2,
        "nfa": {  # two a-transitions out of p: the words with a factor ab
            "states": ["p", "q", "r"], "initial": ["p"], "accepting": ["r"],
            "transitions": [["p", "a", "p"], ["p", "a", "q"], ["p", "b", "p"],
                            ["q", "b", "r"], ["r", "a", "r"], ["r", "b", "r"]],
        },
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    instance = Instance(doc)
    assert not instance.nfa.is_deterministic()
    words = [w for n in range(9) for w in itertools.product("ab", repeat=n)
             if instance.nfa.accepts(w)]
    want = finite_vanishing_space([instance.mp.image(w) for w in words], 2, 2)
    proc = _run_cli("oracle", str(path), "--max-len", "8")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["words_used"] == len(words)
    assert out["generators"] == list(space_to_generators(want).generators) != []

    subsets = len(determinize(instance.nfa).states)
    proc = _run_cli("oracle", str(path), "--max-len", "8",
                    env_extra={"CLOSURE_CAP_STATES": str(subsets - 1)})
    assert proc.returncode == 3 and "Traceback" not in proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "infeasible"
    assert f"states cap {subsets - 1}" in err["message"]
    assert "CLOSURE_CAP_STATES" in err["message"]


def test_missing_nfa_for_regular_mode_is_schema_error():
    doc = {
        "dimension": 1, "alphabet": ["a"], "phi": {"a": [["2"]]},
        "omega": {"a": 1}, "mode": "regular", "degree": 1,
    }
    from zclosure.errors import SchemaError

    with pytest.raises(SchemaError):
        Instance(doc)


def _assert_schema_exit(proc):
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "schema"
    return err["message"]


def _run_doc(tmp_path, doc, env_extra=None):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    return _run_cli("run", str(path), env_extra=env_extra)


@pytest.mark.parametrize("key", ["phi", "omega"])
def test_letter_outside_the_alphabet_is_schema_error(tmp_path, key):
    doc = {
        "dimension": 1, "alphabet": ["a"], "phi": {"a": [["2"]]},
        "omega": {"a": 1}, "mode": "cover", "degree": 1,
    }
    doc[key]["b"] = {"phi": [["3"]], "omega": -1}[key]
    message = _assert_schema_exit(_run_doc(tmp_path, doc))
    assert key in message and "'b'" in message


def _regular_doc():
    return {
        "dimension": 1, "alphabet": ["a"], "phi": {"a": [["2"]]},
        "omega": {"a": 1}, "mode": "regular", "degree": 1,
        "nfa": {"states": ["q"], "initial": ["q"], "accepting": ["q"],
                "transitions": [["q", "a", "q"]]},
    }


def _vass_doc():
    with open(_corpus_path("anbndyck_reach.json")) as fh:
        doc = json.load(fh)
    return doc.get("instance", doc)


def test_caps_keys_come_from_the_caps_fields(tmp_path):
    doc = _regular_doc()
    doc["caps"] = {"bogus": 1}
    assert "bogus" in _assert_schema_exit(_run_doc(tmp_path, doc))
    doc["caps"] = {"window": 5, "oracle_len": 3}
    caps = Instance(doc).caps
    assert (caps.window, caps.oracle_len) == (5, 3)


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(degree=True),
    lambda d: d.update(dimension=True),
    lambda d: d.update(eta_override=True),
    lambda d: d["omega"].update(a=True),
    lambda d: d.update(caps={"budget": True}),
    lambda d: d.update(caps={"counter": -1}),
    lambda d: d["phi"].update(a=[[True]]),
], ids=["degree", "dimension", "eta_override", "omega", "cap", "negative-cap",
        "matrix-entry"])
def test_bool_where_an_int_is_expected_is_schema_error(tmp_path, mutate):
    doc = _regular_doc()
    mutate(doc)
    _assert_schema_exit(_run_doc(tmp_path, doc))


def test_bool_vass_weight_is_schema_error(tmp_path):
    doc = _vass_doc()
    doc["vass"]["transitions"][0][2] = True
    _assert_schema_exit(_run_doc(tmp_path, doc))


def test_non_integer_env_cap_is_schema_error(tmp_path):
    proc = _run_doc(tmp_path, _regular_doc(), env_extra={"CLOSURE_CAP_BUDGET": "abc"})
    assert "CLOSURE_CAP_BUDGET" in _assert_schema_exit(proc)


def test_automaton_state_cap_refusal_names_the_cap_and_its_variable():
    proc = _run_cli("automaton", _corpus_path("cover_powers_d1.json"), "--which", "cover",
                    env_extra={"CLOSURE_CAP_STATES": "10"})
    assert proc.returncode == 3, proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "infeasible"
    assert "states cap" in err["message"] and "CLOSURE_CAP_STATES" in err["message"]


def test_non_integer_env_window_cap_is_schema_error(tmp_path):
    proc = _run_doc(tmp_path, _regular_doc(), env_extra={"CLOSURE_CAP_WINDOW": "abc"})
    assert "CLOSURE_CAP_WINDOW" in _assert_schema_exit(proc)


def test_every_cap_can_be_set_from_the_environment(monkeypatch):
    names = list(Caps._fields)
    for i, name in enumerate(names):
        monkeypatch.setenv(f"CLOSURE_CAP_{name.upper()}", str(100 + i))
    caps = Instance(_regular_doc()).caps
    assert [getattr(caps, name) for name in names] == [100 + i for i in range(len(names))]
    assert caps.window == 100 + names.index("window")


@pytest.mark.parametrize("mutate", [
    lambda d: d["nfa"].update(states=[["q"]]),
    lambda d: d["nfa"].update(initial=[{"q": 1}]),
    lambda d: d["nfa"].update(transitions=[[["q"], "a", "q"]]),
    lambda d: d["nfa"].update(transitions=[["q", ["a"], "q"]]),
    lambda d: d["nfa"].update(transitions=[["q", "a"]]),
], ids=["state", "initial", "transition-state", "transition-letter",
        "short-transition"])
def test_unhashable_nfa_state_is_schema_error(tmp_path, mutate):
    doc = _regular_doc()
    mutate(doc)
    _assert_schema_exit(_run_doc(tmp_path, doc))


@pytest.mark.parametrize("mutate", [
    lambda d: d["vass"].update(states=[["s"], "t"]),
    lambda d: d["vass"].update(initial=["s"]),
    lambda d: d["vass"]["transitions"][0].__setitem__(0, ["s"]),
], ids=["state", "initial", "transition-state"])
def test_unhashable_vass_state_is_schema_error(tmp_path, mutate):
    doc = _vass_doc()
    mutate(doc)
    _assert_schema_exit(_run_doc(tmp_path, doc))


# one malformed document per fact the records own; (base document, change,
# a part of the message)
_RECORD_FACTS = {
    "missing-phi-letter": (_regular_doc, lambda d: d["phi"].pop("a"), "phi lacks letter 'a'"),
    "missing-omega-letter": (_regular_doc, lambda d: d["omega"].pop("a"),
                             "omega lacks letter 'a'"),
    "weight-2": (_regular_doc, lambda d: d["omega"].update(a=2), "omega('a') = 2"),
    "duplicate-letter": (_regular_doc, lambda d: d["alphabet"].append("a"), "distinct"),
    "empty-letter": (
        _regular_doc,
        lambda d: (d["alphabet"].append(""), d["phi"].update({"": [["1"]]}),
                   d["omega"].update({"": 0})),
        "nonempty",
    ),
    "nfa-undeclared-target": (_regular_doc, lambda d: d["nfa"]["transitions"].append(
        ["q", "a", "r"]), "unknown state"),
    "vass-undeclared-accepting": (_vass_doc, lambda d: d["vass"].update(accepting=["u"]),
                                  "declared states"),
    "vass-weight-2": (_vass_doc, lambda d: d["vass"]["transitions"][0].__setitem__(2, 2),
                      "weight 2"),
    "duplicate-nfa-state": (_regular_doc, lambda d: d["nfa"]["states"].append("q"),
                            "state 'q' is listed twice"),
    # without eta_override: the repeated state once made this a refusal that
    # counted three states (exit 3)
    "duplicate-vass-state": (
        _vass_doc, lambda d: (d["vass"]["states"].append("t"), d.pop("eta_override")),
        "vass state 't' is listed twice",
    ),
}


@pytest.mark.parametrize("case", list(_RECORD_FACTS))
def test_a_fact_the_records_own_exits_schema_with_the_file_path(tmp_path, case):
    base, mutate, part = _RECORD_FACTS[case]
    doc = base()
    mutate(doc)
    message = _assert_schema_exit(_run_doc(tmp_path, doc))
    assert message.startswith(f"{tmp_path / 'instance.json'}: ")
    assert part in message


_CORPUS_DOCS = [
    json.loads(pathlib.Path(CORPUS, name).read_text())
    for name in sorted(os.listdir(CORPUS)) if name.endswith(".json")
]
_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=4),
    st.lists(st.one_of(st.integers(-1, 1), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-1, 1), max_size=2),
)


def _paths(node, prefix=()):
    """Every key path into a JSON document."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_corpus_instances_parse_or_raise_schema_error(data):
    # `load_instance` is `json.load` plus `Instance`; the document is parsed
    # from its JSON text, and not written to a file, to keep the test fast
    doc = copy.deepcopy(data.draw(st.sampled_from(_CORPUS_DOCS + [_regular_doc()])))
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *outer, key = data.draw(st.sampled_from(paths))
        parent = doc
        for k in outer:
            parent = parent[k]
        action = data.draw(st.sampled_from(("drop", "retype", "rename")))
        if action == "drop":
            del parent[key]
        elif action == "rename" and isinstance(parent, dict):
            parent[data.draw(st.text(max_size=8))] = parent.pop(key)
        else:
            parent[key] = data.draw(_JUNK)
    try:
        Instance(json.loads(json.dumps(doc)), "mutated.json")
    except SchemaError:
        pass


def _sink_named_doc(accepting):
    """d = 1, a = 1 of weight +1, b = 2 of weight -1: s -a-> s, s -b-> X with
    X = `accepting`, the name that may clash with the DFA's sink."""
    return {
        "dimension": 1, "alphabet": ["a", "b"], "phi": {"a": [["1"]], "b": [["2"]]},
        "omega": {"a": 1, "b": -1}, "mode": "vass-cover", "degree": 2, "eta_override": 2,
        "vass": {"states": ["s", accepting], "initial": "s", "accepting": [accepting],
                 "transitions": [["s", "a", 1, "s"], ["s", "b", -1, accepting]]},
    }


def test_a_vass_state_named_like_the_sink_keeps_its_language(tmp_path, capsys):
    # the sink of `vass_to_constrained` once merged with a state of its name
    outputs = []
    for accepting in ("t", "_dead"):
        path = tmp_path / f"{accepting}.json"
        path.write_text(json.dumps(_sink_named_doc(accepting)))
        assert main(["run", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        report.pop("timings")
        assert main(["oracle", str(path), "--max-len", "8"]) == 0
        outputs.append((report, json.loads(capsys.readouterr().out)))
    assert outputs[0][0]["generators"] == ["x11^2 - 4", "x11 - 2"]
    assert outputs[0][1]["words_used"] == 7
    assert outputs[1] == outputs[0]
