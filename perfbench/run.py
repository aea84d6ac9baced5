"""Benchmark of zclosure's `closure run` entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --record-golden

Run from the root of a source checkout; the package is imported from its
`src/` directory.  The instances of the workload are generated from the seed
(see workloads.py).  One pass starts a fresh worker process (worker.py) that
runs every instance once, one at a time; this process waits for it, so the
loop is closed with a single client and at most two processes are alive.
Passes repeat until the time is used up, and each metric is the median over
the passes.

Every output is checked (check.py and the golden files): a nonzero exit code
or a failed check counts as a failed instance.  With `--trace 0` the last
line of standard output is a JSON object with the end-to-end metrics; with
`--trace 1` traced and untraced passes alternate and it holds the per-layer
metrics instead.  `--record-golden` rewrites the golden file of a workload
from one pass at the default seed.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
MIN_PASSES = 3
TIME_LIMIT_S = 170.0  # the whole run, passes and checks included

END_TO_END = (("pass_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def worker_env() -> dict[str, str]:
    """The caller's environment minus every CLOSURE_CAP_* override (they
    change results), with a pinned hash seed and only the checkout's src/ on
    the import path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CLOSURE_CAP_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


def run_pass(files: list[Path], trace: int, out: Path, deadline: float) -> dict:
    t0 = time.monotonic()
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--t0", repr(t0),
         "--trace", str(trace), "--out", str(out)] + [str(f) for f in files],
        env=worker_env(), cwd=ROOT, check=True,
        timeout=max(1.0, deadline - t0),
    )
    with open(out) as fh:
        return json.load(fh)


def deterministic(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "timings"}


class Checker:
    """Checks each instance's output; remembers verdicts so repeated passes
    with identical output are not checked twice."""

    def __init__(self, workload: str, seed: int, docs: dict[str, dict]):
        self.workload, self.seed, self.docs = workload, seed, docs
        path = GOLDEN / f"{workload}.json"
        self.golden = json.loads(path.read_text()) if path.exists() else None
        self.verdicts: dict[tuple[str, str], list[str]] = {}
        self.first: dict[str, dict] = {}

    def problems(self, name: str, run: dict) -> list[str]:
        if run["exit_code"] != 0:
            last_line = (run["error"].strip().splitlines() or [""])[-1]
            return [f"exit code {run['exit_code']} {last_line}".strip()]
        try:
            report = deterministic(json.loads(run["stdout"]))
        except (json.JSONDecodeError, AttributeError) as exc:
            return [f"unreadable report: {exc}"]
        key = (name, json.dumps(report, sort_keys=True))
        if key not in self.verdicts:
            self.verdicts[key] = self._check(name, report)
        bad = list(self.verdicts[key])
        if self.first.setdefault(name, report) != report:
            bad.append("output differs from the first pass of this run")
        return bad

    def _check(self, name: str, report: dict) -> list[str]:
        bad = []
        gens = report.get("generators")
        if not isinstance(gens, list) or len(gens) != report.get("vanishing_dimension"):
            return ["generator count differs from vanishing_dimension"]
        want = (self.golden or {}).get(name)
        if want is None:
            bad.append(f"no golden output for {self.workload}/{name}")
        elif self.seed == workloads.DEFAULT_SEED:
            if report != want:
                bad.append("output differs from the golden file")
        else:
            # conjugation keeps every dimension; the regular workload's seed
            # draws a new automaton, so there only the shape must match
            free = {"generators", "vanishing_dimension"} if name.startswith("regular.") \
                else {"generators"}
            for k in want.keys() - free:
                if report.get(k) != want[k]:
                    bad.append(f"{k} = {report.get(k)!r}, expected {want[k]!r}")
        rng = random.Random(f"check:{self.workload}:{self.seed}:{name}")
        try:
            bad += check.vanishing_failures(self.docs[name], gens, rng)
        except ValueError as exc:
            bad.append(str(exc))
        return bad


def group_seconds(result: dict, names: list[str]) -> dict[str, float]:
    """Wall time of each instance group in one pass."""
    out = dict.fromkeys(workloads.GROUPS, 0.0)
    for name, run in zip(names, result["runs"]):
        out[name.split(".")[0]] += run["s"]
    return out


def per_layer(trace: dict, overhead_ratio: float,
              group_s: dict[str, float]) -> dict[str, tuple[float, str]]:
    calls, incl, self_s, counts = trace["calls"], trace["s"], trace["self_s"], trace["counts"]
    untraced = set(trace["untraced"])
    out: dict[str, tuple[float, str]] = {
        f"group.{group}.s": (seconds, "s") for group, seconds in group_s.items()}

    def put(metric: str, span: str, value, unit: str) -> None:
        if span not in untraced:
            out[metric] = (value, unit)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    for span in ("cli.Instance", "polys.space_to_generators"):
        put(f"{span}.s", span, incl.get(span, 0.0), "s")
    for span in ("closure.Span.insert", "exactlin.kernel_basis", "exactlin.Matrix.mul",
                 "closure.letter_map", "closure.apply_map", "closure._tensor_apply",
                 "closure.veronese"):
        put(f"{span}.calls", span, calls.get(span, 0), "count")
        put(f"{span}.s", span, incl.get(span, 0.0), "s")
    span = "closure.Span.insert"
    accepted = counts.get(f"{span}.accepted", 0)
    put(f"{span}.accepted", span, accepted, "count")
    put(f"{span}.accept_ratio", span, ratio(accepted, calls.get(span, 0)), "1")
    put("closure._window_rows.calls", "closure._window_rows",
        calls.get("closure._window_rows", 0), "count")
    for span in ("closure._window_rows", "closure._nfa_span_rows",
                 "closure._gamma_condition_rows"):
        put(f"{span}.self_s", span, self_s.get(span, 0.0), "s")
    if not untraced & {"closure.apply_map", "closure._tensor_apply"}:
        out["closure.fixpoint.pushes"] = (
            calls.get("closure.apply_map", 0) + calls.get("closure._tensor_apply", 0), "count")
    span = "closure.counter_saturation"
    sat_s = incl.get(span, 0.0)
    put(f"{span}.s", span, sat_s, "s")
    put(f"{span}.windows", span, calls.get("closure._window_rows", 0), "count")
    put(f"{span}.last_window_ratio", span, ratio(sat_s, trace["last_window_s"]), "1")
    put(f"{span}.final_bound_sum", span, counts.get(f"{span}.final_bound_sum", 0), "count")
    span = "closure._oracle_over_words"
    words = counts.get(f"{span}.words", 0)
    put(f"{span}.s", span, incl.get(span, 0.0), "s")
    put(f"{span}.self_s", span, self_s.get(span, 0.0), "s")
    put(f"{span}.words", span, words, "count")
    put(f"{span}.words_per_s", span, ratio(words, incl.get(span, 0.0)), "1/s")
    put(f"{span}.max_len_sum", span, counts.get(f"{span}.max_len_sum", 0), "count")
    out["trace.overhead_ratio"] = (overhead_ratio, "1")
    return out


def work_counts(trace: dict) -> dict:
    """The deterministic part of a trace: every call count and work count."""
    return {"calls": trace["calls"], "counts": trace["counts"]}


def write_instances(docs: dict[str, dict], workdir: Path) -> list[Path]:
    files = []
    for name, doc in docs.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc))
        files.append(path)
    return files


def measure(args, docs: dict[str, dict], workdir: Path) -> dict:
    files = write_instances(docs, workdir)
    names = list(docs)
    checker = Checker(args.workload, args.seed, docs)
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    passes: dict[int, list[dict]] = {0: [], 1: []}
    attempted = failed = 0
    schedule = (0, 1) if args.trace else (0,)
    while True:
        mode = schedule[sum(map(len, passes.values())) % len(schedule)]
        result = run_pass(files, mode, workdir / "pass.json", deadline)
        passes[mode].append(result)
        bad_here = 0
        for name, run in zip(names, result["runs"]):
            attempted += 1
            bad = checker.problems(name, run)
            if bad:
                bad_here += 1
                print(f"FAIL {name}: " + "; ".join(bad[:3]), file=sys.stderr)
        failed += bad_here
        print(f"pass {sum(map(len, passes.values()))} ({'traced' if mode else 'untraced'}): "
              f"pass_s={result['pass_s']:.4f} setup_s={result['setup_s']:.4f} "
              f"peak_rss_mb={result['peak_rss_mb']:.1f} failed={bad_here}/{len(names)}",
              flush=True)
        # stop once another pass would more likely end after --seconds than
        # before it, or could overrun the time limit
        elapsed = time.monotonic() - start
        done = min(len(passes[m]) for m in schedule)
        longest = max(r["pass_s"] for r in passes[0] + passes[1])
        need = 1 if args.trace else MIN_PASSES
        if done >= need and elapsed + result["pass_s"] / 2 > args.seconds:
            break
        if elapsed + 2 * longest > TIME_LIMIT_S:
            break

    def median(mode: int, key: str) -> float:
        return statistics.median(r[key] for r in passes[mode])

    if not args.trace:
        metrics = {k: (median(0, k), unit) for k, unit in END_TO_END}
    else:
        traces = [r["trace"] for r in passes[1]]
        if any(work_counts(t) != work_counts(traces[0]) for t in traces):
            print("WARNING: work counts differ between traced passes", file=sys.stderr)
        if traces[0]["untraced"]:
            print("untraced: " + ", ".join(traces[0]["untraced"]))
        group_s = {g: statistics.median(group_seconds(r, names)[g] for r in passes[0])
                   for g in workloads.GROUPS}
        overhead = median(1, "pass_s") / median(0, "pass_s")
        table = [per_layer(t, overhead, group_s) for t in traces]
        metrics = {k: (statistics.median(t[k][0] for t in table), unit)
                   for k, (_, unit) in table[0].items()}
    print(f"fail_ratio={failed / attempted:.4f} ({failed} of {attempted} instance runs)")
    for k, (value, unit) in metrics.items():
        print(f"  {k:48s} {value:>14.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def record_golden(workload: str, workdir: Path) -> None:
    docs = workloads.generate(workload, workloads.DEFAULT_SEED)
    result = run_pass(write_instances(docs, workdir), 0, workdir / "pass.json",
                      time.monotonic() + TIME_LIMIT_S)
    golden = {}
    for name, run in zip(docs, result["runs"]):
        if run["exit_code"] != 0:
            sys.exit(f"{name}: exit code {run['exit_code']}; golden not written")
        golden[name] = deterministic(json.loads(run["stdout"]))
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / f"{workload}.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN / f'{workload}.json'}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()
    if not (SRC / "zclosure" / "__init__.py").is_file():
        print(f"error: no zclosure sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        if args.record_golden:
            record_golden(args.workload, workdir)
            return 0
        docs = workloads.generate(args.workload, args.seed)
        result = measure(args, docs, workdir)
    except (subprocess.SubprocessError, OSError, KeyError, ValueError):
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
