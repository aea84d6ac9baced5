"""One workload pass in a fresh process.

    python3 worker.py --t0 T --trace 0|1 --out result.json instance.json...

T is the parent's `time.monotonic()` just before it started this process (the
clock is system-wide), so set-up time counts interpreter start-up.  Set-up
ends when zclosure is imported and every instance file is parsed and
validated by `cli.Instance`.  Then each instance runs through
`zclosure.cli.main(["run", file])` in this process, one at a time; its exit
code and standard output go into the result file with the timings and the
peak resident set size.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import time
import traceback


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("files", nargs="+")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    from zclosure import cli
    from zclosure.errors import ZClosureError

    for path in args.files:
        try:
            cli.load_instance(path)
        except ZClosureError:
            pass  # the run below reports it with its exit code
    setup_s = time.monotonic() - args.t0

    runs = []
    for path in args.files:
        out = io.StringIO()
        error = ""
        started = time.monotonic()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(["run", path])
        except Exception:  # an uncaught error is a failed instance, not a lost pass
            code, error = 1, traceback.format_exc()
        runs.append({"file": path, "exit_code": code, "stdout": out.getvalue(),
                     "error": error, "s": time.monotonic() - started})
    pass_s = time.monotonic() - args.t0

    result = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "runs": runs,
        "trace": tracer.report() if tracer else None,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
