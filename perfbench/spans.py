"""Per-layer tracing from outside the program.

`Tracer.install` wraps module-level functions and methods of zclosure by
name.  A function is replaced in every zclosure module that bound it (for
example `kernel_basis` lives in `exactlin`, `closure` and `reduction`); a
method is replaced on its class.  Each call is a span: inclusive time goes to
`<name>.s` (outermost call only, so recursion is not counted twice), and self
time, the span's time minus the time of its traced child spans, goes to
`<name>.self_s`.  A name that no longer exists is listed as untraced and the
rest is traced as usual.
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (span name, module, attribute path inside the module)
TARGETS = (
    ("cli.Instance", "zclosure.cli", "Instance.__init__"),
    ("polys.space_to_generators", "zclosure.polys", "space_to_generators"),
    ("closure.Span.insert", "zclosure.closure", "Span.insert"),
    ("exactlin.kernel_basis", "zclosure.exactlin", "kernel_basis"),
    ("exactlin.Matrix.mul", "zclosure.exactlin", "Matrix.__mul__"),
    ("closure.letter_map", "zclosure.closure", "letter_map"),
    ("closure.apply_map", "zclosure.closure", "apply_map"),
    ("closure._tensor_apply", "zclosure.closure", "_tensor_apply"),
    ("closure.veronese", "zclosure.closure", "veronese"),
    ("closure._window_rows", "zclosure.closure", "_window_rows"),
    ("closure._nfa_span_rows", "zclosure.closure", "_nfa_span_rows"),
    ("closure._gamma_condition_rows", "zclosure.closure", "_gamma_condition_rows"),
    ("closure.counter_saturation", "zclosure.closure", "counter_saturation"),
    ("closure._oracle_over_words", "zclosure.closure", "_oracle_over_words"),
)


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.active: dict[str, int] = defaultdict(int)
        self.last: dict[str, float] = {}
        self.last_window_s = 0.0  # summed over counter_saturation calls
        self.stack: list[float] = []  # child time accumulated per open span
        self.untraced: list[str] = []

    def _observe(self, name: str, result) -> None:
        """Work counts read off a traced call's result."""
        if name == "closure.Span.insert" and result:
            self.counts["closure.Span.insert.accepted"] += 1
        elif name == "closure.counter_saturation":
            self.counts["closure.counter_saturation.final_bound_sum"] += result[1]
            self.last_window_s += self.last.get("closure._window_rows", 0.0)
        elif name == "closure._oracle_over_words":
            self.counts["closure._oracle_over_words.words"] += result.words_used
            self.counts["closure._oracle_over_words.max_len_sum"] += result.max_len

    def wrap(self, name: str, fn):
        clock = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            self.calls[name] += 1
            self.active[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = stack.pop()
                self.active[name] -= 1
                if not self.active[name]:
                    self.incl[name] += dt
                self.self_time[name] += dt - children
                self.last[name] = dt
                if stack:
                    stack[-1] += dt
            try:
                self._observe(name, result)
            except (AttributeError, TypeError, IndexError):
                if name not in self.untraced:  # the result changed shape
                    self.untraced.append(name)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, module_name, path in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner = module
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.untraced.append(name)
                continue
            wrapper = self.wrap(name, original)
            if outer:  # a method: patch it on its class
                setattr(owner, attr, wrapper)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("zclosure"):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "s": dict(self.incl),
            "self_s": dict(self.self_time),
            "counts": dict(self.counts),
            "last_window_s": self.last_window_s,
            "untraced": list(self.untraced),
        }
