"""In-memory span tracing around lemmakit's public functions.

The tracer rebinds module attributes of an imported lemmakit in the current
process only: each rebound name calls the original through a wrapper that
records a span (name, start, end, parent) or bumps a counter.  Spans stay in
memory until `summary()` aggregates them at the end of the pass.
"""

from __future__ import annotations

import gc
import importlib
import statistics
import time
from collections import defaultdict

# (span name, [(module, attribute), ...]).  One name may sit behind several
# bindings because callers import functions by name.
SPANS = [
    ("proposer.propose_retrieval", [("cli", "propose_retrieval")]),
    ("proposer.feasible", [("proposer", "feasible")]),
    ("instantiation.instantiate", [("cli", "instantiate"),
                                   ("evaluation", "instantiate"),
                                   ("instantiation", "instantiate")]),
    ("evaluation.evaluate_task", [("evaluation", "evaluate_task")]),
    ("evaluation.instantiation_rate", [("evaluation", "instantiation_rate")]),
    ("evaluation.dedupe", [("evaluation", "dedupe")]),
    ("terms.alpha_equal", [("evaluation", "alpha_equal"), ("terms", "alpha_equal")]),
    ("terms.render_term", [("cli", "render_term")]),
    ("templates.abstract", [("evaluation", "abstract"), ("cli", "abstract")]),
    ("templates.parse_template", [("proposer", "parse_template"),
                                  ("cli", "parse_template")]),
    ("corpus.load_records", [("corpus", "load_records")]),
    ("corpus.load_signature", [("corpus", "load_signature")]),
    ("quickspec.enumerate_terms", [("quickspec", "enumerate_terms")]),
    ("quickspec.test_partition", [("quickspec", "test_partition")]),
    ("quickspec.emit_laws", [("quickspec", "emit_laws")]),
    ("quickspec.reverify_laws", [("quickspec", "reverify_laws")]),
    ("quickspec.find_counterexample", [("quickspec", "find_counterexample")]),
]

# Called too often for a span each: counted only.
COUNTS = [
    ("instantiation.resolve", [("instantiation", "resolve")]),
    ("quickspec.make_valuations", [("quickspec", "make_valuations")]),
    ("quickspec.is_instance_of", [("quickspec", "is_instance_of")]),
]

ROOT = "cli.main"
SPAN_NAMES = [ROOT] + [name for name, _ in SPANS]


def _result_facts(name: str, result, args) -> dict[str, float]:
    """Per-call outcome counters read off a traced call's result."""
    if name == "proposer.feasible" or name == "terms.alpha_equal":
        return {"true": float(bool(result))}
    if name == "instantiation.instantiate":
        return {"conjectures": float(len(result.conjectures)),
                "capped": float(result.capped),
                "timed_out": float(result.timed_out)}
    if name == "evaluation.dedupe":
        return {"in": float(len(args[0])), "removed": float(result[1])}
    if name == "quickspec.enumerate_terms":
        return {"terms": float(len(result))}
    if name == "quickspec.test_partition":
        return {"classes": float(len(result))}
    if name == "quickspec.emit_laws":
        return {"laws": float(len(result))}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.stack: list[int] = []
        self.counts: dict[str, list[int]] = {}
        self.facts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.missing: list[str] = []
        self.gc_s = 0.0
        self.gc_gen2 = 0
        self._gc_start = 0.0
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def span(self, name: str, fn):
        spans, stack, facts = self.spans, self.stack, self.facts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append((name, 0.0, 0.0, parent))
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            for key, value in _result_facts(name, result, args).items():
                facts[name][key] += value
            return result

        return traced

    def counter(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    # -- install / remove --------------------------------------------------

    def install(self) -> None:
        for kinds, make in ((SPANS, self.span), (COUNTS, self.counter)):
            for name, bindings in kinds:
                for mod_name, attr in bindings:
                    mod = importlib.import_module(f"lemmakit.{mod_name}")
                    original = getattr(mod, attr, None)
                    if original is None:
                        self.missing.append(f"lemmakit.{mod_name}.{attr}")
                        continue
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, make(name, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def call_root(self, fn, *args):
        return self.span(ROOT, fn)(*args)

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive ms, self ms and the per-call
        durations of evaluate_task; plus counters, outcome facts and GC."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        per_name: dict[str, dict] = {}
        task_ms: list[float] = []
        for i, (name, start, end, _) in enumerate(self.spans):
            agg = per_name.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            dur = end - start
            agg["calls"] += 1
            agg["ms"] += dur * 1000.0
            agg["self_ms"] += (dur - child_s[i]) * 1000.0
            if name == "evaluation.evaluate_task":
                task_ms.append(dur * 1000.0)
        if len(task_ms) > 1:
            per_name["evaluation.evaluate_task"]["p50_ms"] = statistics.median(task_ms)
            per_name["evaluation.evaluate_task"]["p90_ms"] = statistics.quantiles(task_ms, n=10)[8]
        return {
            "spans": per_name,
            "counts": {k: v[0] for k, v in self.counts.items()},
            "facts": {k: dict(v) for k, v in self.facts.items()},
            "gc_ms": self.gc_s * 1000.0,
            "gc_gen2_collections": self.gc_gen2,
            "missing": self.missing,
        }
