"""Outside-in layer tracing for the traced benchmark run.

The program has no spans in most layers yet, so the benchmark wraps the
public callables the program looks up at call time and opens one
:class:`repro.obs.SpanTracer` span around each call.  A function is
wrapped in every loaded ``repro.*`` module that binds it (a caller
that did ``from ..metrics import completeness_curve`` looks the name up
in its own module), and a method is wrapped on its class.  Spans nest,
so a layer's self time is its span's duration minus its wrapped
children's.  Spans are written in the ``repro.trace`` v1 JSON-lines
schema with :func:`repro.obs.write_trace` and read back with
:func:`repro.obs.read_trace_file`.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from typing import Dict, Tuple

#: (span name, module, function name): module-level functions.
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("store.load_snapshot", "repro.store.reader", "load_snapshot"),
    ("series.load_series", "repro.series.reader", "load_series"),
    ("metrics.completeness_curve", "repro.metrics.ranking",
     "completeness_curve"),
    ("metrics.dep_semantics_ablation", "repro.metrics.ablation",
     "dep_semantics_ablation"),
    ("metrics.weighted_completeness", "repro.metrics.completeness",
     "weighted_completeness"),
    ("metrics.missing_apis_report", "repro.metrics.completeness",
     "missing_apis_report"),
    ("compat.coverage_plan", "repro.compat.advisor", "coverage_plan"),
    ("compat.workload_suggestions", "repro.compat.advisor",
     "workload_suggestions"),
    ("compat.evaluate_system", "repro.compat.systems", "evaluate_system"),
    ("metrics.importance_trend", "repro.metrics.trends",
     "importance_trend"),
    ("metrics.completeness_trend", "repro.metrics.trends",
     "completeness_trend"),
    ("metrics.release_diff", "repro.metrics.trends", "release_diff"),
    ("serve.encode", "repro.serve.app", "canonical_json"),
)

#: (span name, module, class, method): methods wrapped on the class
#: that defines them (``SnapshotDataset`` overrides ``masks``).
METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("dataset.masks", "repro.dataset.core", "Dataset", "masks"),
    ("dataset.masks", "repro.store.reader", "SnapshotDataset", "masks"),
    ("dataset.users_index", "repro.dataset.core", "Dataset",
     "users_index"),
    ("dataset.importance_table", "repro.dataset.core", "Dataset",
     "importance_table"),
    ("dataset.usage_table", "repro.dataset.core", "Dataset",
     "usage_table"),
    ("dataset.condensed_graph", "repro.dataset.core", "Dataset",
     "condensed_graph"),
    ("dataset.stats", "repro.dataset.core", "Dataset", "stats"),
    ("series.at", "repro.series.reader", "DatasetSeries", "at"),
    ("serve.handle", "repro.serve.app", "ServeApp", "handle"),
    ("serve.resolve", "repro.serve.snapshot", "SnapshotRegistry",
     "resolve"),
)

#: Every span name the benchmark records, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    [name for name, *_ in FUNCTIONS] + [name for name, *_ in METHODS]))


class LayerTracer:
    """Owns the tracer the wrappers record into.

    :meth:`reset` swaps in a fresh :class:`repro.obs.SpanTracer`, so a
    pass that is not measured (an extra set-up, a warm-up) leaves no
    spans behind.
    """

    def __init__(self) -> None:
        from repro.obs import SpanTracer
        self._factory = SpanTracer
        self.tracer = SpanTracer()

    def reset(self) -> None:
        self.tracer = self._factory()

    def spans(self):
        return self.tracer.finished()

    def _wrap(self, name: str, fn):
        owner = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with owner.tracer.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every target in this process.  Import the program
        before calling this, so every module that binds a target is
        already loaded."""
        for name, module_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            traced = self._wrap(name, original)
            for module_key, module in list(sys.modules.items()):
                if not module_key.startswith("repro") or module is None:
                    continue
                if getattr(module, attr, None) is original:
                    setattr(module, attr, traced)
        for name, module_name, class_name, attr in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            setattr(cls, attr, self._wrap(name, cls.__dict__[attr]))


def self_times(spans) -> Tuple[Dict[str, float], Counter, float]:
    """Per-name self seconds, per-name call counts, and the summed
    duration of root spans (the wall time the wrapped layers cover)."""
    children: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id] += span.seconds
    own: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    covered = 0.0
    for span in spans:
        own[span.name] += max(0.0, span.seconds - children[span.span_id])
        calls[span.name] += 1
        if span.parent_id is None:
            covered += span.seconds
    return dict(own), calls, covered


def summarize_trace(path) -> Dict[str, object]:
    """Read a written trace back and reduce it to layer self times."""
    from repro.obs import read_trace_file
    _, spans = read_trace_file(path)
    own, calls, covered = self_times(spans)
    handle_total = sum(span.seconds for span in spans
                       if span.name == "serve.handle")
    return {"self_s": own, "calls": dict(calls), "covered_s": covered,
            "handle_total_s": handle_total, "spans": len(spans)}

