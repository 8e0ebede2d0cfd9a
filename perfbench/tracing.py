"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's own files only: a traced run swaps
the classes of the objects the benchmark builds (protocol, predicate,
recorders, store) for instrumented subclasses and replaces the module-level
names the library resolves at call time (``Simulation`` and
``resolve_engine`` in ``repro.engine.simulation``, ``run_protocol`` and
``resolve_engine`` in the sweep scheduler; see ``instrument.py``).  Nothing
under ``src/`` is modified.

A span is ``{id, parent, name, start, end, thread, attrs}``; spans of one
workload call share the call's root span as their ancestor.  A layer's self
time is its span's duration minus its child spans' durations, minus the
aggregated time of the cheap per-call counters (``protocol.transition``)
attributed to it.  Every ``*_s`` layer metric is such a self time, so the
layer times plus ``trace.unattributed_s`` add up to the traced wall time.

The tracer keeps one span stack: every workload makes its calls on the main
thread (the sweep runs serially), and the compiled kernels' own threads
never call back into Python.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional

#: Per-layer metrics every traced run reports, with their units.
LAYER_METRICS = {
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
    "dispatch.resolve_s": "s",
    "dispatch.resolves": "count",
    "dispatch.fastbatch_runs": "count",
    "dispatch.countbatch_runs": "count",
    "closure.bfs_s": "s",
    "closure.states": "count",
    "closure.transition_calls": "count",
    "table.compile_s": "s",
    "table.transition_calls": "count",
    "table.transition_s": "s",
    "table.compiled_pairs": "count",
    "simulation.construct_s": "s",
    "simulation.run_other_self_s": "s",
    "fast_batch.self_s": "s",
    "count_batch.self_s": "s",
    "convergence.checks": "count",
    "convergence.predicate_s": "s",
    "monitor.records": "count",
    "monitor.record_s": "s",
    "io.checkpoint_writes": "count",
    "io.checkpoint_bytes": "bytes",
    "io.checkpoint_s": "s",
    "parallel.cells": "count",
    "parallel.workers": "count",
    "parallel.cell_wall_sum_s": "s",
    "parallel.efficiency": "ratio",
    "parallel.scheduler_s": "s",
    "parallel.cell_overhead_s": "s",
    "store.writes": "count",
    "store.write_s": "s",
    "store.bytes": "bytes",
    "store.reads": "count",
    "store.read_s": "s",
}

#: Span name -> (self-time metric, count metric) for the plain layers.
_SPAN_LAYERS = {
    "dispatch.resolve": ("dispatch.resolve_s", "dispatch.resolves"),
    "closure.bfs": ("closure.bfs_s", None),
    "table.compile": ("table.compile_s", None),
    "simulation.construct": ("simulation.construct_s", None),
    "convergence.predicate": ("convergence.predicate_s", "convergence.checks"),
    "monitor.record": ("monitor.record_s", "monitor.records"),
    "io.checkpoint": ("io.checkpoint_s", "io.checkpoint_writes"),
    "parallel.run_many": ("parallel.scheduler_s", None),
    "parallel.cell": ("parallel.cell_overhead_s", None),
    "store.write": ("store.write_s", "store.writes"),
    "store.read": ("store.read_s", "store.reads"),
    "call": ("trace.unattributed_s", None),
}

#: Engine registry name -> kernel self-time metric of its run spans.
_ENGINE_LAYERS = {
    "fastbatch": ("fast_batch.self_s", "dispatch.fastbatch_runs"),
    "countbatch": ("count_batch.self_s", "dispatch.countbatch_runs"),
}


class Tracer:
    """Collects spans and counters for one workload process."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[dict] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, **attrs):
        """Record ``name`` around the body; yields the span's attrs dict."""
        record = {
            "id": next(self._ids),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "thread": threading.get_ident(),
            "attrs": attrs,
            "inner_s": 0.0,
        }
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def add_timed(self, name: str, seconds: float) -> None:
        """Count one cheap call of ``name`` taking ``seconds``.

        The time is charged to the innermost open span, so it is taken out
        of that span's self time like a child span would be.
        """
        self.counters[name + "_calls"] += 1
        self.counters[name + "_s"] += seconds
        if self._stack:
            self._stack[-1]["inner_s"] += seconds

    def add(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def reset(self) -> None:
        """Drop the spans and counters recorded so far."""
        self.spans = []
        self.counters = defaultdict(float)


def self_times(spans: List[dict]) -> None:
    """Annotate every span with its ``self_s`` (in place)."""
    children_s: Dict[Optional[int], float] = defaultdict(float)
    for span in spans:
        children_s[span["parent"]] += span["end"] - span["start"]
    for span in spans:
        span["self_s"] = (
            span["end"] - span["start"] - children_s[span["id"]] - span["inner_s"]
        )


def layer_metrics(
    spans: List[dict], counters: Dict[str, float], compiled_pairs: int
) -> Dict[str, float]:
    """Per-layer metrics of one traced call (spans must carry ``self_s``)."""
    metrics = {name: 0.0 for name in LAYER_METRICS}
    metrics["trace.spans"] = float(len(spans))
    cell_threads = set()
    makespan = 0.0
    for span in spans:
        name = span["name"]
        attrs = span["attrs"]
        if name == "simulation.run":
            self_metric, runs_metric = _ENGINE_LAYERS.get(
                attrs.get("engine"), ("simulation.run_other_self_s", None)
            )
            metrics[self_metric] += span["self_s"]
            if runs_metric is not None:
                metrics[runs_metric] += 1
            continue
        if name not in _SPAN_LAYERS:
            continue
        self_metric, count_metric = _SPAN_LAYERS[name]
        metrics[self_metric] += span["self_s"]
        if count_metric is not None:
            metrics[count_metric] += 1
        if name == "closure.bfs":
            metrics["closure.states"] = max(
                metrics["closure.states"], float(attrs.get("states", 0))
            )
        elif name == "io.checkpoint":
            metrics["io.checkpoint_bytes"] += attrs.get("bytes", 0)
        elif name == "store.write":
            metrics["store.bytes"] += attrs.get("bytes", 0)
        elif name == "parallel.cell":
            metrics["parallel.cells"] += 1
            metrics["parallel.cell_wall_sum_s"] += span["end"] - span["start"]
            cell_threads.add(span["thread"])
        elif name == "parallel.run_many" and attrs.get("pass") == "fresh":
            makespan += span["end"] - span["start"]
    metrics["table.transition_calls"] = counters.get("table.transition_calls", 0.0)
    metrics["table.transition_s"] = counters.get("table.transition_s", 0.0)
    metrics["closure.transition_calls"] = counters.get("closure.transition_calls", 0.0)
    metrics["table.compiled_pairs"] = float(compiled_pairs)
    if metrics["parallel.cells"]:
        workers = float(len(cell_threads))
        metrics["parallel.workers"] = workers
        if makespan > 0:
            metrics["parallel.efficiency"] = metrics["parallel.cell_wall_sum_s"] / (
                workers * makespan
            )
    return metrics
