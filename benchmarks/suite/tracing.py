"""Layer tracing from outside the program: wrappers around repro's entry points.

The suite measures layers without editing ``src/``.  :class:`Tracer`
replaces the public entry points of each layer — functions in every module
namespace that imported them, methods on their classes — with wrappers
that record a span (name, start, end, parent span, operation id, thread)
and a few counts at the same boundary.  Spans live in memory; the run
writes them out once, as a Chrome ``trace_event`` file and a per-layer
self-time table.

A layer's *self* time is the time its spans cover minus the time covered
by their child spans, so the layers of one operation add up to the
operation's own span.  Timestamps come from ``time.perf_counter``, which
on Linux is ``CLOCK_MONOTONIC`` and therefore comparable across processes:
spans recorded inside a traced ``repro serve`` process merge onto the
load generator's timeline unchanged.

Counts are timestamped too, so the suite can split both spans and counts
into phases (set-up, the traced measurement) by time window alone.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import pickle
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: The suite's own span names: one per measured operation, one per loop
#: step (the operation plus the suite's bookkeeping around it), and the
#: cost of computing counts that need extra work (pickling a work unit,
#: stat-ing a journal record), kept apart so it never inflates a layer.
OP_SPAN = "suite.op"
STEP_SPAN = "suite.step"
COUNT_SPAN = "trace.count"


def layer_of(name: str) -> str:
    """The layer a span name belongs to: its first dotted component."""
    return name.split(".", 1)[0]


class Tracer:
    """Spans and counts for one process; records only while ``enabled``.

    A span is stored as ``[id, parent id, name, start, end, pid, thread,
    operation id]``; a count as ``(time, key, amount)``.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[list] = []
        self.count_events: List[Tuple[float, str, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any, Any]] = []

    # ------------------------------------------------------------- recording

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current_op(self) -> Optional[str]:
        return getattr(self._local, "op", None)

    @current_op.setter
    def current_op(self, value: Optional[str]) -> None:
        self._local.op = value

    def begin(self) -> Tuple[int, Optional[int], float]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def end(self, name: str, token: Tuple[int, Optional[int], float]) -> None:
        span_id, parent, start = token
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append([span_id, parent, name, start, end, os.getpid(),
                           threading.get_ident(), self.current_op])

    def span(self, name: str) -> "_SpanContext":
        """A span opened by the suite itself (recorded only while enabled)."""
        return _SpanContext(self, name)

    def count(self, key: str, amount: float = 1) -> None:
        if self.enabled:
            self.count_events.append((time.perf_counter(), key, amount))

    # -------------------------------------------------------------- patching

    def wrap(self, original: Callable, name: str,
             pre: Optional[Callable] = None,
             post: Optional[Callable] = None,
             when: Optional[Callable] = None) -> Callable:
        """``original`` with a span named ``name`` around each call.

        ``pre(args, kwargs)`` returns a token handed to
        ``post(args, kwargs, result, token)``, which records counts.
        ``when(args)`` false means this call is not a span at all.
        """
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled or (when is not None and not when(args)):
                return original(*args, **kwargs)
            token = pre(args, kwargs) if pre is not None else None
            span = tracer.begin()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(name, span)
            if post is not None:
                post(args, kwargs, result, token)
            return result

        return wrapper

    def patch_function(self, module_name: str, attr: str, name: str,
                       **hooks: Any) -> None:
        """Wrap a module-level function in every namespace that holds it."""
        module = importlib.import_module(module_name)
        original = module.__dict__[attr]
        wrapper = self.wrap(original, name, **hooks)
        for holder in list(sys.modules.values()):
            namespace = getattr(holder, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._patches.append((holder, key, original, wrapper))

    def patch_method(self, module_name: str, cls_name: str, attr: str,
                     name: str, **hooks: Any) -> None:
        """Wrap one method defined on one class."""
        cls = getattr(importlib.import_module(module_name), cls_name)
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original,
                              self.wrap(original, name, **hooks)))

    def install(self) -> None:
        for holder, key, _original, wrapper in self._patches:
            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original, _wrapper in self._patches:
            setattr(holder, key, original)

    # ---------------------------------------------------------------- export

    def dump(self, path: str) -> None:
        """Spans and counts as JSON (the traced server's exit artifact)."""
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": self.count_events},
                      handle)

    def absorb(self, path: str) -> None:
        """Merge another process's :meth:`dump` onto this timeline.

        Span ids are renumbered past this tracer's own so parents resolve.
        """
        with open(path) as handle:
            doc = json.load(handle)
        offset = max((span[0] for span in self.spans), default=0)
        for span in doc["spans"]:
            span[0] += offset
            if span[1] is not None:
                span[1] += offset
            self.spans.append(span)
        self.count_events.extend(tuple(event) for event in doc["counts"])


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name
        self._token: Optional[Tuple[int, Optional[int], float]] = None

    def __enter__(self) -> "_SpanContext":
        if self._tracer.enabled:
            self._token = self._tracer.begin()
        return self

    def __exit__(self, *exc: Any) -> None:
        if self._token is not None:
            self._tracer.end(self._name, self._token)


# ------------------------------------------------------------ entry points

def install_layer_wrappers(tracer: Tracer) -> Tracer:
    """Register the wrappers for every layer the suite reports.

    Every module named here is imported first, so each ``from x import f``
    copy of a wrapped function is found and patched too.  Call
    :meth:`Tracer.install` to activate them.
    """
    count = tracer.count

    def events_before(args, kwargs):
        return args[0].events_propagated

    def events_after(key):
        def post(args, kwargs, result, before):
            count(key, args[0].events_propagated - before)
        return post

    def engine_after(args, kwargs, result, token):
        count("engine.patterns", result.n_patterns)
        count("exec.retries", result.retries)
        count("journal.rounds_resumed", result.rounds_resumed)
        if result.executor != "serial" and result.jobs > 0:
            count("exec.worker_s", sum(s.wall_time for s in result.shards))
            count("exec.worker_s_per_job",
                  sum(s.wall_time for s in result.shards) / result.jobs)

    def unit_bytes(args, kwargs, result, token):
        with tracer.span(COUNT_SPAN):
            count("exec.unit_bytes", len(pickle.dumps(args[1])))

    def journal_bytes(args, kwargs, result, token):
        store, shard, round_index = args[0], args[1], args[2]
        with tracer.span(COUNT_SPAN):
            try:
                size = os.path.getsize(store._record_path(shard, round_index))
            except OSError:
                size = 0
            count("journal.bytes", size)

    def podem_after(args, kwargs, result, token):
        count("atpg.backtracks", result.backtracks)
        if result.status.value == "aborted":
            count("atpg.aborted")

    def spawning(args):
        return args[0]._executor is None

    def job_op(args, kwargs):
        tracer.current_op = args[1].id

    for module in ("repro.engine", "repro.exec", "repro.experiments.table2",
                   "repro.serve.app", "repro.lint.runner", "repro.atpg.podem",
                   "repro.datapath.filters", "repro.library.scenarios",
                   "repro.engine.vec", "repro.engine.checkpoint"):
        importlib.import_module(module)

    for builder in ("c3a2m_kernel", "mac4_kernel", "figure4_kernel",
                    "figure9_kernel", "synth20k_kernel"):
        tracer.patch_function("repro.library.scenarios", builder,
                              "library.build")
    tracer.patch_function("repro.datapath.filters", "all_filters",
                          "library.build")
    tracer.patch_function("repro.faultsim.collapse", "collapse_faults",
                          "faultsim.collapse")
    tracer.patch_function("repro.lint.runner", "preflight_netlist",
                          "lint.preflight")
    tracer.patch_method("repro.engine.cache", "GoldenBatches", "golden_batch",
                        "golden.batch")
    tracer.patch_method("repro.netlist.evaluate", "Evaluator", "run",
                        "golden.eval")
    tracer.patch_method("repro.faultsim.simulator", "FaultSimulator",
                        "simulate_batch", "packed.batch",
                        pre=events_before, post=events_after("packed.events"))
    tracer.patch_method("repro.engine.vec", "VecFaultSimulator",
                        "simulate_batch", "vec.batch",
                        pre=events_before, post=events_after("vec.lane_evals"))
    tracer.patch_method("repro.engine.vec", "CompiledVecNetlist", "__init__",
                        "vec.compile")
    tracer.patch_function("repro.engine.core", "simulate", "engine.simulate",
                          post=engine_after)
    tracer.patch_method("repro.exec.process", "ProcessExecutor", "start",
                        "exec.start")
    tracer.patch_method("repro.exec.process", "_WorkerPool", "submit",
                        "exec.spawn", when=spawning)
    tracer.patch_method("repro.exec.process", "ProcessExecutor",
                        "submit_round", "exec.submit", post=unit_bytes)
    tracer.patch_method("repro.exec.driver", "RoundDriver", "execute_round",
                        "exec.round")
    tracer.patch_method("repro.engine.checkpoint", "CheckpointStore", "record",
                        "journal.record", post=journal_bytes)
    tracer.patch_method("repro.engine.checkpoint", "CheckpointStore", "load",
                        "journal.load")
    tracer.patch_function("repro.atpg.podem", "classify_faults",
                          "atpg.classify")
    tracer.patch_function("repro.atpg.podem", "podem", "atpg.podem",
                          post=podem_after)
    tracer.patch_function("repro.core.bibs", "make_bibs_testable", "flow.tdm")
    tracer.patch_function("repro.core.ka85", "make_ka_testable", "flow.tdm")
    for attr in ("compare_tdms", "evaluate_design", "lower_kernel_to_netlist"):
        tracer.patch_function("repro.core.flow", attr, "flow.run")
    for attr in ("table2_columns", "measure_circuit"):
        tracer.patch_function("repro.experiments.table2", attr, "flow.run")
    tracer.patch_method("repro.serve.app", "BistService", "_prepare",
                        "serve.prepare")
    tracer.patch_method("repro.serve.app", "BistService", "_execute",
                        "serve.execute", pre=job_op)
    tracer.patch_method("repro.serve.app", "BistService", "_progress",
                        "serve.progress")
    return tracer


# ---------------------------------------------------------------- analysis

class SpanIndex:
    """Spans and counts restricted to one time window, with self times."""

    def __init__(self, spans: Iterable[list],
                 count_events: Iterable[Tuple[float, str, float]],
                 window: Tuple[float, float]):
        start, end = window
        self.window = window
        self.spans = [s for s in spans if start <= s[3] <= end]
        self.counts: Dict[str, float] = defaultdict(float)
        for stamp, key, amount in count_events:
            if start <= stamp <= end:
                self.counts[key] += amount
        by_id = {s[0]: s for s in self.spans}
        self._child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[1] in by_id:
                self._child_time[span[1]] += span[4] - span[3]
        self._names = {s[0]: s[2] for s in self.spans}

    def self_time(self, span: list) -> float:
        return (span[4] - span[3]) - self._child_time.get(span[0], 0.0)

    def busy(self, name: str) -> float:
        """Time covered by ``name`` spans, counting re-entrant calls once."""
        return sum(s[4] - s[3] for s in self.spans
                   if s[2] == name and self._names.get(s[1]) != name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[2] == name)

    def self_total(self, names: Iterable[str]) -> float:
        wanted = set(names)
        return sum(self.self_time(s) for s in self.spans if s[2] in wanted)

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per-layer self seconds and span counts."""
        table: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            row = table.setdefault(layer_of(span[2]),
                                   {"self_s": 0.0, "spans": 0})
            row["self_s"] += self.self_time(span)
            row["spans"] += 1
        return table

    def nesting_errors(self) -> List[str]:
        """Spans that do not lie inside their parent's interval."""
        by_id = {s[0]: s for s in self.spans}
        errors = []
        for span in self.spans:
            parent = by_id.get(span[1])
            if parent is None:
                continue
            if (span[3] < parent[3] or span[4] > parent[4]
                    or span[5:7] != parent[5:7]):
                errors.append(f"{span[2]}#{span[0]} escapes {parent[2]}#{parent[0]}")
        return errors


def write_chrome_trace(path: str, index: SpanIndex, wall: float,
                       meta: Dict[str, Any]) -> None:
    """The window's spans as a Chrome ``trace_event`` file (open in Perfetto).

    The per-layer self-time table rides along under ``"layers"``, a key
    trace viewers ignore.
    """
    origin = min((s[3] for s in index.spans), default=0.0)
    events = [{
        "name": span[2],
        "cat": layer_of(span[2]),
        "ph": "X",
        "ts": (span[3] - origin) * 1e6,
        "dur": (span[4] - span[3]) * 1e6,
        "pid": span[5],
        "tid": span[6],
        "args": {"id": span[0], "parent": span[1], "op": span[7]},
    } for span in index.spans]
    with open(path, "w") as handle:
        json.dump({
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "layers": index.layers(),
            "wall_s": wall,
            "meta": meta,
        }, handle)
