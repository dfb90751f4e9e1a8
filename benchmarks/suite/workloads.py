"""The suite's workloads and the measuring side of one run.

Each workload turns ``--seed`` into its inputs, sets itself up, runs one
kind of operation in a closed loop (or, for ``serve-mix``, an open loop)
for a fixed time, and records a digest of every output so the run can be
checked against references.  :func:`measure` is the body of one measuring
subprocess: set-up, the timed phase(s), peak memory, then verification.

A digest is the sha256 of the sorted ``(fault key, first detection)``
pairs plus ``n_patterns`` (Table 2 digests its column tuples).  References
come from the serial ``packed`` ``jobs=1`` path: committed in
``references.json`` for the default seed, computed after the timed phase
for any other seed.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import os
import random
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.engine import simulate
from repro.exec import CheckpointPolicy, ExecutionPolicy, RunConfig
from repro.exec.worker import fault_key
from repro.faultsim.collapse import collapse_faults
from repro.faultsim.patterns import RandomPatternSource
from repro.library import scenarios

from hostspeed import HostSpeed
from tracing import (
    OP_SPAN,
    STEP_SPAN,
    SpanIndex,
    Tracer,
    install_layer_wrappers,
)

#: Patterns per design in a set-up warm-up run: enough to touch every
#: code path of a run once, small enough to keep set-up short.
WARMUP_PATTERNS = 1024

#: The reference path every other path must reproduce bit for bit.
REFERENCE_EXECUTION = ExecutionPolicy(executor="serial", jobs=1,
                                      kernel="packed")


# ----------------------------------------------------------------- digests

def pairs_digest(pairs: List[Tuple[Tuple[int, ...], int]],
                 n_patterns: Optional[int]) -> str:
    return hashlib.sha256(
        repr((sorted(pairs), n_patterns)).encode()).hexdigest()


def result_digest(result, keep: Optional[Set[Any]] = None) -> str:
    """Digest of an engine result; with ``keep``, of those faults only.

    A restricted digest leaves out ``n_patterns``, which depends on the
    whole fault list (the run stops once every fault is detected).
    """
    pairs = [(fault_key(f), p) for f, p in result.first_detection.items()
             if keep is None or f in keep]
    return pairs_digest(pairs, result.n_patterns if keep is None else None)


def payload_digest(payload: Dict[str, Any]) -> str:
    """Digest of a ``kind: faultsim`` JSON payload with its fault table."""
    pairs = [((entry["net"], entry["stuck_at"],
               -1 if entry["gate_index"] is None else entry["gate_index"],
               -1 if entry["pin"] is None else entry["pin"]),
              entry["pattern"])
             for entry in payload["first_detection"]]
    return pairs_digest(pairs, payload["n_patterns"])


def run_engine(netlist, faults, seed: int, config: RunConfig):
    source = RandomPatternSource(len(netlist.primary_inputs), seed=seed)
    return simulate(netlist, faults, source, config=config)


def reference_digest(netlist, faults, seed: int, patterns: int,
                     keep: Optional[Set[Any]] = None) -> str:
    config = RunConfig(execution=REFERENCE_EXECUTION, max_patterns=patterns)
    sim_faults = faults if keep is None else [f for f in faults if f in keep]
    return result_digest(run_engine(netlist, sim_faults, seed, config), keep)


def build_design(name: str):
    netlist = getattr(scenarios, name)()
    faults, _ = collapse_faults(netlist)
    return netlist, faults


# ------------------------------------------------------------ measurements

@dataclass
class Phase:
    """What one timed phase produced."""

    latencies_ms: List[float] = field(default_factory=list)
    #: (start, end) perf_counter times of each latency sample, for its
    #: host slowdown
    windows: List[Tuple[float, float]] = field(default_factory=list)
    #: what each sample measured (a circuit), for :func:`stats.grouped_median`
    groups: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: (start, end) perf_counter times of the phase
    window: Tuple[float, float] = (0.0, 0.0)
    checks: Dict[str, Set[str]] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)
    extras: Dict[str, float] = field(default_factory=dict)
    #: the sampler of the process that ran the operations, when that is
    #: not the measuring process (the service, for ``serve-mix``)
    speed: Optional[HostSpeed] = None

    @property
    def wall_s(self) -> float:
        return self.window[1] - self.window[0]

    def add(self, start: float, end: float, group: str = "",
            latency_ms: Optional[float] = None) -> None:
        """One sample over ``[start, end]``: its length, unless the
        operation's time was measured another way (``latency_ms``)."""
        if latency_ms is None:
            latency_ms = (end - start) * 1e3
        self.latencies_ms.append(latency_ms)
        self.windows.append((start, end))
        self.groups.append(group)

    def check(self, check_id: str, digest: str) -> None:
        self.checks.setdefault(check_id, set()).add(digest)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)


class OpTimer:
    """Times the measured part of one operation, inside its op span.

    An operation sets ``group`` when the workload cycles through
    operations of different cost (see :func:`stats.grouped_median`).
    """

    def __init__(self, tracer: Tracer, op_id: str):
        self._tracer = tracer
        self._op_id = op_id
        self._span = tracer.span(OP_SPAN)
        self.start = self.end = 0.0
        self.group = ""

    def __enter__(self) -> "OpTimer":
        self._tracer.current_op = self._op_id
        self._span.__enter__()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.end = time.perf_counter()
        self._span.__exit__(*exc)


class Workload:
    """Inputs from a seed, a set-up, one operation, and its references."""

    name = ""
    #: How an operation's time grows with the host-speed probe's, in log
    #: terms (see :mod:`hostspeed`): 1 for interpreted Python, which slows
    #: down exactly as the probe's Python loop does.
    elasticity = 1.0

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        #: check id -> thunk computing that check's reference digest
        self.references: Dict[str, Callable[[], str]] = {}

    def draw_seeds(self, count: int) -> List[int]:
        return [self.rng.randrange(1, 1 << 31) for _ in range(count)]

    def case_id(self, design: str, seed: int, patterns: int) -> str:
        return f"{self.name}/{design}/{seed}/{patterns}"

    def record(self, phase: Phase, check_id: str, digest: str,
               reference: Callable[[], str]) -> None:
        phase.check(check_id, digest)
        self.references.setdefault(check_id, reference)

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int, timer: OpTimer, phase: Phase) -> None:
        raise NotImplementedError

    def ratio_case(self):
        """``(netlist, faults, seed, patterns)`` for ``vec.useful_ratio``."""
        raise NotImplementedError

    def run_phase(self, seconds: float, tracer: Tracer) -> Phase:
        """Closed loop: one caller, the next operation after the last.

        An operation is not started when the median so far says it would
        end past ``seconds``, so a phase never overruns by a whole slow op.
        """
        phase = Phase()
        start = time.perf_counter()
        index = 0
        while True:
            elapsed = time.perf_counter() - start
            if phase.latencies_ms:
                expected = statistics.median(phase.latencies_ms) / 1e3
                if elapsed + expected > seconds:
                    break
            elif index and elapsed > seconds:
                break
            timer = OpTimer(tracer, f"op{index}")
            phase.attempted += 1
            # The step span holds the op span plus the suite's own work
            # (digests), so the layers add up to the phase.
            with tracer.span(STEP_SPAN):
                try:
                    self.op(index, timer, phase)
                except Exception as error:  # noqa: BLE001 - counted, not fatal
                    phase.fail(f"op {index}: {type(error).__name__}: {error}")
                else:
                    phase.add(timer.start, timer.end, timer.group)
            index += 1
        phase.window = (start, time.perf_counter())
        return phase

    def run_traced(self, seconds: float, tracer: Tracer
                   ) -> Tuple[Phase, Phase, Optional[Tuple[float, float]]]:
        """An untraced half, then a traced half; returns both, and the
        window of a set-up redone for the traced half (None: no redo)."""
        tracer.enabled = False
        tracer.uninstall()
        plain = self.run_phase(seconds / 2, tracer)
        tracer.install()
        tracer.enabled = True
        traced = self.run_phase(seconds / 2, tracer)
        tracer.enabled = False
        return plain, traced, None

    def useful_ratio(self) -> float:
        """Packed events / vec lane evaluations on one representative run."""
        netlist, faults, seed, patterns = self.ratio_case()
        events = {}
        for kernel in ("packed", "vec"):
            config = RunConfig(execution=ExecutionPolicy(kernel=kernel),
                               max_patterns=patterns)
            events[kernel] = run_engine(netlist, faults, seed,
                                        config).events_propagated
        return events["packed"] / events["vec"] if events["vec"] else 0.0

    def close(self) -> None:
        """Stop anything the workload started."""


# ---------------------------------------------------------------- workloads

class Table2(Workload):
    """The paper's experiment: one circuit's Table 2 column per operation.

    Operations alternate between c5a2m and c4a4m.  c3a2m is left out: its
    column alone, nearly all of it PODEM, takes longer than a timed phase.
    """

    name = "table2"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        super().__init__(seed, smoke, workdir)
        self.circuits = ("c4a4m",) if smoke else ("c5a2m", "c4a4m")
        self.patterns = 1 << 14
        self.stream_seed = self.draw_seeds(1)[0]
        self.verdicts: Dict[str, Dict[str, str]] = {}

    def setup(self) -> None:
        from repro.atpg import podem  # noqa: F401  (imported lazily by flow)
        from repro.core.bibs import make_bibs_testable
        from repro.core.ka85 import make_ka_testable
        from repro.datapath.filters import all_filters
        from repro.graph.build import build_circuit_graph

        compiled = all_filters()
        for circuit in self.circuits:
            graph = build_circuit_graph(compiled[circuit].circuit)
            make_bibs_testable(graph)
            make_ka_testable(graph)

    def op(self, index: int, timer: OpTimer, phase: Phase) -> None:
        from repro.experiments.table2 import measure_circuit

        circuit = self.circuits[index % len(self.circuits)]
        timer.group = circuit
        with timer:
            column = measure_circuit(circuit, self.patterns, self.stream_seed,
                                     1, config=RunConfig())
        self.record(
            phase,
            self.case_id(circuit, self.stream_seed, self.patterns) + "#full",
            column_digest(column),
            functools.partial(self.reference_column, circuit),
        )

    def reference_column(self, circuit: str) -> str:
        """The column on the packed path, with committed ATPG verdicts.

        PODEM classifies the same redundant faults whatever the pattern
        seed, and costs most of a pass, so the reference reads verdicts
        recorded when the references were generated and runs PODEM only
        for faults the record does not cover (recording those too).
        """
        from repro.experiments.table2 import measure_circuit

        podem = importlib.import_module("repro.atpg.podem")
        live = podem.classify_faults
        verdicts = self.verdicts

        def classify(netlist, faults, max_backtracks=5000):
            table = verdicts.setdefault(netlist.fingerprint(), {})
            unknown = [f for f in faults if verdict_key(f) not in table]
            redundant, tests, aborted = live(netlist, unknown, max_backtracks)
            for group, verdict in ((redundant, "redundant"), (tests, "detected"),
                                   (aborted, "aborted")):
                for fault in group:
                    table[verdict_key(fault)] = verdict
            redundant, tests, aborted = [], {}, []
            for fault in faults:
                verdict = table[verdict_key(fault)]
                if verdict == "redundant":
                    redundant.append(fault)
                elif verdict == "aborted":
                    aborted.append(fault)
                else:
                    tests[fault] = {}
            return redundant, tests, aborted

        podem.classify_faults = classify
        try:
            column = measure_circuit(
                circuit, self.patterns, self.stream_seed, 1,
                config=RunConfig(execution=REFERENCE_EXECUTION))
        finally:
            podem.classify_faults = live
        return column_digest(column)

    def ratio_case(self):
        netlist, faults = build_design("c3a2m_kernel")
        return netlist, faults, self.stream_seed, self.patterns


def column_digest(column) -> str:
    return hashlib.sha256(
        repr(dataclasses.astuple(column)).encode()).hexdigest()


def verdict_key(fault) -> str:
    return ":".join(str(part) for part in fault_key(fault))


class TailSweep(Workload):
    """Long random sweeps over tiny live fault sets, serial, auto kernel."""

    name = "tail-sweep"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        super().__init__(seed, smoke, workdir)
        self.designs = (("mac4_kernel", "figure4_kernel") if smoke else
                        ("c3a2m_kernel", "mac4_kernel", "figure4_kernel",
                         "figure9_kernel"))
        self.patterns = 1 << (12 if smoke else 16)
        self.pool = self.draw_seeds(2 if smoke else 4)

    def setup(self) -> None:
        self.circuits = {name: build_design(name) for name in self.designs}
        warmup = RunConfig(max_patterns=WARMUP_PATTERNS)
        for netlist, faults in self.circuits.values():
            run_engine(netlist, faults, self.pool[0], warmup)

    def op(self, index: int, timer: OpTimer, phase: Phase) -> None:
        seed = self.pool[index % len(self.pool)]
        config = RunConfig(max_patterns=self.patterns)
        with timer:
            results = [run_engine(netlist, faults, seed, config)
                       for netlist, faults in self.circuits.values()]
        for (name, (netlist, faults)), result in zip(self.circuits.items(),
                                                     results):
            self.record(
                phase, self.case_id(name, seed, self.patterns) + "#full",
                result_digest(result),
                functools.partial(reference_digest, netlist, faults, seed,
                                  self.patterns),
            )

    def ratio_case(self):
        name = self.designs[0]
        netlist, faults = self.circuits[name]
        return netlist, faults, self.pool[0], self.patterns


class WideVec(Workload):
    """One golden batch, thousands of vec lanes on a 21k-gate netlist."""

    name = "wide-vec"
    #: Most of an operation runs in NumPy kernels, which a busy host slows
    #: less than it slows the interpreter: in three sets of eight or ten
    #: runs, the log of the median operation time rose 0.56, 0.68 and 0.88
    #: times as fast as the probe's; 0.7 is about their mean.
    elasticity = 0.7

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        super().__init__(seed, smoke, workdir)
        self.stride = 200 if smoke else 20
        self.patterns = 256 if smoke else 1024
        self.pool = self.draw_seeds(1 if smoke else 3)

    def setup(self) -> None:
        netlist, faults = build_design("synth20k_kernel")
        self.netlist = netlist
        self.faults = faults[::self.stride]
        #: Every tenth fault: the slice the packed reference re-simulates
        #: for seeds without committed references (all of it takes ~8 s).
        self.sample = set(self.faults[::10])
        run_engine(netlist, self.faults[:64], self.pool[0], self.config(256))

    def config(self, patterns: int) -> RunConfig:
        return RunConfig(execution=ExecutionPolicy(kernel="vec"),
                         max_patterns=patterns)

    def op(self, index: int, timer: OpTimer, phase: Phase) -> None:
        seed = self.pool[index % len(self.pool)]
        with timer:
            result = run_engine(self.netlist, self.faults, seed,
                                self.config(self.patterns))
        case = self.case_id("synth20k_kernel", seed, self.patterns)
        self.record(phase, case + "#full", result_digest(result),
                    functools.partial(reference_digest, self.netlist,
                                      self.faults, seed, self.patterns))
        self.record(phase, case + "#sample",
                    result_digest(result, self.sample),
                    functools.partial(reference_digest, self.netlist,
                                      self.faults, seed, self.patterns,
                                      self.sample))

    def ratio_case(self):
        return self.netlist, sorted(self.sample, key=fault_key), \
            self.pool[0], self.patterns


class ShardJournal(Workload):
    """Two-process sharded runs that journal every round, then resume."""

    name = "shard-journal"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        super().__init__(seed, smoke, workdir)
        self.patterns = 1 << (12 if smoke else 16)
        self.pool = self.draw_seeds(2 if smoke else 8)
        self.journal = workdir / "journal"

    def config(self, patterns: int, journal: Path) -> RunConfig:
        return RunConfig(
            execution=ExecutionPolicy(jobs=2, executor="process"),
            checkpoint=CheckpointPolicy(directory=str(journal), resume=True),
            max_patterns=patterns,
        )

    def setup(self) -> None:
        self.netlist, self.faults = build_design("c3a2m_kernel")
        warmup = self.workdir / "warmup-journal"
        run_engine(self.netlist, self.faults, self.pool[0],
                   self.config(WARMUP_PATTERNS, warmup))
        shutil.rmtree(warmup, ignore_errors=True)

    def op(self, index: int, timer: OpTimer, phase: Phase) -> None:
        seed = self.pool[index % len(self.pool)]
        config = self.config(self.patterns, self.journal)
        shutil.rmtree(self.journal, ignore_errors=True)
        with timer:
            written = run_engine(self.netlist, self.faults, seed, config)
            resumed = run_engine(self.netlist, self.faults, seed, config)
        case = self.case_id("c3a2m_kernel", seed, self.patterns)
        digest = result_digest(written)
        if result_digest(resumed) != digest or resumed.rounds_resumed == 0:
            phase.mismatches.append(
                f"{self.name}: design c3a2m_kernel, seed {seed}: the resume "
                f"run (rounds resumed {resumed.rounds_resumed}) differs from "
                "its writing run")
        self.record(phase, case + "#full", digest,
                    functools.partial(reference_digest, self.netlist,
                                      self.faults, seed, self.patterns))

    def ratio_case(self):
        return self.netlist, self.faults, self.pool[0], self.patterns


def workload_classes() -> Dict[str, type]:
    from serve_mix import ServeMix

    return {cls.name: cls
            for cls in (Table2, TailSweep, WideVec, ShardJournal, ServeMix)}


# ----------------------------------------------------------------- memory

def _descendants(root: int) -> List[int]:
    parents: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parents.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [], [root]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def peak_rss_mb() -> float:
    """Peak resident set of this process plus every live descendant."""
    total_kb = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    for pid in _descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += float(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


# ------------------------------------------------------------ verification

def verify(phases: List[Phase], workload: Workload,
           committed: Dict[str, str]) -> List[str]:
    """Compare every recorded output with its reference; return errors.

    A case is checked against its committed digests when there are any;
    otherwise its runtime references are computed, preferring a sampled
    check id over a full one when the workload recorded both.
    """
    seen: Dict[str, Set[str]] = {}
    errors: List[str] = []
    for phase in phases:
        errors.extend(phase.mismatches)
        for check_id, digests in phase.checks.items():
            seen.setdefault(check_id, set()).update(digests)
    cases: Dict[str, List[str]] = {}
    for check_id in sorted(seen):
        cases.setdefault(check_id.split("#", 1)[0], []).append(check_id)
    for case, ids in cases.items():
        targets = [i for i in ids if i in committed]
        if not targets:
            sampled = [i for i in ids if i.endswith("#sample")]
            targets = sampled or ids
        for check_id in targets:
            digests = seen[check_id]
            try:
                expected = (committed[check_id] if check_id in committed
                            else workload.references[check_id]())
            except Exception as error:  # noqa: BLE001 - reported as a failure
                errors.append(f"{workload.name}: reference for {check_id} "
                              f"failed: {type(error).__name__}: {error}")
                continue
            if digests != {expected}:
                _, design, stream_seed, _ = case.split("/")
                got = ", ".join(sorted(d[:12] for d in digests))
                errors.append(
                    f"{workload.name}: design {design}, seed {stream_seed} "
                    f"(run seed {workload.seed}): output {got} != reference "
                    f"{expected[:12]} [{check_id}]")
    return errors


# ---------------------------------------------------------------- one run

def per_layer_metrics(workload: Workload, plain: Phase, traced: Phase,
                      run: SpanIndex, setup: SpanIndex) -> Dict[str, float]:
    """Every per-layer metric, from the traced phase's spans and counts.

    Set-up metrics are totals over the set-up window; the rest are per
    operation (a closed-loop op, or a fresh job for ``serve-mix``).
    """
    ops = max(1, run.calls("serve.execute") if workload.name == "serve-mix"
              else len(traced.latencies_ms))
    counts = run.counts
    exec_busy = run.busy("exec.round")
    engine_busy = run.busy("engine.simulate")
    metrics = {
        "library.build_s": setup.busy("library.build"),
        "faultsim.collapse_s": setup.busy("faultsim.collapse"),
        "exec.start_s": setup.busy("exec.start") + setup.busy("exec.spawn"),
        "lint.preflight_s": run.busy("lint.preflight") / ops,
        "golden.calls": run.calls("golden.batch") / ops,
        "golden.evals": run.calls("golden.eval") / ops,
        "golden.busy_s": run.busy("golden.batch") / ops,
        "golden.eval_s": run.busy("golden.eval") / ops,
        "packed.calls": run.calls("packed.batch") / ops,
        "packed.busy_s": run.busy("packed.batch") / ops,
        "packed.events": counts["packed.events"] / ops,
        "vec.calls": run.calls("vec.batch") / ops,
        "vec.busy_s": run.busy("vec.batch") / ops,
        "vec.compile_s": run.busy("vec.compile") / ops,
        "vec.lane_evals": counts["vec.lane_evals"] / ops,
        "vec.useful_ratio": workload.useful_ratio(),
        "engine.calls": run.calls("engine.simulate") / ops,
        "engine.busy_s": engine_busy / ops,
        "engine.self_s": run.self_total(["engine.simulate"]) / ops,
        "engine.patterns_per_s": (counts["engine.patterns"] / engine_busy
                                  if engine_busy else 0.0),
        "exec.rounds": run.calls("exec.round") / ops,
        "exec.busy_s": exec_busy / ops,
        "exec.worker_s": counts["exec.worker_s"] / ops,
        "exec.dispatch_s": max(0.0, exec_busy
                               - counts["exec.worker_s_per_job"]) / ops,
        "exec.unit_bytes": counts["exec.unit_bytes"] / ops,
        "exec.retries": counts["exec.retries"] / ops,
        "journal.records": run.calls("journal.record") / ops,
        "journal.write_s": run.busy("journal.record") / ops,
        "journal.bytes": counts["journal.bytes"] / ops,
        "journal.load_s": run.busy("journal.load") / ops,
        "journal.rounds_resumed": counts["journal.rounds_resumed"] / ops,
        "atpg.faults": run.calls("atpg.podem") / ops,
        "atpg.busy_s": run.busy("atpg.classify") / ops,
        "atpg.backtracks": counts["atpg.backtracks"] / ops,
        "atpg.aborted": counts["atpg.aborted"] / ops,
        "flow.tdm_s": run.busy("flow.tdm") / ops,
        "flow.self_s": run.self_total(["flow.run"]) / ops,
    }
    for name in SERVE_LAYER_METRICS:
        metrics[name] = plain.extras.get(name, 0.0)
    span_total = sum(row["self_s"] for row in run.layers().values())
    metrics.update({
        "trace.ops": float(len(traced.latencies_ms)),
        "trace.wall_s": traced.wall_s,
        "trace.span_share": span_total / traced.wall_s if traced.wall_s else 0.0,
    })
    return metrics


#: Per-layer metrics the serve-mix load generator measures itself (from
#: status-document timestamps and the final ``/metrics`` scrape); 0 on
#: every other workload.
SERVE_LAYER_METRICS = (
    "serve.submit_p50_ms", "serve.submit_p95_ms",
    "serve.queue_wait_p50_ms", "serve.queue_wait_p95_ms",
    "serve.exec_p50_ms", "serve.exec_p95_ms",
    "serve.status_p90_ms", "serve.cache_hit_ratio", "serve.jobs_failed",
    "serve.job_p50_ms", "serve.job_p95_ms",
    "serve.hit_p50_ms", "serve.hit_p95_ms",
    "serve.reject_p90_ms", "serve.drain_s",
    "loadgen.late_p95_ms", "loadgen.sent",
)


def op_samples(phase: Phase,
               speed: HostSpeed) -> List[Tuple[float, float, str]]:
    """``(latency ms, host slowdown, group)`` for every latency sample."""
    if phase.speed is not None:
        speed = phase.speed
    return [(latency, speed.slowdown(*window), group)
            for latency, window, group
            in zip(phase.latencies_ms, phase.windows, phase.groups)]


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            workdir: Path, spawned_at: float, setup_only: bool,
            committed: Dict[str, Any], trace_out: Optional[str],
            speed: HostSpeed) -> Dict[str, Any]:
    """One measuring subprocess: set-up, timed phase(s), memory, checks.

    Every latency, and the set-up time, is reported with its host
    slowdown from ``speed`` (sampling since before the program was
    imported), and the workload's elasticity, for ``run.py`` to correct.
    """
    tracer = Tracer()
    workload = workload_classes()[name](seed, smoke, workdir)
    if isinstance(workload, Table2):
        workload.verdicts = committed.get("podem", {})
    if trace:
        install_layer_wrappers(tracer)
        tracer.install()
        tracer.enabled = True
    setup_start = time.perf_counter()
    try:
        workload.setup()
        setup_end = time.perf_counter()
        report: Dict[str, Any] = {
            "setup_s": setup_end - spawned_at,
            "setup_slowdown": speed.slowdown(spawned_at, setup_end)}
        if setup_only:
            return report
        if trace:
            plain, traced, traced_setup = workload.run_traced(seconds, tracer)
            phases = [plain, traced]
        else:
            phases = [workload.run_phase(seconds, tracer)]
        report["peak_rss_mb"] = peak_rss_mb()
    finally:
        workload.close()
    report.update({
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "failures": [f for p in phases for f in p.failures],
        "ops": op_samples(phases[0], speed),
        "elasticity": workload.elasticity,
        "wall_s": phases[0].wall_s,
        "extras": phases[0].extras,
    })
    if trace:
        report["traced_ops"] = op_samples(traced, speed)
        run_index = SpanIndex(tracer.spans, tracer.count_events, traced.window)
        setup_index = SpanIndex(tracer.spans, tracer.count_events,
                                traced_setup or (setup_start, setup_end))
        report["per_layer"] = per_layer_metrics(workload, plain, traced,
                                                run_index, setup_index)
        report["layers"] = run_index.layers()
        report["nesting_errors"] = run_index.nesting_errors()[:10]
        if trace_out:
            from tracing import write_chrome_trace

            write_chrome_trace(trace_out, run_index, traced.wall_s,
                               {"workload": name, "seed": seed})
    errors = verify(phases, workload, committed.get("digests", {}))
    report["correct"] = not errors
    report["errors"] = errors
    report["checks"] = {check_id: sorted(digests)
                        for p in phases for check_id, digests in p.checks.items()}
    return report


def regenerate(name: str, seed: int, seconds: float,
               workdir: Path) -> Dict[str, Any]:
    """One untraced phase, then the full reference for every output seen.

    Refuses (raises) when any output differs from its reference: a broken
    program must never become the recorded truth.
    """
    workload = workload_classes()[name](seed, False, workdir)
    try:
        workload.setup()
        phase = workload.run_phase(seconds, Tracer())
    finally:
        workload.close()
    if phase.failed or phase.mismatches:
        raise RuntimeError(f"{name}: {phase.failures + phase.mismatches}")
    digests = {}
    for check_id, seen in sorted(phase.checks.items()):
        expected = workload.references[check_id]()
        if seen != {expected}:
            raise RuntimeError(f"{check_id}: output differs from reference")
        digests[check_id] = expected
    return {"digests": digests, "podem": getattr(workload, "verdicts", {})}
