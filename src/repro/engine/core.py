"""The fault-simulation engine (single entry point: ``simulate``).

``simulate`` partitions the collapsed fault list into round-robin shards
and runs them, round by round, on a :mod:`repro.exec` backend —
``serial`` (in the parent: every ``jobs=1`` run) or ``process`` (a warm
worker pool, the default for ``jobs>1``) — each worker running the
existing bit-parallel event-driven propagator
(:meth:`repro.faultsim.simulator.FaultSimulator.simulate_batch`) over the
golden round the parent ships it.  Per-shard ``first_detection`` maps are
merged deterministically — shards are disjoint and rounds arrive in
pattern order — so the result is **bit-identical across shard counts** for
every backend and every combination of ``stop_when_complete`` /
``drop_detected``.

How a run is shaped lives in one frozen object,
:class:`repro.exec.RunConfig`::

    from repro.exec import ExecutionPolicy, RunConfig

    result = simulate(netlist, faults, patterns, config=RunConfig(
        execution=ExecutionPolicy(jobs=4, executor="process"),
    ))

The engine is fault tolerant: every shard round carries an integrity
checksum, is bounded by an optional ``shard_timeout``, and is retried with
exponential backoff on crash / timeout / corruption.  That machinery lives
in :class:`repro.exec.RoundDriver`, *above* the executor boundary, so
every backend inherits it; a shard that exhausts its retry budget degrades
gracefully to in-process serial execution in the parent, and a run
*always* completes with results identical to ``jobs=1``.  With a
checkpoint directory, completed rounds are journaled
(:mod:`repro.engine.checkpoint`) and ``resume=True`` replays them instead
of re-executing; a deterministic :class:`~repro.engine.chaos.FaultInjector`
(config field or ``$REPRO_CHAOS``) makes all of these paths testable in CI.

The fault-free (golden) evaluation of each round — ``chunk_batches``
batches joined into one wide word — is computed once in the parent,
optionally through a :class:`~repro.engine.cache.GoldenCache` shared
across shards and across repeated runs, and every shard propagates its
faults over the round in one pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro import telemetry
from repro.engine import checkpoint as checkpoint_io
from repro.engine.cache import GoldenBatches, GoldenCache
from repro.engine.chaos import ChaosInterrupt, FaultInjector
from repro.engine.instrumentation import ShardStats, publish_engine_metrics
from repro.engine.vec import resolve_kernel
from repro.errors import SimulationError
from repro.exec import create_executor
from repro.exec.base import ExecutionContext, resolve_executor_name
from repro.exec.config import RunConfig, shard_count
from repro.exec.driver import RoundDriver
from repro.faultsim.collapse import collapse_faults
from repro.faultsim.faults import Fault
from repro.faultsim.patterns import PatternSource
from repro.faultsim.simulator import FaultSimulator
from repro.guard.runner import RunGuard
from repro.netlist.netlist import Netlist
from repro.results import FaultSimResult


@dataclass
class EngineResult(FaultSimResult):
    """A :class:`~repro.results.FaultSimResult` plus engine instrumentation.

    Drop-in compatible with the serial result everywhere (it *is* one);
    the extra fields surface how the run was executed.
    """

    jobs: int = 1
    executor: str = "serial"
    kernel: str = "packed"
    kernel_fallback: Optional[str] = None
    wall_time: float = 0.0
    shards: List[ShardStats] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    #: Predicted-vs-measured coverage summary when the run was made with
    #: ``config.analyze=True`` (see :mod:`repro.analysis.random_testability`).
    testability: Optional[Dict[str, Any]] = None

    @property
    def events_propagated(self) -> int:
        return sum(shard.events_propagated for shard in self.shards)

    @property
    def rounds_resumed(self) -> int:
        """Shard rounds replayed from a checkpoint journal, summed."""
        return sum(shard.rounds_resumed for shard in self.shards)

    @property
    def retries(self) -> int:
        """Shard-round re-executions forced by failures, summed."""
        return sum(shard.retries for shard in self.shards)

    @property
    def degraded_shards(self) -> List[int]:
        """Shards that fell back to in-process execution."""
        return [shard.shard for shard in self.shards if shard.degraded]

    @property
    def memory_adaptations(self) -> int:
        """Guard memory-ladder steps applied during the run, summed."""
        return sum(shard.memory_adaptations for shard in self.shards)

    def to_json(self, include_faults: bool = False) -> Dict:
        payload = super().to_json(include_faults)
        payload["engine"] = {
            "jobs": self.jobs,
            "executor": self.executor,
            "kernel": self.kernel,
            "kernel_fallback": self.kernel_fallback,
            "wall_time": self.wall_time,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "retries": self.retries,
            "rounds_resumed": self.rounds_resumed,
            "degraded_shards": self.degraded_shards,
            "shards": [shard.to_json() for shard in self.shards],
        }
        if self.testability is not None:
            payload["testability"] = self.testability
        return payload


# --------------------------------------------------------------- parent side

def _plan_round(
    pattern_base: int, max_patterns: int, batch_width: int, n_batches: int
) -> List[int]:
    """Widths of the next up-to-``n_batches`` batches, respecting the cap."""
    widths: List[int] = []
    base = pattern_base
    while len(widths) < n_batches and base < max_patterns:
        width = min(batch_width, max_patterns - base)
        widths.append(width)
        base += width
    return widths


def _widths_from_patterns(
    pattern_base: int, round_patterns: int, batch_width: int, max_patterns: int
) -> List[int]:
    """Reconstruct a journaled round's batch widths from its pattern count.

    A resumed run must execute every round with the geometry the *writing*
    run used — which may differ from a fresh plan when the writer's guard
    halved ``chunk_batches`` under memory pressure mid-run, or when the
    writer journaled one batch per record (older ``jobs=1`` journals).
    Each record stores the round's total patterns; decomposing that total
    greedily at ``batch_width`` reproduces the writer's widths exactly
    (the writer planned the same way).
    """
    widths: List[int] = []
    base = pattern_base
    remaining = round_patterns
    while remaining > 0:
        width = min(batch_width, max_patterns - base, remaining)
        if width <= 0:  # corrupt/foreign count; let the caller re-plan
            return []
        widths.append(width)
        base += width
        remaining -= width
    return widths


def _stopped_n_patterns(
    first_detection: Dict[Fault, int],
    n_faults: int,
    max_patterns: int,
    batch_width: int,
    stop_when_complete: bool,
    drop_detected: bool,
) -> int:
    """``n_patterns`` of a run the guard did not stop, from its detections.

    A run ends at the end of the batch in which the last live fault was
    detected — either because fault dropping emptied the live list or
    because ``stop_when_complete`` saw full detection — and runs to
    ``max_patterns`` otherwise.  Computing it from the merged map rather
    than from the round loop keeps it independent of round geometry.
    """
    if n_faults == 0:
        return 0
    if len(first_detection) == n_faults and (drop_detected or stop_when_complete):
        last = max(first_detection.values())
        return min(max_patterns, (last // batch_width + 1) * batch_width)
    return max_patterns


def simulate(
    netlist: Netlist,
    faults: Optional[Sequence[Fault]] = None,
    patterns: Optional[PatternSource] = None,
    *,
    config: Optional[RunConfig] = None,
    cache: Optional[GoldenCache] = None,
    simulator: Optional[FaultSimulator] = None,
) -> EngineResult:
    """Fault-simulate ``patterns`` against ``faults``, optionally in parallel.

    Parameters
    ----------
    netlist:
        The combinational circuit under test.
    faults:
        Fault list; defaults to the equivalence-collapsed universe.
    patterns:
        Pattern source; defaults to a seeded
        :class:`~repro.faultsim.patterns.RandomPatternSource`.
    config:
        A :class:`repro.exec.RunConfig` describing everything else about
        the run — execution backend and shard count
        (:class:`~repro.exec.ExecutionPolicy`), retry/timeout policy
        (:class:`~repro.exec.RetryPolicy`), checkpointing
        (:class:`~repro.exec.CheckpointPolicy`), budget, cancellation,
        chaos, pattern cap and stop/drop semantics.  Defaults to
        ``RunConfig()``: one in-process shard, 2^16 patterns, no
        checkpointing.
    cache:
        Optional :class:`GoldenCache` for fault-free batch evaluations,
        shared across shards and across repeated calls.  A *resource*, not
        run configuration — it stays a direct parameter.
    simulator:
        An existing :class:`FaultSimulator` (``FaultSimulator.run`` passes
        itself): its evaluator computes the golden batches when the batch
        widths agree.  Also a resource; it does not choose the kernel.

    The run is bit-identical across executors (``serial`` / ``process``)
    and across every failure-recovery path: retries, degraded
    in-process fallback, checkpoint resume, and the guard's memory ladder.
    A tripped budget or cancel token stops the run cleanly at a round
    boundary with ``partial=True`` and a structured ``stop_reason`` — see
    ``docs/ROBUSTNESS.md`` and ``docs/EXECUTORS.md``.
    """
    if config is None:
        config = RunConfig()
    if config.check:
        # Fail fast with witnesses, before faults are collapsed, golden
        # batches are computed, or any shard process exists.
        from repro.lint.runner import preflight_netlist

        preflight_netlist(netlist)
    if faults is None:
        faults, _ = collapse_faults(netlist)
    if patterns is None:
        from repro.faultsim.patterns import RandomPatternSource

        patterns = RandomPatternSource(len(netlist.primary_inputs))
    if patterns.n_inputs != len(netlist.primary_inputs):
        raise SimulationError(
            f"pattern source width {patterns.n_inputs} != circuit inputs "
            f"{len(netlist.primary_inputs)}"
        )
    chaos = config.chaos if config.chaos is not None else FaultInjector.from_env()

    fault_list = list(faults)
    profile = None
    if config.analyze:
        # Opt-in static pre-flight: profile the same collapsed fault list
        # the run targets, so predicted and measured coverage share a
        # denominator.  Advisory only — never perturbs the run itself.
        from repro.analysis.random_testability import analyze_netlist

        with telemetry.span(
            "analysis.preflight", circuit=netlist.name,
            n_faults=len(fault_list),
        ):
            telemetry.count("analysis.preflight_runs")
            profile = analyze_netlist(netlist, fault_list)
    batch_width = config.execution.batch_width
    # Resolve the evaluation kernel once for the whole run: config ->
    # $REPRO_ENGINE_KERNEL -> cost heuristic, with automatic packed
    # fallback for unsupported netlists.
    kernel, kernel_fallback = resolve_kernel(
        config.execution.kernel, netlist, len(fault_list)
    )
    hits_before = cache.hits if cache is not None else 0
    misses_before = cache.misses if cache is not None else 0
    if simulator is not None and simulator.batch_width == batch_width:
        evaluator = simulator.evaluator
    else:
        evaluator = None
    golden: Optional[GoldenBatches] = None
    if cache is not None:
        golden = cache.batch_entry(netlist, patterns, batch_width, evaluator)
    if golden is None:
        if evaluator is None:
            from repro.netlist.evaluate import Evaluator

            evaluator = Evaluator(netlist)
        golden = GoldenBatches(evaluator, patterns, batch_width)

    start = time.perf_counter()
    guard = RunGuard.create(config.budget, config.cancel, chaos)
    jobs = shard_count(config, len(fault_list))
    executor_name = (
        "serial" if jobs == 1
        else resolve_executor_name(config.execution.executor)
    )
    store = checkpoint_io.open_store(
        netlist, patterns, fault_list, config, jobs,
    )
    with telemetry.span(
        "engine.simulate",
        circuit=netlist.name, jobs=jobs,
        executor=executor_name, kernel=kernel,
        n_faults=len(fault_list), max_patterns=config.max_patterns,
    ) as run_span:
        result = _simulate_rounds(
            netlist, fault_list, golden, config, jobs, executor_name,
            chaos, store, guard, kernel,
        )
        run_span.set_attribute("n_patterns", result.n_patterns)
        if result.partial:
            run_span.set_attribute("partial", True)
            run_span.set_attribute("stop_reason", result.stop_reason)
    result.kernel = kernel
    result.kernel_fallback = kernel_fallback
    result.wall_time = time.perf_counter() - start
    if profile is not None:
        window = result.n_patterns if result.n_patterns > 0 else config.max_patterns
        predicted = profile.predicted_coverage(window)
        measured = result.coverage()
        delta = predicted - measured
        result.testability = {
            "window": window,
            "predicted_coverage": predicted,
            "measured_coverage": measured,
            "delta": delta,
            "n_faults": profile.n_faults,
            "n_resistant": len(profile.random_resistant(1.0 / window)),
            "n_undetectable": len(profile.undetectable()),
        }
        telemetry.count("analysis.preflight_deltas")
        telemetry.gauge_set("analysis.predicted_coverage", predicted)
        telemetry.gauge_set("analysis.coverage_delta", delta)
    if cache is not None:
        result.cache_hits = cache.hits - hits_before
        result.cache_misses = cache.misses - misses_before
    tele = telemetry.get_telemetry()
    if tele.enabled:
        # ShardStats stays the single source of truth; the registry just
        # accumulates the per-run sums (see docs/OBSERVABILITY.md).
        publish_engine_metrics(result, tele.metrics)
    return result


def _replay_record(
    record: Dict[str, Any], fault_list: List[Fault]
) -> Tuple[Dict[Fault, int], List[Fault]]:
    """Indices-on-disk -> fault objects for one journaled round."""
    detections = {
        fault_list[index]: pattern
        for index, pattern in record["detections"].items()
    }
    survivors = [fault_list[index] for index in record["survivors"]]
    return detections, survivors


def _simulate_rounds(
    netlist: Netlist,
    faults: List[Fault],
    golden: GoldenBatches,
    config: RunConfig,
    jobs: int,
    executor_name: str,
    chaos: Optional[FaultInjector],
    store: Optional[checkpoint_io.CheckpointStore],
    guard: Optional[RunGuard] = None,
    kernel: str = "packed",
) -> EngineResult:
    """Run fault shards on an execution backend, round by round.

    The one loop behind every run: ``jobs=1`` is a single shard on the
    ``serial`` backend.  Every round is executed fault-tolerantly by the
    :class:`~repro.exec.RoundDriver` (retry waves, timeouts, integrity
    checks, degraded fallback) and journaled once complete; rounds present
    in the journal are replayed without touching the backend at all.  The
    guard is consulted at every round boundary: before a round for
    cancellation/deadline/pattern-cap stops, after it for chaos
    cancellation and the memory ladder (halve ``chunk_batches``, then
    release the backend and run rounds in-process, then stop) — uniformly,
    whatever the backend, except that the ``serial`` backend already runs
    in the parent, has no pool to release and skips that middle rung.
    """
    max_patterns = config.max_patterns
    batch_width = config.execution.batch_width
    stop_when_complete = config.stop_when_complete
    drop_detected = config.drop_detected
    chunk_batches = config.execution.chunk_batches
    # At most one shard per fault, but always shard 0: an empty fault list
    # still reports one shard.
    shards: Dict[int, List[Fault]] = {
        shard_id: faults[shard_id::jobs]
        for shard_id in range(max(1, min(jobs, len(faults))))
    }
    stats = {
        shard_id: ShardStats(shard=shard_id, n_faults=len(flist))
        for shard_id, flist in shards.items()
    }
    merged: Dict[Fault, int] = {}
    fault_index = {fault: i for i, fault in enumerate(faults)}
    journal = store.load() if store is not None else {}
    executor = create_executor(executor_name)
    executor.start(ExecutionContext(
        netlist=netlist,
        batch_width=batch_width,
        max_workers=len(shards),
        telemetry_enabled=telemetry.enabled(),
        kernel=kernel,
    ))
    driver = RoundDriver(
        executor, netlist, batch_width, config.retry, chaos, kernel
    )
    stop_reason: Optional[str] = None
    force_serial = False
    pattern_base = 0
    batch_index = 0
    round_index = 0
    try:
        while pattern_base < max_patterns and any(shards.values()):
            # A journaled record pins this round's geometry (the writing
            # run may have halved its chunk size mid-run under memory
            # pressure); otherwise plan from the current chunk setting.
            widths: List[int] = []
            for shard_id in sorted(shards):
                record = journal.get((shard_id, round_index))
                if record is not None:
                    widths = _widths_from_patterns(
                        pattern_base, int(record["patterns"]),
                        batch_width, max_patterns,
                    )
                    break
            if not widths:
                widths = _plan_round(
                    pattern_base, max_patterns, batch_width, chunk_batches
                )
            if guard is not None:
                stop_reason = guard.should_stop(pattern_base, sum(widths))
                if stop_reason is not None:
                    break
            with telemetry.span(
                "engine.round", round=round_index, pattern_base=pattern_base,
            ) as round_span:
                active = sorted(s for s, live in shards.items() if live)
                round_span.set_attribute("shards", len(active))
                need_golden = any(
                    (shard_id, round_index) not in journal
                    for shard_id in active
                )
                # One fault-free evaluation and one (mask, values) pair
                # for the whole round; a short final round has a narrower
                # mask.
                round_batches: List[Tuple[int, Dict[int, int]]] = []
                if need_golden:
                    round_batches.append((
                        (1 << sum(widths)) - 1,
                        golden.golden_batch(batch_index, widths),
                    ))
                batch_index += len(widths)

                # Replay journaled rounds; execute the rest fault-tolerantly.
                results: Dict[int, Tuple[Dict[Fault, int], List[Fault], Optional[Dict]]] = {}
                pending: Set[int] = set()
                for shard_id in active:
                    record = journal.get((shard_id, round_index))
                    if record is not None:
                        detections, survivors = _replay_record(record, faults)
                        results[shard_id] = (detections, survivors, None)
                        stats[shard_id].rounds_resumed += 1
                    else:
                        pending.add(shard_id)
                if pending and force_serial:
                    driver.run_round_in_process(
                        shards, pending, round_batches, pattern_base,
                        round_index, drop_detected, results,
                    )
                elif pending:
                    driver.execute_round(
                        shards, stats, pending, round_batches, pattern_base,
                        round_index, drop_detected, results,
                    )

                with telemetry.span(
                    "engine.merge", round=round_index, shards=len(results),
                ):
                    for shard_id in sorted(results):
                        detections, survivors, measured = results[shard_id]
                        for fault, index in detections.items():
                            # Rounds arrive in pattern order.
                            if fault not in merged:
                                merged[fault] = index
                        dropped = len(shards[shard_id]) - len(survivors)
                        if measured is not None:
                            stats[shard_id].absorb(
                                int(measured["events"]),
                                int(measured["patterns"]),
                                float(measured["wall"]),
                                dropped if drop_detected else 0,
                            )
                            if store is not None:
                                store.record(
                                    shard_id, round_index,
                                    {fault_index[f]: p
                                     for f, p in detections.items()},
                                    [fault_index[f] for f in survivors],
                                    sum(widths),
                                )
                        else:
                            stats[shard_id].faults_dropped += (
                                dropped if drop_detected else 0
                            )
                        if drop_detected:
                            shards[shard_id] = survivors
                pattern_base += sum(widths)
                telemetry.count("engine.rounds")
            if chaos is not None and chaos.aborts_after(round_index):
                raise ChaosInterrupt(
                    f"chaos: run aborted after round {round_index}"
                )
            if guard is not None:
                guard.after_round(round_index)
                action = guard.memory_action(
                    round_index, executor.worker_pids(), chunk_batches,
                    force_serial or executor_name == "serial",
                )
                if action is not None:
                    for shard_id, live in shards.items():
                        if live:
                            stats[shard_id].memory_adaptations += 1
                    if action == "halve":
                        chunk_batches = max(1, chunk_batches // 2)
                    elif action == "serial":
                        force_serial = True
                        # Hard release, not a stop: worker RSS must drop
                        # now, so warm-pool parking is not allowed.
                        executor.release()
                        for shard_id, live in shards.items():
                            if live and stats[shard_id].degraded_reason is None:
                                stats[shard_id].degraded_reason = (
                                    f"memory pressure at round {round_index};"
                                    " degraded to in-process serial"
                                )
                    elif action == "stop" and pattern_base < max_patterns \
                            and any(shards.values()):
                        # A vacuous stop on the final round is not a stop.
                        stop_reason = guard.stop_reason
                        round_index += 1
                        break
            round_index += 1
            if stop_when_complete and len(merged) == len(faults):
                break
    finally:
        executor.stop()

    if stop_reason is not None:
        # Guard stop: patterns actually applied, reason stamped on every
        # shard that still had live faults when the run was cut short.
        n_patterns = pattern_base
        for shard_id, live in shards.items():
            if live:
                stats[shard_id].stop_reason = stop_reason
    else:
        n_patterns = _stopped_n_patterns(
            merged, len(faults), max_patterns, batch_width,
            stop_when_complete, drop_detected,
        )
    return EngineResult(
        netlist=netlist,
        faults=faults,
        first_detection=merged,
        n_patterns=n_patterns,
        partial=stop_reason is not None,
        stop_reason=stop_reason,
        jobs=jobs,
        executor=executor_name,
        shards=[stats[shard_id] for shard_id in sorted(stats)],
    )
