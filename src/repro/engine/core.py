"""The fault-simulation engine (single entry point: ``simulate``).

``simulate`` partitions the collapsed fault list into round-robin shards
and runs them, round by round, on a :mod:`repro.exec` backend —
``serial`` (in the parent: every ``jobs=1`` run) or ``process`` (a warm
worker pool for each round with two or more active shards, the default
for ``jobs>1``) — each shard running the
existing bit-parallel event-driven propagator
(:meth:`repro.faultsim.simulator.FaultSimulator.simulate_batch`) over the
golden round the parent evaluates.  Per-shard ``first_detection`` maps are
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
in :class:`repro.exec.RoundDriver`, which runs rounds in the parent and
on the pool alike, so both backends share it; a shard that exhausts its
retry budget degrades gracefully to in-process serial execution in the
parent, and a run *always* completes with results identical to
``jobs=1``.  With a
checkpoint directory, completed rounds are journaled
(:mod:`repro.engine.checkpoint`) and ``resume=True`` replays them instead
of re-executing; a deterministic :class:`~repro.engine.chaos.FaultInjector`
(config field or ``$REPRO_CHAOS``) makes all of these paths testable in CI.

The fault-free (golden) evaluation of each round — ``chunk_batches``
batches joined into one wide word — is computed once in the parent
(:class:`~repro.engine.cache.GoldenBatches`) and kept for that round
only, and every shard propagates its faults over the round in one pass.
What a run derives from the netlist alone — the lint verdict, the
evaluator, the kernels' tables — is built once per process
(:mod:`repro.engine.artifacts`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro import telemetry
from repro.engine import checkpoint as checkpoint_io
from repro.engine.artifacts import NetlistArtifacts, netlist_artifacts
from repro.engine.cache import GoldenBatches
from repro.engine.chaos import ChaosInterrupt, FaultInjector
from repro.engine.instrumentation import ShardStats, publish_engine_metrics
from repro.engine.vec import resolve_kernel
from repro.errors import SimulationError
from repro.exec.base import ExecutionContext, resolve_executor_name
from repro.exec.config import RunConfig
from repro.exec.driver import RoundDriver
from repro.faultsim.collapse import collapse_faults
from repro.faultsim.faults import Fault
from repro.faultsim.patterns import PatternSource
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
            "retries": self.retries,
            "rounds_resumed": self.rounds_resumed,
            "degraded_shards": self.degraded_shards,
            "shards": [shard.to_json() for shard in self.shards],
        }
        if self.testability is not None:
            payload["testability"] = self.testability
        return payload


# --------------------------------------------------------------- parent side

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

    The netlist's lint verdict, evaluator and kernel tables come from
    its :class:`~repro.engine.artifacts.NetlistArtifacts`, found by
    ``netlist.fingerprint()``, which the run computes once.

    The run is bit-identical across executors (``serial`` / ``process``)
    and across every failure-recovery path: retries, degraded
    in-process fallback, checkpoint resume, and the guard's memory ladder.
    A tripped budget or cancel token stops the run cleanly at a round
    boundary with ``partial=True`` and a structured ``stop_reason`` — see
    ``docs/ROBUSTNESS.md`` and ``docs/EXECUTORS.md``.
    """
    if config is None:
        config = RunConfig()
    fingerprint = netlist.fingerprint()
    artifacts = netlist_artifacts(netlist, fingerprint)
    if config.check:
        # Fail fast with witnesses, before faults are collapsed, golden
        # batches are computed, or any shard process exists.
        artifacts.preflight(netlist)
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
        config.execution.kernel, netlist, len(fault_list),
        artifacts.vec_support_reason,
    )
    golden = GoldenBatches(artifacts.evaluator(netlist), patterns, batch_width)

    start = time.perf_counter()
    guard = RunGuard.create(config.budget, config.cancel, chaos)
    jobs = 1 if len(fault_list) <= 1 else config.execution.effective_jobs
    executor_name = (
        "serial" if jobs == 1
        else resolve_executor_name(config.execution.executor)
    )
    store, journal = checkpoint_io.open_store(
        netlist, patterns, fault_list, config, fingerprint=fingerprint,
    )
    with telemetry.span(
        "engine.simulate",
        circuit=netlist.name, jobs=jobs,
        executor=executor_name, kernel=kernel,
        n_faults=len(fault_list), max_patterns=config.max_patterns,
    ) as run_span:
        result = _simulate_rounds(
            netlist, artifacts, fault_list, golden, config, jobs,
            executor_name, chaos, store, journal, guard, kernel,
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
    tele = telemetry.get_telemetry()
    if tele.enabled:
        # ShardStats stays the single source of truth; the registry just
        # accumulates the per-run sums (see docs/OBSERVABILITY.md).
        publish_engine_metrics(result, tele.metrics)
    return result


def _fits(
    record: checkpoint_io.Round, pattern_base: int, end: int, n_faults: int,
) -> bool:
    """Whether a journaled round can stand in for the planned one.

    A record replays only when it ends where the round ends and names
    faults of this run detected inside this round; anything else (a
    chance CRC match, a hand-made record) is counted, and the round runs.
    """
    record_end, detections = record
    fits = record_end == end and all(
        0 <= index < n_faults and pattern_base <= pattern < end
        for index, pattern in detections.items()
    )
    if not fits:
        telemetry.count("engine.swallowed_errors")
    return fits


def _simulate_rounds(
    netlist: Netlist,
    artifacts: NetlistArtifacts,
    faults: List[Fault],
    golden: GoldenBatches,
    config: RunConfig,
    jobs: int,
    executor_name: str,
    chaos: Optional[FaultInjector],
    store: Optional[checkpoint_io.CheckpointStore],
    journal: Dict[int, checkpoint_io.Round],
    guard: Optional[RunGuard] = None,
    kernel: str = "packed",
) -> EngineResult:
    """Run fault shards round by round, in the parent or on a pool.

    The one loop behind every run: ``jobs=1`` is a single shard whose
    rounds run in the parent.  Every round has the planned width —
    ``chunk_batches`` batches, narrower only at ``max_patterns`` — which
    the run key fixes.  Every round is executed fault-tolerantly by the
    :class:`~repro.exec.RoundDriver` (retry waves, timeouts, integrity
    checks, degraded fallback) and journaled once complete; a round whose
    journal record fits it is replayed without running it.  The guard is
    consulted at every round boundary: before a round for
    cancellation/deadline/pattern-cap stops, after it for chaos
    cancellation and the two-rung memory ladder (release the pool and run
    later rounds in the parent, then stop).  A run whose rounds already
    run in the parent has no pool to release, so pressure can only stop
    it.
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
    driver = RoundDriver(executor_name, ExecutionContext(
        netlist=netlist,
        batch_width=batch_width,
        max_workers=len(shards),
        artifacts=artifacts,
        telemetry_enabled=telemetry.enabled(),
        kernel=kernel,
    ), config.retry, chaos)
    stop_reason: Optional[str] = None
    pattern_base = 0
    round_index = 0
    try:
        while pattern_base < max_patterns and any(shards.values()):
            width = min(chunk_batches * batch_width,
                        max_patterns - pattern_base)
            end = pattern_base + width
            if guard is not None:
                stop_reason = guard.should_stop(pattern_base, width)
                if stop_reason is not None:
                    break
            with telemetry.span(
                "engine.round", round=round_index, pattern_base=pattern_base,
            ) as round_span:
                active = sorted(s for s, live in shards.items() if live)
                round_span.set_attribute("shards", len(active))
                record = journal.get(round_index)
                if record is not None \
                        and _fits(record, pattern_base, end, len(faults)):
                    # Replay: the record's detections, in merge order.
                    found = record[1]
                    for shard_id in active:
                        stats[shard_id].rounds_resumed += 1
                        if drop_detected:
                            live = shards[shard_id]
                            shards[shard_id] = [
                                f for f in live if fault_index[f] not in found
                            ]
                            stats[shard_id].faults_dropped += (
                                len(live) - len(shards[shard_id]))
                else:
                    # One fault-free evaluation for the whole round; a
                    # short final round has a narrower mask.
                    results = driver.execute_round(
                        shards, stats, active, (1 << width) - 1,
                        golden.golden_batch(pattern_base, width),
                        pattern_base, round_index, drop_detected,
                    )
                    with telemetry.span(
                        "engine.merge", round=round_index, shards=len(results),
                    ):
                        found = {}
                        for shard_id in sorted(results):
                            detections, survivors, measured = results[shard_id]
                            for fault, index in detections.items():
                                found[fault_index[fault]] = index
                            dropped = len(shards[shard_id]) - len(survivors)
                            stats[shard_id].absorb(
                                int(measured["events"]),
                                int(measured["patterns"]),
                                float(measured["wall"]),
                                dropped if drop_detected else 0,
                            )
                            if drop_detected:
                                shards[shard_id] = survivors
                        if store is not None:
                            store.record(round_index, end, found)
                for index, pattern in found.items():
                    # Rounds arrive in pattern order.
                    merged.setdefault(faults[index], pattern)
                pattern_base = end
                telemetry.count("engine.rounds")
            if chaos is not None and chaos.aborts_after(round_index):
                raise ChaosInterrupt(
                    f"chaos: run aborted after round {round_index}"
                )
            if guard is not None:
                guard.after_round(round_index)
                action = guard.memory_action(
                    round_index, driver.worker_pids(), driver.in_parent,
                )
                if action is not None:
                    for shard_id, live in shards.items():
                        if live:
                            stats[shard_id].memory_adaptations += 1
                    if action == "serial":
                        driver.release()
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
        driver.stop()

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
