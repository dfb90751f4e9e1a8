"""Lightweight per-shard measurement of an engine run.

Every :func:`repro.engine.simulate` call returns one :class:`ShardStats`
per fault shard (a single implicit shard for serial runs), aggregated over
all rounds the shard participated in.  Fields are chosen to answer the
scaling questions the benchmarks ask: where did wall time go, how much
propagation work did each shard do, and how quickly were faults dropped.

``ShardStats`` is the *single source of truth* for per-run execution
counters: when telemetry is enabled the engine publishes the summed stats
into the global metrics registry once per run
(:func:`publish_engine_metrics`), rather than double-counting at every
failure-handling site.  ``to_json``/``from_json`` round-trip every field,
including the failure-handling ones, through ``EngineResult.to_json()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.core import EngineResult
    from repro.telemetry.metrics import MetricsRegistry


@dataclass
class ShardStats:
    """Aggregated measurements for one fault shard."""

    shard: int
    n_faults: int = 0              #: faults assigned to this shard
    faults_dropped: int = 0        #: faults removed after first detection
    events_propagated: int = 0     #: gate evaluations during fault propagation
    patterns_simulated: int = 0    #: patterns of the rounds this shard ran
    wall_time: float = 0.0         #: seconds spent inside the shard worker
    retries: int = 0               #: rounds re-executed after a failure
    timeouts: int = 0              #: attempts that exceeded the shard timeout
    failures: int = 0              #: attempts lost to crashes/errors/corruption
    rounds_resumed: int = 0        #: rounds replayed from a checkpoint journal
    degraded_reason: Optional[str] = None  #: why the shard fell back in-process
    memory_adaptations: int = 0    #: guard ladder steps applied while active
    stop_reason: Optional[str] = None  #: guard stop reason for a partial run

    @property
    def patterns_per_second(self) -> float:
        """Shard throughput; 0.0 when the shard did no timed work."""
        if self.wall_time <= 0.0:
            return 0.0
        return self.patterns_simulated / self.wall_time

    @property
    def degraded(self) -> bool:
        """True when the shard exhausted its retry budget and some of its
        rounds ran serially in the parent process instead."""
        return self.degraded_reason is not None

    def absorb(self, events: int, patterns: int, wall: float, dropped: int) -> None:
        """Fold one round's worker measurements into the totals."""
        self.events_propagated += events
        self.patterns_simulated += patterns
        self.wall_time += wall
        self.faults_dropped += dropped

    def to_json(self) -> Dict[str, Any]:
        return {
            "shard": self.shard,
            "n_faults": self.n_faults,
            "faults_dropped": self.faults_dropped,
            "events_propagated": self.events_propagated,
            "patterns_simulated": self.patterns_simulated,
            "wall_time": self.wall_time,
            "patterns_per_second": self.patterns_per_second,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "failures": self.failures,
            "rounds_resumed": self.rounds_resumed,
            "degraded_reason": self.degraded_reason,
            "memory_adaptations": self.memory_adaptations,
            "stop_reason": self.stop_reason,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "ShardStats":
        """Inverse of :meth:`to_json` (derived fields are recomputed)."""
        return cls(
            shard=int(payload["shard"]),
            n_faults=int(payload["n_faults"]),
            faults_dropped=int(payload["faults_dropped"]),
            events_propagated=int(payload["events_propagated"]),
            patterns_simulated=int(payload["patterns_simulated"]),
            wall_time=float(payload["wall_time"]),
            retries=int(payload["retries"]),
            timeouts=int(payload["timeouts"]),
            failures=int(payload["failures"]),
            rounds_resumed=int(payload["rounds_resumed"]),
            degraded_reason=payload["degraded_reason"],
            memory_adaptations=int(payload.get("memory_adaptations", 0)),
            stop_reason=payload.get("stop_reason"),
        )


def publish_engine_metrics(
    result: "EngineResult", metrics: "MetricsRegistry"
) -> None:
    """Fold one run's ShardStats into the telemetry metrics registry.

    Called once per :func:`repro.engine.simulate` call when telemetry is
    enabled — the registry accumulates across runs, the per-run truth
    stays in the result's ``ShardStats``.
    """
    from repro.telemetry.metrics import THROUGHPUT_BUCKETS

    metrics.counter(
        "engine.runs", help="simulate() calls completed"
    ).inc()
    metrics.counter(
        "engine.retries", help="shard rounds re-executed after a failure"
    ).inc(sum(s.retries for s in result.shards))
    metrics.counter(
        "engine.timeouts", help="shard attempts past the shard timeout"
    ).inc(sum(s.timeouts for s in result.shards))
    metrics.counter(
        "engine.failures",
        help="shard attempts lost to crashes, errors or corruption",
    ).inc(sum(s.failures for s in result.shards))
    metrics.counter(
        "engine.rounds_resumed",
        help="shard rounds replayed from a checkpoint journal",
    ).inc(sum(s.rounds_resumed for s in result.shards))
    metrics.counter(
        "engine.degraded_shards",
        help="shards that fell back to in-process serial execution",
    ).inc(len(result.degraded_shards))
    metrics.counter(
        "engine.partial_runs",
        help="runs stopped early by the guard (budget/cancel/memory)",
    ).inc(1 if result.partial else 0)
    metrics.counter(
        "guard.memory_adaptations",
        help="memory-ladder steps applied, summed over shards",
    ).inc(sum(s.memory_adaptations for s in result.shards))
    metrics.counter(
        "engine.faults_dropped", help="faults removed after first detection"
    ).inc(sum(s.faults_dropped for s in result.shards))
    metrics.counter(
        "engine.patterns_simulated",
        help="patterns consumed, summed over shards",
    ).inc(sum(s.patterns_simulated for s in result.shards))
    metrics.counter(
        "faultsim.events_propagated",
        help="gate evaluations during fault propagation",
    ).inc(result.events_propagated)
    histogram = metrics.histogram(
        "patterns_per_second", THROUGHPUT_BUCKETS,
        help="per-shard fault-simulation throughput",
    )
    for shard in result.shards:
        if shard.wall_time > 0.0:
            histogram.observe(shard.patterns_per_second)
