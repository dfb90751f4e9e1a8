"""The round driver: fault tolerance above the executor boundary.

Retry waves with exponential backoff, shard timeouts, integrity-checksum
verification, backend rebuilds and the degraded in-process fallback all
live *here*, not in any backend — which is what makes them contracts every
:class:`~repro.exec.base.Executor` inherits rather than ProcessPool
features.  A backend only has to run work units and fail honestly; the
driver guarantees that every pending shard of every round ends up in the
results map, whatever happened on the way.

The driver also owns the guard's memory-ladder "serial" rung: when the
watchdog demands in-process execution it *releases* the backend (worker
RSS actually drops) and runs subsequent rounds through the same
:func:`~repro.exec.worker.consume_batches` primitive in the parent, so
results — and journal records — stay bit-identical while peak memory
falls.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro import telemetry
from repro.errors import ReproError, SimulationError
from repro.exec.base import Executor, RoundHandle, WorkUnit
from repro.exec.config import RetryPolicy
from repro.exec.worker import consume_batches, round_checksum
from repro.faultsim.faults import Fault
from repro.faultsim.simulator import FaultSimulator
from repro.netlist.netlist import Netlist

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.artifacts import NetlistArtifacts
    from repro.engine.chaos import FaultInjector
    from repro.engine.instrumentation import ShardStats

#: One round's merged outcome per shard: (detections, survivors,
#: measurements-or-None-when-replayed-from-journal).
ShardOutcome = Tuple[Dict[Fault, int], List[Fault], Optional[Dict]]


class CorruptShardRound(SimulationError):
    """A shard round whose payload failed integrity verification."""


class RoundDriver:
    """Runs rounds of work units on one executor, absorbing its failures."""

    def __init__(
        self,
        executor: Executor,
        netlist: Netlist,
        artifacts: "NetlistArtifacts",
        batch_width: int,
        retry: RetryPolicy,
        chaos: Optional["FaultInjector"] = None,
        kernel: str = "packed",
    ):
        self.executor = executor
        self._netlist = netlist
        self._batch_width = batch_width
        self._retry = retry
        self._chaos = chaos
        self._kernel = kernel
        self._artifacts = artifacts
        self._degraded_simulator: Optional[FaultSimulator] = None

    # ------------------------------------------------------------- internals

    def _parent_simulator(self) -> FaultSimulator:
        # Same kernel as the workers: the kernels are bit-identical, but a
        # degraded round should not silently change the run's cost model.
        if self._degraded_simulator is None:
            self._degraded_simulator = self._artifacts.simulator(
                self._netlist, self._batch_width, self._kernel)
        return self._degraded_simulator

    def _run_in_parent(
        self,
        faults: List[Fault],
        round_batches: List[Tuple[int, Dict[int, int]]],
        pattern_base: int,
        drop_detected: bool,
        **span_attributes: object,
    ) -> ShardOutcome:
        """One shard round on the parent's own simulator, off the backend."""
        with telemetry.span("engine.shard_round.degraded", **span_attributes):
            return consume_batches(
                self._parent_simulator(), faults, round_batches,
                pattern_base, drop_detected,
            )

    def _unit(
        self,
        shard_id: int,
        faults: List[Fault],
        round_batches: List[Tuple[int, Dict[int, int]]],
        pattern_base: int,
        round_index: int,
        drop_detected: bool,
        attempt: int,
    ) -> WorkUnit:
        return WorkUnit(
            shard_id=shard_id,
            faults=tuple(faults),
            golden_batches=tuple(round_batches),
            pattern_base=pattern_base,
            round_index=round_index,
            drop_detected=drop_detected,
            attempt=attempt,
            chaos=self._chaos,
        )

    # ------------------------------------------------------------ round entry

    def execute_round(
        self,
        shards: Dict[int, List[Fault]],
        stats: Dict[int, ShardStats],
        pending: Set[int],
        round_batches: List[Tuple[int, Dict[int, int]]],
        pattern_base: int,
        round_index: int,
        drop_detected: bool,
        results: Dict[int, ShardOutcome],
    ) -> None:
        """Run one round's pending shards to completion, whatever fails.

        Retry waves: all pending shards are submitted together; any that
        fail (worker crash, timeout, integrity mismatch) force a backend
        rebuild and are resubmitted after exponential backoff, up to
        ``RetryPolicy.max_retries`` times each.  A shard past its budget
        runs degraded — serially, in the parent process — so this method
        always returns with every pending shard in ``results``.
        """
        attempts = {shard_id: 0 for shard_id in pending}
        while pending:
            handles: Dict[int, RoundHandle] = {
                shard_id: self.executor.submit_round(self._unit(
                    shard_id, shards[shard_id], round_batches, pattern_base,
                    round_index, drop_detected, attempts[shard_id],
                ))
                for shard_id in sorted(pending)
            }
            # One deadline per wave; each handle decides whether it can
            # honour it (see "The timeout contract" in repro.exec.base).
            timeout = self._retry.shard_timeout
            deadline = (
                None if timeout is None else time.monotonic() + timeout
            )
            failed: List[int] = []
            for shard_id, handle in handles.items():
                try:
                    remaining = (
                        None if deadline is None
                        else max(deadline - time.monotonic(), 1e-3)
                    )
                    outcome = handle.result(timeout=remaining)
                    if outcome.checksum != round_checksum(
                        outcome.detections, outcome.survivors,
                        int(outcome.measurements["patterns"]),
                    ):
                        raise CorruptShardRound(
                            f"shard {shard_id} round {round_index}: "
                            "integrity checksum mismatch"
                        )
                except FutureTimeoutError:
                    stats[shard_id].timeouts += 1
                    failed.append(shard_id)
                except (BrokenExecutor, ReproError, pickle.PickleError,
                        OSError):
                    # A dead worker (BrokenProcessPool), a worker-raised
                    # library error (ChaosError, SimulationError), a
                    # corrupted payload (CorruptShardRound), or an
                    # IPC/pickling failure: all retried the same way.
                    # Anything else — a genuine bug — propagates instead
                    # of being silently retried.
                    stats[shard_id].failures += 1
                    telemetry.count("engine.swallowed_errors")
                    failed.append(shard_id)
                else:
                    results[shard_id] = (
                        outcome.detections, outcome.survivors,
                        outcome.measurements,
                    )
                    pending.discard(shard_id)
                    if outcome.spans:
                        telemetry.get_telemetry().tracer.absorb(outcome.spans)
            if not failed:
                break
            # A dead or hung worker poisons most backends; rebuild before
            # the next wave (healthy shards already returned their results).
            self.executor.restart()
            for shard_id in failed:
                attempts[shard_id] += 1
                if attempts[shard_id] > self._retry.max_retries:
                    results[shard_id] = self._run_in_parent(
                        shards[shard_id], round_batches, pattern_base,
                        drop_detected, shard=shard_id, round=round_index,
                        attempts=attempts[shard_id],
                    )
                    stats[shard_id].degraded_reason = (
                        f"retry budget exhausted after {attempts[shard_id]} "
                        f"attempts at round {round_index}; ran in-process"
                    )
                    pending.discard(shard_id)
                else:
                    stats[shard_id].retries += 1
            if pending and self._retry.backoff > 0:
                wave = min(attempts[shard_id] for shard_id in pending)
                time.sleep(self._retry.backoff * (2 ** max(wave - 1, 0)))

    def run_round_in_process(
        self,
        shards: Dict[int, List[Fault]],
        pending: Set[int],
        round_batches: List[Tuple[int, Dict[int, int]]],
        pattern_base: int,
        round_index: int,
        drop_detected: bool,
        results: Dict[int, ShardOutcome],
    ) -> None:
        """Run one round's pending shards serially in the parent.

        The memory guard's last rung before stopping: the backend has been
        released, so every shard round goes through the same
        :func:`~repro.exec.worker.consume_batches` primitive the workers
        use — results (and journal records) stay bit-identical, only the
        peak memory drops.
        """
        for shard_id in sorted(pending):
            results[shard_id] = self._run_in_parent(
                shards[shard_id], round_batches, pattern_base, drop_detected,
                shard=shard_id, round=round_index, reason="memory",
            )
        pending.clear()


__all__ = [
    "CorruptShardRound",
    "RoundDriver",
    "ShardOutcome",
]
