"""The round driver: where each shard round runs, and fault tolerance.

Retry waves with exponential backoff, shard timeouts, integrity-checksum
verification, pool rebuilds and the degraded in-parent fallback all live
*here*.  A round's place is fixed before its first wave.  A ``process``
run hands each round with two or more active shards to the
:class:`~repro.exec.process.ProcessExecutor` the driver holds.  Every other
round — each round of a ``serial`` run, each one-shard round of a
``process`` run (one shard has nothing to run beside it, and the pool's
round trip costs more than the work), and each round after the memory
ladder's serial rung — runs in the parent, on one simulator the driver
holds, inside the same ``try`` that waits on a pool future: chaos,
checksums and retries treat both alike.  Whatever happens on the way,
every pending shard of every round ends up in the results map.

The driver also carries the memory ladder's serial rung:
:meth:`RoundDriver.release` frees the pool's workers (their RSS actually
drops), and later rounds run in the parent through the same
:func:`~repro.exec.worker.run_work_unit`, so results — and journal
records — stay bit-identical while peak memory falls.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import BrokenExecutor, Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro import telemetry
from repro.errors import ReproError, SimulationError
from repro.exec.base import (
    ExecutionContext,
    RoundResult,
    WorkUnit,
    available_executors,
)
from repro.exec.config import RetryPolicy
from repro.exec.process import ProcessExecutor
from repro.exec.worker import consume_batches, round_checksum, run_work_unit
from repro.faultsim.faults import Fault
from repro.faultsim.simulator import FaultSimulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.chaos import FaultInjector
    from repro.engine.instrumentation import ShardStats

#: One shard's outcome of an executed round: (detections, survivors,
#: measurements).
ShardOutcome = Tuple[Dict[Fault, int], List[Fault], Dict]


class CorruptShardRound(SimulationError):
    """A shard round whose payload failed integrity verification."""


class RoundDriver:
    """Runs rounds of work units in the parent or on one process pool.

    ``executor`` names the backend (:func:`~repro.exec.base.
    available_executors`); any other name raises :class:`SimulationError`.
    A ``process`` driver starts its pool here; :meth:`stop` parks it at
    run end and :meth:`release` frees it mid-run.
    """

    def __init__(
        self,
        executor: str,
        context: ExecutionContext,
        retry: RetryPolicy,
        chaos: Optional["FaultInjector"] = None,
    ):
        if executor not in available_executors():
            raise SimulationError(
                f"unknown executor {executor!r} "
                f"(available: {', '.join(available_executors())})"
            )
        self._context = context
        self._retry = retry
        self._chaos = chaos
        self._simulator: Optional[FaultSimulator] = None
        self._pool: Optional[ProcessExecutor] = None
        if executor == "process":
            self._pool = ProcessExecutor()
            self._pool.start(context)

    # ------------------------------------------------------------ pool state

    @property
    def in_parent(self) -> bool:
        """Whether every round runs in the parent (no pool, or a released
        one); a pool's one-shard rounds run there too."""
        return self._pool is None

    def worker_pids(self) -> Tuple[int, ...]:
        """PIDs of the pool's live workers, for the memory watchdog."""
        return self._pool.worker_pids() if self._pool is not None else ()

    def release(self) -> None:
        """The memory ladder's serial rung: free the pool's workers now.

        A hard release, not a stop: worker RSS must drop, so the pool is
        not parked.  Later rounds run in the parent.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.release()

    def stop(self) -> None:
        """End of run: park the pool for the next run on this netlist."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.stop()

    # ------------------------------------------------------------- internals

    def _parent_simulator(self) -> FaultSimulator:
        # Same kernel as the workers: the kernels are bit-identical, but a
        # round in the parent should not silently change the run's cost
        # model.  The simulator is the run's own, on the shared tables.
        if self._simulator is None:
            context = self._context
            self._simulator = context.artifacts.simulator(
                context.netlist, context.batch_width, context.kernel)
        return self._simulator

    def _run_degraded(self, unit: WorkUnit, attempts: int) -> ShardOutcome:
        """A shard round past its retry budget, in the parent; no chaos."""
        with telemetry.span(
            "engine.shard_round.degraded",
            shard=unit.shard_id, round=unit.round_index, attempts=attempts,
        ):
            return consume_batches(
                self._parent_simulator(), list(unit.faults),
                list(unit.golden_batches), unit.pattern_base,
                unit.drop_detected,
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

        The round's place is picked once, before its first wave: on the
        pool when two or more shards are pending, otherwise in the parent
        for every wave.  Retry waves: all pending shards are submitted
        together (or, in the parent, run one after another); any that
        fail (worker crash, timeout, integrity mismatch, injected chaos)
        rebuild the pool — or drop the parent simulator — and are
        resubmitted after exponential backoff, up to
        ``RetryPolicy.max_retries`` times each.  A shard past its budget
        runs degraded in the parent, so this method always returns with
        every pending shard in ``results``.
        """
        attempts = {shard_id: 0 for shard_id in pending}
        pool = self._pool if len(pending) > 1 else None
        if pool is not None:
            telemetry.count("exec.pool_rounds")
        while pending:
            units = {
                shard_id: self._unit(
                    shard_id, shards[shard_id], round_batches, pattern_base,
                    round_index, drop_detected, attempts[shard_id],
                )
                for shard_id in sorted(pending)
            }
            futures: Dict[int, "Future[RoundResult]"] = {}
            if pool is not None:
                futures = {shard_id: pool.submit_round(unit)
                           for shard_id, unit in units.items()}
            # One deadline per wave.  Only pool rounds honour it: a round
            # in the parent is the parent thread and runs to completion.
            timeout = self._retry.shard_timeout
            deadline = (
                None if timeout is None else time.monotonic() + timeout
            )
            failed: List[int] = []
            for shard_id, unit in units.items():
                try:
                    if pool is None:
                        outcome = run_work_unit(
                            self._parent_simulator(), unit, in_process=True)
                    else:
                        remaining = (
                            None if deadline is None
                            else max(deadline - time.monotonic(), 1e-3)
                        )
                        outcome = futures[shard_id].result(timeout=remaining)
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
                    # A dead worker (BrokenProcessPool), a library error
                    # (ChaosError, SimulationError), a corrupted payload
                    # (CorruptShardRound), or an IPC/pickling failure:
                    # all retried the same way.  Anything else — a genuine
                    # bug — propagates instead of being silently retried.
                    stats[shard_id].failures += 1
                    telemetry.count("engine.swallowed_errors")
                    failed.append(shard_id)
                else:
                    faults = unit.faults
                    results[shard_id] = (
                        {faults[i]: index
                         for i, index in outcome.detections.items()},
                        [faults[i] for i in outcome.survivors],
                        outcome.measurements,
                    )
                    pending.discard(shard_id)
                    if outcome.spans:
                        telemetry.get_telemetry().tracer.absorb(outcome.spans)
            if not failed:
                break
            # A dead or hung worker poisons the pool: rebuild it before the
            # next wave (healthy shards already returned their results).
            # In the parent, a fresh simulator is the closest analogue.
            if pool is not None:
                pool.restart()
            else:
                self._simulator = None
            for shard_id in failed:
                attempts[shard_id] += 1
                if attempts[shard_id] > self._retry.max_retries:
                    results[shard_id] = self._run_degraded(
                        units[shard_id], attempts[shard_id])
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


__all__ = [
    "CorruptShardRound",
    "RoundDriver",
    "ShardOutcome",
]
