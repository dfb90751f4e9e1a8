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
checksums and retries treat both alike.  Every attempt of a shard round
— on the pool, in the parent, or degraded past its retry budget — is one
:func:`~repro.exec.worker.run_work_unit` call, and whatever happens on
the way, every active shard of every round gets an outcome.

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
from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

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
from repro.exec.worker import round_checksum, run_work_unit
from repro.faultsim.faults import Fault
from repro.faultsim.simulator import FaultSimulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.chaos import FaultInjector
    from repro.engine.instrumentation import ShardStats

#: One shard's outcome of an executed round: (detections, survivors,
#: measurements).
ShardOutcome = Tuple[Dict[Fault, int], List[Fault], Dict]

#: Failed attempts a shard round may retry before it runs degraded.
MAX_RETRIES = 2

#: Base of the exponential backoff between retry waves (seconds).
RETRY_BACKOFF = 0.05


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

    # ------------------------------------------------------------ round entry

    def execute_round(
        self,
        shards: Dict[int, List[Fault]],
        stats: Dict[int, ShardStats],
        active: List[int],
        mask: int,
        golden: Dict[int, int],
        pattern_base: int,
        round_index: int,
        drop_detected: bool,
    ) -> Dict[int, ShardOutcome]:
        """Run one round's active shards to completion, whatever fails.

        The round's place is picked once, before its first wave: on the
        pool when two or more shards are active, otherwise in the parent
        for every wave.  Retry waves: all pending shards are submitted
        together (or, in the parent, run one after another); any that
        fail (worker crash, timeout, integrity mismatch, injected chaos)
        rebuild the pool — or drop the parent simulator — and are
        resubmitted after exponential backoff, up to :data:`MAX_RETRIES`
        times each.  A shard past its budget runs degraded: its unit once
        more, in the parent and without chaos.  Every attempt is one
        :func:`~repro.exec.worker.run_work_unit` call, so the returned
        map always holds every active shard's outcome.
        """
        units = [
            WorkUnit(
                shard_id=shard_id,
                faults=tuple(shards[shard_id]),
                mask=mask,
                golden=golden,
                pattern_base=pattern_base,
                round_index=round_index,
                drop_detected=drop_detected,
                chaos=self._chaos,
            )
            for shard_id in active
        ]
        pool = self._pool if len(units) > 1 else None
        if pool is not None:
            telemetry.count("exec.pool_rounds")
        outcomes: Dict[int, ShardOutcome] = {}
        while units:
            futures: Dict[int, "Future[RoundResult]"] = {}
            if pool is not None:
                for unit in units:
                    try:
                        futures[unit.shard_id] = pool.submit_round(unit)
                    except BrokenExecutor as error:
                        # A worker died before the wave was fully
                        # submitted: this shard's attempt failed like any
                        # other, and its wait below raises the error.
                        futures[unit.shard_id] = Future()
                        futures[unit.shard_id].set_exception(error)
            # One deadline per wave.  Only pool rounds honour it: a round
            # in the parent is the parent thread and runs to completion.
            timeout = self._retry.shard_timeout
            deadline = (
                None if timeout is None else time.monotonic() + timeout
            )
            failed: List[WorkUnit] = []
            for unit in units:
                shard_id = unit.shard_id
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
                    failed.append(unit)
                except (BrokenExecutor, ReproError, pickle.PickleError,
                        OSError):
                    # A dead worker (BrokenProcessPool), a library error
                    # (ChaosError, SimulationError), a corrupted payload
                    # (CorruptShardRound), or an IPC/pickling failure:
                    # all retried the same way.  Anything else — a genuine
                    # bug — propagates instead of being silently retried.
                    stats[shard_id].failures += 1
                    telemetry.count("engine.swallowed_errors")
                    failed.append(unit)
                else:
                    outcomes[shard_id] = _by_fault(unit, outcome)
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
            units = []
            for unit in failed:
                unit = replace(unit, attempt=unit.attempt + 1)
                shard_id = unit.shard_id
                if unit.attempt <= MAX_RETRIES:
                    stats[shard_id].retries += 1
                    units.append(unit)
                    continue
                with telemetry.span(
                    "engine.shard_round.degraded", shard=shard_id,
                    round=round_index, attempts=unit.attempt,
                ):
                    outcome = run_work_unit(
                        self._parent_simulator(), replace(unit, chaos=None),
                        in_process=True,
                    )
                outcomes[shard_id] = _by_fault(unit, outcome)
                stats[shard_id].degraded_reason = (
                    f"retry budget exhausted after {unit.attempt} "
                    f"attempts at round {round_index}; ran in-process"
                )
            if units:
                wave = min(unit.attempt for unit in units)
                time.sleep(RETRY_BACKOFF * (2 ** max(wave - 1, 0)))
        return outcomes


def _by_fault(unit: WorkUnit, result: RoundResult) -> ShardOutcome:
    """A round result with each fault position mapped back to its fault."""
    faults = unit.faults
    return (
        {faults[i]: index for i, index in result.detections.items()},
        [faults[i] for i in result.survivors],
        result.measurements,
    )


__all__ = [
    "CorruptShardRound",
    "RoundDriver",
    "ShardOutcome",
]
