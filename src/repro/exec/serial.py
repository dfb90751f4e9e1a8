"""The in-process serial backend: every one-shard run, and the fallback.

A ``jobs=1`` run executes its rounds here, through the same driver,
checksums and journal as any other run.  Every other backend falls back
to *this* execution shape when it runs out of options (retry budget
exhausted, memory ladder's "serial" rung), so it is deliberately the
simplest possible implementation: one simulator in the parent process,
work executed lazily inside ``handle.result()`` so failures (including
chaos) surface inside the driver's retry machinery exactly like a worker
failure would.  It pays no pool spin-up, golden-word pickling or IPC.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.exec.base import (
    ExecutionContext,
    Executor,
    RoundHandle,
    RoundResult,
    WorkUnit,
)
from repro.exec.worker import make_simulator, run_work_unit
from repro.faultsim.simulator import FaultSimulator

class _LazyHandle(RoundHandle):
    """Runs the work at ``result()`` time, inside the driver's try block."""

    def __init__(self, thunk: Callable[[], RoundResult]):
        self._thunk = thunk

    def result(self, timeout: Optional[float] = None) -> RoundResult:
        # ``timeout`` is ignored: the round runs on the parent thread,
        # which nobody can preempt, so it always runs to completion.
        return self._thunk()


class SerialExecutor(Executor):
    """One in-parent simulator; shard rounds run one at a time."""

    name = "serial"

    def __init__(self) -> None:
        self._context: Optional[ExecutionContext] = None
        self._simulator: Optional[FaultSimulator] = None

    def start(self, context: ExecutionContext) -> None:
        self._context = context

    def _get_simulator(self) -> FaultSimulator:
        assert self._context is not None, "executor used before start()"
        if self._simulator is None:
            self._simulator = make_simulator(
                self._context.netlist, self._context.batch_width,
                self._context.kernel,
            )
        return self._simulator

    def submit_round(self, unit: WorkUnit) -> RoundHandle:
        return _LazyHandle(
            lambda: run_work_unit(self._get_simulator(), unit, in_process=True)
        )

    def restart(self) -> None:
        # Nothing is poisoned by an in-process exception, but a fresh
        # simulator is the closest analogue to a pool rebuild and keeps
        # the recovery contract uniform.
        self._simulator = None

    def stop(self) -> None:
        self._simulator = None
