"""``repro.exec``: the execution backends and the run configuration.

The engine (:func:`repro.engine.simulate`) describes *what* to compute; a
:class:`RunConfig` describes how a run is shaped; an :class:`Executor`
backend decides *where* the shard rounds actually execute — in-process
(``serial``) or on a warm process pool (``process``).  Results are
bit-identical across both; the choice only moves cost.  See
``docs/EXECUTORS.md`` for the protocol and the timeout contract.
"""

from typing import Dict, Optional, Tuple, Type

from repro.errors import SimulationError
from repro.exec.base import (
    DEFAULT_EXECUTOR,
    EXECUTOR_ENV_VAR,
    ExecutionContext,
    Executor,
    RoundHandle,
    RoundResult,
    WorkUnit,
    resolve_executor_name,
)
from repro.exec.config import (
    CheckpointPolicy,
    ExecutionPolicy,
    RetryPolicy,
    RunConfig,
    canonical_fields,
)
from repro.exec.driver import CorruptShardRound, RoundDriver
from repro.exec.process import ProcessExecutor
from repro.exec.serial import SerialExecutor

#: Every backend, by name.
_EXECUTORS: Dict[str, Type[Executor]] = {
    "process": ProcessExecutor,
    "serial": SerialExecutor,
}


def available_executors() -> Tuple[str, ...]:
    """The backend names, sorted (the CLI's ``--executor`` choices)."""
    return tuple(sorted(_EXECUTORS))


def create_executor(name: Optional[str]) -> Executor:
    """Instantiate the backend named (or defaulted) by ``name``."""
    resolved = resolve_executor_name(name)
    backend = _EXECUTORS.get(resolved)
    if backend is None:
        raise SimulationError(
            f"unknown executor {resolved!r} "
            f"(available: {', '.join(available_executors())})"
        )
    return backend()


__all__ = [
    "DEFAULT_EXECUTOR",
    "EXECUTOR_ENV_VAR",
    "CheckpointPolicy",
    "CorruptShardRound",
    "ExecutionContext",
    "ExecutionPolicy",
    "Executor",
    "ProcessExecutor",
    "RetryPolicy",
    "RoundDriver",
    "RoundHandle",
    "RoundResult",
    "RunConfig",
    "SerialExecutor",
    "WorkUnit",
    "available_executors",
    "canonical_fields",
    "create_executor",
    "resolve_executor_name",
]
