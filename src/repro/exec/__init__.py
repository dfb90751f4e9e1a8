"""``repro.exec``: where shard rounds run, and the run configuration.

The engine (:func:`repro.engine.simulate`) describes *what* to compute; a
:class:`RunConfig` describes how a run is shaped; the
:class:`RoundDriver` decides *where* each shard round executes — in the
parent (``serial``) or on a warm process pool (``process``).  Results are
bit-identical across both; the choice only moves cost.  See
``docs/EXECUTORS.md`` for where rounds run and the timeout contract.
"""

from repro.exec.base import (
    DEFAULT_EXECUTOR,
    EXECUTOR_ENV_VAR,
    ExecutionContext,
    RoundResult,
    WorkUnit,
    available_executors,
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

__all__ = [
    "DEFAULT_EXECUTOR",
    "EXECUTOR_ENV_VAR",
    "CheckpointPolicy",
    "CorruptShardRound",
    "ExecutionContext",
    "ExecutionPolicy",
    "ProcessExecutor",
    "RetryPolicy",
    "RoundDriver",
    "RoundResult",
    "RunConfig",
    "WorkUnit",
    "available_executors",
    "canonical_fields",
    "resolve_executor_name",
]
