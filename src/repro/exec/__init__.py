"""``repro.exec``: pluggable execution backends and the run configuration.

The engine (:func:`repro.engine.simulate`) describes *what* to compute; a
:class:`RunConfig` describes how a run is shaped; an :class:`Executor`
backend decides *where* the shard rounds actually execute — in-process
(``serial``), on a thread pool (``thread``), on a warm process pool
(``process``) or on peer worker hosts (``remote``, see
``docs/DISTRIBUTED.md``).  Results are bit-identical across all of them;
the choice only moves cost.  See ``docs/EXECUTORS.md`` for the protocol
and how to write a backend.
"""

from repro.exec.base import (
    DEFAULT_EXECUTOR,
    EXECUTOR_ENV_VAR,
    ExecutionContext,
    Executor,
    ExecutorCapabilities,
    ExecutorStartError,
    NodeStats,
    RoundHandle,
    RoundResult,
    WorkUnit,
    available_executors,
    create_executor,
    register_executor,
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
from repro.exec.remote import PEERS_ENV_VAR, RemoteExecutor, set_default_peers
from repro.exec.serial import SerialExecutor
from repro.exec.thread import ThreadExecutor

register_executor("serial", SerialExecutor)
register_executor("thread", ThreadExecutor)
register_executor("process", ProcessExecutor)
register_executor("remote", RemoteExecutor)

__all__ = [
    "DEFAULT_EXECUTOR",
    "EXECUTOR_ENV_VAR",
    "PEERS_ENV_VAR",
    "CheckpointPolicy",
    "CorruptShardRound",
    "ExecutionContext",
    "ExecutionPolicy",
    "Executor",
    "ExecutorCapabilities",
    "ExecutorStartError",
    "NodeStats",
    "ProcessExecutor",
    "RemoteExecutor",
    "RetryPolicy",
    "RoundDriver",
    "RoundHandle",
    "RoundResult",
    "RunConfig",
    "SerialExecutor",
    "ThreadExecutor",
    "WorkUnit",
    "available_executors",
    "canonical_fields",
    "create_executor",
    "register_executor",
    "resolve_executor_name",
    "set_default_peers",
]
