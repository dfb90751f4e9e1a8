"""Parallel fault-simulation engine: sharding, golden rounds, metrics.

The single entry point is :func:`simulate`::

    from repro.engine import RunConfig, simulate
    from repro.exec import ExecutionPolicy

    result = simulate(netlist, faults, patterns,
                      config=RunConfig(execution=ExecutionPolicy(jobs=4)))

``repro.faultsim.simulator``, ``repro.bist.session``, the experiment
harness and the CLI all route their fault simulation through here; the
execution backends themselves live in :mod:`repro.exec`.  See
``docs/ENGINE.md`` for the sharding/merge semantics, golden rounds and
instrumentation fields, and ``docs/EXECUTORS.md`` for the backend
protocol.
"""

from repro.engine.cache import GoldenBatches
from repro.engine.chaos import ChaosError, ChaosInterrupt, FaultInjector
from repro.engine.checkpoint import CheckpointStore
from repro.engine.core import EngineResult, simulate
from repro.engine.instrumentation import ShardStats
from repro.engine.vec import (
    KERNEL_ENV_VAR,
    VecFaultSimulator,
    resolve_kernel,
    vec_support_reason,
)
from repro.exec.config import (
    CheckpointPolicy,
    ExecutionPolicy,
    RetryPolicy,
    RunConfig,
)

__all__ = [
    "ChaosError",
    "ChaosInterrupt",
    "CheckpointPolicy",
    "CheckpointStore",
    "EngineResult",
    "ExecutionPolicy",
    "FaultInjector",
    "GoldenBatches",
    "KERNEL_ENV_VAR",
    "RetryPolicy",
    "RunConfig",
    "ShardStats",
    "VecFaultSimulator",
    "resolve_kernel",
    "simulate",
    "vec_support_reason",
]
