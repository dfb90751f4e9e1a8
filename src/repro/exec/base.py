"""Where shard rounds run, and the data that crosses that boundary.

The engine hands the :class:`~repro.exec.driver.RoundDriver` one
:class:`WorkUnit` per pending shard per round, and gets one
:class:`RoundResult` back for each.  Retry waves, backoff, integrity
checksums, chaos accounting and the guard's memory ladder all live in the
driver.  Two backends exist (:func:`available_executors`):

``serial``
    Rounds run in the parent, on one simulator the driver holds.  Every
    one-shard (``jobs=1``) run takes this path.
``process``
    A round with two or more active shards runs on a warm process pool
    (:class:`~repro.exec.process.ProcessExecutor`): CPU parallelism, crash
    isolation and worker RSS accounting.  A round with one active shard
    has nothing to run beside it, so it runs in the parent as a
    ``serial`` round does, and so does every round after the memory
    ladder's serial rung.

The timeout contract: the driver arms ``RetryPolicy.shard_timeout`` as
one deadline per retry wave.  A pool round past it raises
:class:`concurrent.futures.TimeoutError`, and the driver rebuilds the pool
and retries the round.  A round in the parent — every ``serial`` round,
and a ``process`` run's one-shard rounds — is the parent thread, which
nothing can preempt, so it runs to completion.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Environment variable naming the default backend for runs that do not
#: pin one in their :class:`~repro.exec.config.ExecutionPolicy` — the same
#: ambient-override idiom as ``$REPRO_CHAOS``.
EXECUTOR_ENV_VAR = "REPRO_ENGINE_EXECUTOR"

#: Fallback backend when neither the config nor the environment chooses.
DEFAULT_EXECUTOR = "process"


@dataclass(frozen=True)
class ExecutionContext:
    """Everything the driver and its pool need to build a run's simulators.

    ``kernel`` is the *resolved* evaluation kernel ("packed" or "vec") —
    the engine resolves ``auto``/env/fallback once per run so the parent
    and every worker build the same simulator type.  ``artifacts`` is the
    netlist's :class:`~repro.engine.artifacts.NetlistArtifacts`, whose
    tables every simulator of the run shares.
    """

    netlist: Any
    batch_width: int
    max_workers: int
    artifacts: Any
    telemetry_enabled: bool = False
    kernel: str = "packed"


@dataclass(frozen=True)
class WorkUnit:
    """One shard's work for one fan-out round.

    ``golden`` holds the round's fault-free net values, every batch of
    the round joined into one word, and ``mask`` has one bit per pattern
    of the round (a short final round has a narrower one).  ``attempt``
    distinguishes retry waves so a deterministic chaos plan can let a
    retry succeed.  The unit must stay picklable end to end — it is what
    the process backend ships to its workers.
    """

    shard_id: int
    faults: Tuple[Any, ...]
    mask: int
    golden: Dict[int, int]
    pattern_base: int
    round_index: int
    drop_detected: bool
    attempt: int = 0
    chaos: Optional[Any] = None


@dataclass
class RoundResult:
    """What one executed :class:`WorkUnit` produced.

    ``detections`` maps a fault's position in ``unit.faults`` to its first
    detecting pattern, and ``survivors`` lists the positions still live,
    so no fault object crosses the pipe.  ``checksum`` is taken *before*
    any chaos corruption inside the worker, so tampering is detectable by
    the driver; ``spans`` carries the spans recorded in a pool worker
    since its last round (a round run in the parent records straight into
    its tracer and leaves it empty).
    """

    shard_id: int
    detections: Dict[int, int]
    survivors: List[int]
    measurements: Dict[str, float]
    checksum: str
    spans: List[Any] = field(default_factory=list)


def available_executors() -> Tuple[str, ...]:
    """The backend names, sorted (the CLI's ``--executor`` choices)."""
    return ("process", "serial")


def resolve_executor_name(name: Optional[str]) -> str:
    """Config name -> env (``$REPRO_ENGINE_EXECUTOR``) -> ``"process"``."""
    if name:
        return name
    ambient = os.environ.get(EXECUTOR_ENV_VAR, "").strip()
    return ambient or DEFAULT_EXECUTOR
