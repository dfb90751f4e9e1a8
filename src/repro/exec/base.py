"""The executor protocol: how the engine fans shard rounds out.

An :class:`Executor` is an execution substrate for the engine.  The
engine hands it one :class:`WorkUnit` per pending shard per fan-out
round; the executor returns a :class:`RoundHandle` whose
``result(timeout)`` yields a :class:`RoundResult`.  Everything above the
boundary — retry waves, backoff, integrity checksums, chaos accounting,
checkpoint journaling, guard governance — lives in
:class:`repro.exec.driver.RoundDriver` and is therefore shared by every
backend.

Two backends ship, named in one table in :mod:`repro.exec` (see
``docs/EXECUTORS.md``):

``serial``
    In-process, one shard at a time — the backend of every one-shard
    (``jobs=1``) run and the degradation target the ``process`` backend
    falls back to.
``process``
    A warm process pool — true CPU parallelism, crash isolation, worker
    RSS accounting.

The guard's halve -> serial -> stop memory ladder applies to both
backends: the "serial" rung releases a ``process`` backend and continues
in-process, while a ``serial`` run already runs there and skips the rung.

The timeout contract
--------------------

The :class:`~repro.exec.driver.RoundDriver` arms one deadline per retry
wave from ``RetryPolicy.shard_timeout`` and passes what is left of it to
every ``RoundHandle.result(timeout)``.  The handle decides what that
means:

* ``process`` honours it: a round past the deadline raises
  :class:`concurrent.futures.TimeoutError`, and the driver rebuilds the
  pool and retries the round.
* ``serial`` ignores it: the round *is* the parent thread, which nobody
  can preempt, so a slow round runs to completion.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
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
    """Everything a backend needs to build per-worker simulators.

    ``kernel`` is the *resolved* evaluation kernel ("packed" or "vec") —
    the engine resolves ``auto``/env/fallback once per run so every
    worker builds the same simulator type.  ``artifacts`` is the
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

    ``golden_batches`` is a list of ``(mask, golden values)`` pairs, which
    the engine fills with one pair per round: every batch of the round
    joined into one wide word, so the pattern count is recovered from the
    mask (a short final round has a narrower one).  ``attempt`` distinguishes
    retry waves so a deterministic chaos plan can let a retry succeed.
    The unit must stay picklable end to end — it is what the process
    backend ships to its workers.
    """

    shard_id: int
    faults: Tuple[Any, ...]
    golden_batches: Tuple[Tuple[int, Dict[int, int]], ...]
    pattern_base: int
    round_index: int
    drop_detected: bool
    attempt: int = 0
    chaos: Optional[Any] = None


@dataclass
class RoundResult:
    """What one executed :class:`WorkUnit` produced.

    ``checksum`` is taken *before* any chaos corruption inside the worker,
    so tampering is detectable by the driver; ``spans`` carries the spans
    recorded in an out-of-process worker since its last round (in-process
    backends record straight into the parent tracer and leave it empty).
    """

    shard_id: int
    detections: Dict[Any, int]
    survivors: List[Any]
    measurements: Dict[str, float]
    checksum: str
    spans: List[Any] = field(default_factory=list)


class RoundHandle(ABC):
    """A pending :class:`RoundResult` (future-shaped, minimal surface)."""

    @abstractmethod
    def result(self, timeout: Optional[float] = None) -> RoundResult:
        """The round's result; raises what the execution raised.

        ``timeout`` (seconds) is what is left of the driver's wave
        deadline.  A handle that honours it raises
        :class:`concurrent.futures.TimeoutError` when it passes, and the
        driver treats the round as hung; a handle that cannot preempt its
        round ignores it — see "The timeout contract" above.
        """


class Executor(ABC):
    """One execution substrate for engine shard rounds.

    Life cycle: ``start(context)`` once per run, ``submit_round`` for
    every (shard, round, attempt), ``restart()`` whenever the driver
    declares the backend poisoned (dead/hung worker), ``stop()`` at run
    end.  ``stop`` must be idempotent — the guard's memory ladder may
    stop a backend mid-run and continue in-process.
    """

    #: The backend's name in :mod:`repro.exec`'s table; subclasses override.
    name: str = "abstract"

    @abstractmethod
    def start(self, context: ExecutionContext) -> None:
        """Bind to one run's context; idempotent."""

    @abstractmethod
    def submit_round(self, unit: WorkUnit) -> RoundHandle:
        """Schedule one shard round; never blocks on the work itself."""

    def restart(self) -> None:
        """Recover from a poisoned backend (default: nothing to rebuild)."""

    def worker_pids(self) -> Tuple[int, ...]:
        """PIDs of live workers, for RSS sampling (default: none)."""
        return ()

    @abstractmethod
    def stop(self) -> None:
        """End-of-run teardown; idempotent, safe mid-run.

        A backend MAY park reusable resources (a warm worker pool) for the
        next run instead of freeing them — see :meth:`release` for the
        unconditional teardown.
        """

    def release(self) -> None:
        """Free every worker resource *now*; idempotent.

        The guard's memory ladder calls this on the "serial" rung: worker
        RSS must actually drop, so warm-pool parking is not allowed here.
        Default: same as :meth:`stop`.
        """
        self.stop()


def resolve_executor_name(name: Optional[str]) -> str:
    """Config name -> env (``$REPRO_ENGINE_EXECUTOR``) -> ``"process"``."""
    if name:
        return name
    ambient = os.environ.get(EXECUTOR_ENV_VAR, "").strip()
    return ambient or DEFAULT_EXECUTOR
