"""The run configuration surface: one frozen object instead of ~19 kwargs.

Every capability PR 1-5 added to :func:`repro.engine.simulate` widened the
same keyword signature — jobs, timeouts, retries, chaos, checkpointing,
budgets, cancellation.  :class:`RunConfig` folds that accretion into one
frozen, introspectable object grouping four policy blocks:

:class:`ExecutionPolicy`
    *How* the run executes: which :mod:`repro.exec` backend, how many
    shards, how patterns are batched and chunked into fan-out rounds.
:class:`RetryPolicy`
    The fault-tolerance contract every backend inherits: per-round retry
    budget, backoff base and the shard timeout.
:class:`CheckpointPolicy`
    Where (and whether) completed shard rounds are journaled, and whether
    an existing journal is replayed.
:class:`~repro.guard.budget.Budget`
    The existing governance object (deadline / pattern cap / RSS ceiling),
    unchanged.

Only a *canonical* subset of the configuration identifies a run's results:
the executor choice, retry policy, budget, cancellation, chaos plan and
lint pre-flight are all execution strategy — two runs differing only in
those produce bit-identical results, so :func:`canonical_fields` excludes
them and the checkpoint run key (:mod:`repro.engine.checkpoint`) stays
stable across backends (and across this refactor: the key bytes match the
pre-``RunConfig`` engine exactly, so old journals still resume).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional, Tuple, Union

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.chaos import FaultInjector
    from repro.guard.budget import Budget
    from repro.guard.cancel import CancelToken

#: Batches per fan-out round: large enough to amortize task dispatch and
#: golden-batch shipping, small enough that early stop wastes little work.
DEFAULT_CHUNK_BATCHES = 4

#: Default bounded-retry budget per shard round before degrading to
#: in-process execution.
DEFAULT_MAX_RETRIES = 2

#: Base of the exponential backoff between retry waves (seconds).
DEFAULT_RETRY_BACKOFF = 0.05

#: Default upper bound on applied patterns.
DEFAULT_MAX_PATTERNS = 1 << 16

#: Default packed batch width (patterns per simulator pass).
DEFAULT_BATCH_WIDTH = 256


#: Kernel names an :class:`ExecutionPolicy` may request (``None`` defers
#: to ``$REPRO_ENGINE_KERNEL`` and then to ``auto``).
KERNEL_CHOICES = ("auto", "packed", "vec")


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a run is executed: backend, shard count, batching geometry.

    ``executor=None`` defers the backend choice to the environment
    (``$REPRO_ENGINE_EXECUTOR``) and finally to ``"process"`` — see
    :func:`repro.exec.resolve_executor_name`.  ``kernel=None`` likewise
    defers the evaluation kernel to ``$REPRO_ENGINE_KERNEL`` and then to
    a cost heuristic (``auto``) choosing between the packed event-driven
    simulator and the numpy-vectorised kernel — see
    :func:`repro.engine.vec.resolve_kernel`.  Neither choice ever affects
    results, only where (and how fast) the work happens.
    """

    executor: Optional[str] = None
    jobs: Optional[int] = None
    batch_width: int = DEFAULT_BATCH_WIDTH
    chunk_batches: int = DEFAULT_CHUNK_BATCHES
    kernel: Optional[str] = None

    def __post_init__(self) -> None:
        if self.batch_width < 1:
            raise SimulationError("batch width must be positive")
        if self.chunk_batches < 1:
            raise SimulationError("chunk_batches must be positive")
        if self.kernel is not None and self.kernel not in KERNEL_CHOICES:
            raise SimulationError(
                f"unknown engine kernel {self.kernel!r} "
                f"(expected one of: {', '.join(KERNEL_CHOICES)})"
            )

    @property
    def effective_jobs(self) -> int:
        """The shard count the run actually uses (``None`` -> 1)."""
        return 1 if self.jobs is None else max(1, int(self.jobs))


@dataclass(frozen=True)
class RetryPolicy:
    """Per-shard-round fault tolerance every backend inherits."""

    max_retries: int = DEFAULT_MAX_RETRIES
    backoff: float = DEFAULT_RETRY_BACKOFF
    shard_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise SimulationError("max_retries must be >= 0")


@dataclass(frozen=True)
class CheckpointPolicy:
    """Journaling of completed shard rounds (resumable runs)."""

    directory: Optional[Union[str, Path]] = None
    resume: bool = False


@dataclass(frozen=True)
class RunConfig:
    """Everything that shapes one engine run, in one frozen object.

    ``budget`` and ``cancel`` are *shared mutable* governance objects by
    design (a budget is armed once across a sweep; a token is tripped by a
    signal handler); freezing the config prevents rebinding them, not
    using them.  ``chaos=None`` defers to ``$REPRO_CHAOS`` at run time.
    """

    execution: ExecutionPolicy = field(default_factory=ExecutionPolicy)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    checkpoint: CheckpointPolicy = field(default_factory=CheckpointPolicy)
    budget: Optional["Budget"] = None
    cancel: Optional["CancelToken"] = None
    chaos: Optional["FaultInjector"] = None
    max_patterns: int = DEFAULT_MAX_PATTERNS
    stop_when_complete: bool = True
    drop_detected: bool = True
    check: bool = True
    #: Opt-in static-testability pre-flight: compute the SCOAP/COP
    #: :class:`~repro.analysis.random_testability.TestabilityProfile`
    #: before the run and stamp the predicted-vs-measured coverage delta
    #: on the result.  Advisory — never affects what the run computes, so
    #: it is (deliberately) excluded from :func:`canonical_fields`.
    analyze: bool = False

    def replace(self, **changes: Any) -> "RunConfig":
        """A copy with top-level fields replaced (frozen-friendly)."""
        return dataclasses.replace(self, **changes)

    def with_execution(self, **changes: Any) -> "RunConfig":
        """A copy with :class:`ExecutionPolicy` fields replaced."""
        return self.replace(execution=dataclasses.replace(self.execution, **changes))


def canonical_fields(config: RunConfig, jobs: int) -> Tuple[Any, ...]:
    """The configuration subset that identifies a run's *results*.

    Everything here changes what a run computes; everything excluded —
    executor choice, evaluation kernel (packed vs vec), retry policy,
    budget, cancellation, chaos, the lint pre-flight — is execution
    strategy that the bit-identity contract guarantees cannot move a
    result.  The tuple layout is frozen: it feeds the checkpoint run key,
    and old journals must keep resuming (including across kernels).

    ``jobs`` is passed explicitly (not read from the config): it is the
    :func:`shard_count` the run actually executes, and the journal must be
    keyed by that geometry.
    """
    return (
        config.execution.batch_width,
        config.max_patterns,
        jobs,
        config.execution.chunk_batches,
        config.stop_when_complete,
        config.drop_detected,
    )


def shard_count(config: RunConfig, n_faults: int) -> int:
    """The number of fault shards a run executes.

    ``jobs`` (``None`` -> 1), collapsed to a single shard when there are
    too few faults to split.  The engine shards by this count and keys its
    journal by it, so callers that need a run's key without running it
    (the ``repro.serve`` result cache) must use it too.
    """
    return 1 if n_faults <= 1 else config.execution.effective_jobs
