"""repro.serve — BIST-as-a-service over the existing engine stack.

A zero-heavy-dependency asyncio HTTP/JSON service exposing the fault-
simulation engine as a job API:

* ``POST /v1/jobs`` — submit a library design name or an uploaded
  ``.bench`` netlist plus :class:`~repro.exec.RunConfig`-shaped options.
* ``GET /v1/jobs/{id}`` — job status plus a streaming coverage curve read
  from the run's checkpoint journal.
* ``GET /v1/jobs/{id}/result`` — the full result document, byte-identical
  in shape to ``repro-bist selftest --json``.
* ``GET /metrics`` — the process telemetry registry in Prometheus text
  format (the exact bytes ``--metrics-out`` would write).
* ``GET /healthz`` — liveness plus queue/cache occupancy.

Results are cached content-addressed by the checkpoint run key, so an
identical resubmission — at any shard count, executor or kernel — is
served without simulating; deadlines map onto
:class:`~repro.guard.Budget` and SIGTERM drains gracefully through the
shared :class:`~repro.guard.CancelToken`.  Start it with ``repro-bist
serve`` — see ``docs/SERVE.md`` for the full API reference.
"""

from repro.serve.app import (
    DEFAULT_DRAIN_GRACE,
    DEFAULT_WORKERS,
    BistService,
    DesignRegistry,
    ServerThread,
)
from repro.serve.cache import DEFAULT_CACHE_SIZE, ResultCache
from repro.serve.jobs import (
    DEFAULT_MAX_QUEUED,
    DEFAULT_TENANT_QUOTA,
    STATE_CANCELLED,
    STATE_DONE,
    STATE_FAILED,
    STATE_QUEUED,
    STATE_RUNNING,
    Job,
    JobQueue,
)
from repro.serve.protocol import (
    DEFAULT_JOB_PATTERNS,
    MAX_JOB_PATTERNS,
    ApiError,
    JobRequest,
)

__all__ = [
    "ApiError",
    "BistService",
    "DEFAULT_CACHE_SIZE",
    "DEFAULT_DRAIN_GRACE",
    "DEFAULT_JOB_PATTERNS",
    "DEFAULT_MAX_QUEUED",
    "DEFAULT_TENANT_QUOTA",
    "DEFAULT_WORKERS",
    "DesignRegistry",
    "Job",
    "JobQueue",
    "JobRequest",
    "MAX_JOB_PATTERNS",
    "ResultCache",
    "STATE_CANCELLED",
    "STATE_DONE",
    "STATE_FAILED",
    "STATE_QUEUED",
    "STATE_RUNNING",
    "ServerThread",
]
