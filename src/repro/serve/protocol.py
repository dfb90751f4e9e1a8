"""Wire protocol for the BIST service: request schema, typed API errors.

The submission document is deliberately *semantic*: every field either
names the circuit under test (``design`` / ``bench``) or maps onto a
:class:`repro.exec.RunConfig` field the engine already understands.
Execution-strategy knobs that cannot move a result (``jobs``,
``executor``, ``kernel``) are accepted but excluded from the result-cache
key by construction — the key is the checkpoint run key
(:func:`repro.engine.checkpoint.run_key`), which only hashes canonical
fields.

Errors travel as structured JSON, never tracebacks.  A netlist that fails
the :mod:`repro.lint` pre-flight maps to HTTP 422 carrying the full
:class:`~repro.lint.Finding` list via :meth:`repro.errors.LintError.
payload` — the same document ``repro-bist selftest --json`` prints for
the same netlist.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.errors import SimulationError
from repro.exec.config import (
    DEFAULT_BATCH_WIDTH,
    DEFAULT_CHUNK_BATCHES,
    KERNEL_CHOICES,
    CheckpointPolicy,
    ExecutionPolicy,
    RunConfig,
)

#: Default pattern budget for service jobs: big enough to be a real
#: measurement, small enough that one request cannot monopolize a worker.
DEFAULT_JOB_PATTERNS = 1 << 12

#: Hard ceiling a single request may ask for (guards the shared service).
MAX_JOB_PATTERNS = 1 << 20

#: Largest accepted ``bench`` upload, in characters (~4 MB of netlist).
MAX_BENCH_CHARS = 4 << 20

#: Tenant bucket used when a submission names none.
DEFAULT_TENANT = "default"


class ApiError(Exception):
    """An HTTP-mappable request failure with a structured JSON body."""

    def __init__(self, status: int, error: str, message: str,
                 extra: Optional[Mapping[str, Any]] = None):
        super().__init__(message)
        self.status = status
        self.error = error
        self.extra = dict(extra or {})

    def payload(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "error": self.error,
            "message": str(self),
        }
        body.update(self.extra)
        return body


def bad_request(message: str) -> ApiError:
    return ApiError(400, "bad-request", message)


#: Submission fields and their validators: name -> (type check, default).
_BOOL_FIELDS = ("stop_when_complete", "drop_detected", "include_faults")
_KNOWN_FIELDS = {
    "design", "bench", "tenant", "seed", "max_patterns", "deadline",
    "jobs", "executor", "kernel", "batch_width", "chunk_batches",
    "stop_when_complete", "drop_detected", "include_faults",
}


def _require_int(doc: Mapping[str, Any], key: str,
                 default: Optional[int], minimum: int,
                 maximum: Optional[int] = None) -> Optional[int]:
    value = doc.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise bad_request(f"{key} must be an integer")
    if value < minimum:
        raise bad_request(f"{key} must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise bad_request(f"{key} must be <= {maximum}")
    return value


@dataclass(frozen=True)
class JobRequest:
    """A validated submission: what to simulate, and how."""

    design: Optional[str]
    bench: Optional[str]
    tenant: str
    seed: int
    max_patterns: int
    deadline: Optional[float]
    jobs: Optional[int]
    executor: Optional[str]
    kernel: Optional[str]
    batch_width: int
    chunk_batches: int
    stop_when_complete: bool
    drop_detected: bool
    include_faults: bool

    @classmethod
    def from_json(cls, doc: Any) -> "JobRequest":
        """Validate one submission document (raises :class:`ApiError`)."""
        if not isinstance(doc, dict):
            raise bad_request("submission body must be a JSON object")
        unknown = sorted(set(doc) - _KNOWN_FIELDS)
        if unknown:
            raise bad_request(
                f"unknown field(s): {', '.join(unknown)} "
                f"(accepted: {', '.join(sorted(_KNOWN_FIELDS))})"
            )
        design = doc.get("design")
        bench = doc.get("bench")
        if (design is None) == (bench is None):
            raise bad_request(
                "exactly one of 'design' (a library design name) or "
                "'bench' (.bench netlist text) is required"
            )
        if design is not None and not isinstance(design, str):
            raise bad_request("design must be a string")
        if bench is not None:
            if not isinstance(bench, str):
                raise bad_request("bench must be a string of .bench text")
            if len(bench) > MAX_BENCH_CHARS:
                raise ApiError(413, "too-large",
                               f"bench text exceeds {MAX_BENCH_CHARS} chars")
        tenant = doc.get("tenant", DEFAULT_TENANT)
        if not isinstance(tenant, str) or not tenant:
            raise bad_request("tenant must be a non-empty string")
        deadline = doc.get("deadline")
        if deadline is not None:
            if isinstance(deadline, bool) or \
                    not isinstance(deadline, (int, float)):
                raise bad_request("deadline must be a number of seconds")
            if deadline < 0:
                raise bad_request("deadline must be >= 0")
            deadline = float(deadline)
        executor = doc.get("executor")
        if executor is not None:
            from repro.exec import available_executors

            if executor not in available_executors():
                raise bad_request(
                    f"unknown executor {executor!r} "
                    f"(available: {', '.join(available_executors())})"
                )
        kernel = doc.get("kernel")
        if kernel is not None and kernel not in KERNEL_CHOICES:
            raise bad_request(
                f"unknown kernel {kernel!r} "
                f"(choose from: {', '.join(KERNEL_CHOICES)})"
            )
        for key in _BOOL_FIELDS:
            if key in doc and not isinstance(doc[key], bool):
                raise bad_request(f"{key} must be a boolean")
        seed = _require_int(doc, "seed", 1994, minimum=0)
        assert seed is not None
        return cls(
            design=design,
            bench=bench,
            tenant=tenant,
            seed=seed,
            max_patterns=_require_int(
                doc, "max_patterns", DEFAULT_JOB_PATTERNS,
                minimum=1, maximum=MAX_JOB_PATTERNS) or DEFAULT_JOB_PATTERNS,
            deadline=deadline,
            jobs=_require_int(doc, "jobs", None, minimum=1, maximum=64),
            executor=executor,
            kernel=kernel,
            batch_width=_require_int(
                doc, "batch_width", DEFAULT_BATCH_WIDTH,
                minimum=1, maximum=4096) or DEFAULT_BATCH_WIDTH,
            chunk_batches=_require_int(
                doc, "chunk_batches", DEFAULT_CHUNK_BATCHES,
                minimum=1, maximum=256) or DEFAULT_CHUNK_BATCHES,
            stop_when_complete=bool(doc.get("stop_when_complete", True)),
            drop_detected=bool(doc.get("drop_detected", True)),
            include_faults=bool(doc.get("include_faults", False)),
        )

    # ----------------------------------------------------------- derivations

    @property
    def target(self) -> str:
        """Human-readable name of what this job simulates."""
        if self.design is not None:
            return self.design
        digest = hashlib.sha256(str(self.bench).encode()).hexdigest()
        return f"bench-{digest[:12]}"

    def run_config(self, journal_root, budget: Any,
                   cancel: Any) -> RunConfig:
        """The engine :class:`RunConfig` this submission maps onto.

        ``resume=True`` against the service's shared journal root is what
        makes a drained job resumable: the interrupted run's journal is
        keyed by the same run key a resubmission computes, so the restart
        replays completed rounds instead of re-executing them.
        """
        try:
            execution = ExecutionPolicy(
                executor=self.executor,
                jobs=self.jobs,
                batch_width=self.batch_width,
                chunk_batches=self.chunk_batches,
                kernel=self.kernel,
            )
        except SimulationError as error:  # pragma: no cover - pre-validated
            raise bad_request(str(error)) from error
        return RunConfig(
            execution=execution,
            checkpoint=CheckpointPolicy(directory=journal_root, resume=True),
            budget=budget,
            cancel=cancel,
            max_patterns=self.max_patterns,
            stop_when_complete=self.stop_when_complete,
            drop_detected=self.drop_detected,
            # The service pre-flights explicitly at submission (so lint
            # failures are a 422 before the job ever queues); re-linting
            # inside the engine would only duplicate the work.
            check=False,
        )

    def to_json(self) -> Dict[str, Any]:
        """The submission as recorded on the job (bench text elided)."""
        return {
            "design": self.design,
            "bench_chars": len(self.bench) if self.bench is not None else None,
            "tenant": self.tenant,
            "seed": self.seed,
            "max_patterns": self.max_patterns,
            "deadline": self.deadline,
            "jobs": self.jobs,
            "executor": self.executor,
            "kernel": self.kernel,
            "batch_width": self.batch_width,
            "chunk_batches": self.chunk_batches,
            "stop_when_complete": self.stop_when_complete,
            "drop_detected": self.drop_detected,
        }
