"""Run budgets: wall-clock deadlines, pattern caps and memory ceilings.

A :class:`Budget` is the declarative half of :mod:`repro.guard`: it names
the limits a run must respect — seconds of wall clock, total patterns
applied, resident-set bytes across the parent and its shard workers — and
the engine checks them cooperatively at shard-round boundaries (see
``docs/ROBUSTNESS.md``).  When a limit trips, the run does not raise: it
stops at the next boundary, flushes its checkpoint, and returns a result
flagged ``partial=True`` with one of the structured stop reasons below.

A budget is *armed* once (``arm()`` is idempotent), so a single object
passed to a whole Table 2 sweep bounds the sweep's total wall clock rather
than restarting the countdown per kernel.  Pattern caps only ever stop at
round boundaries — they never narrow a batch — so a budget-cut run keyed
into a checkpoint journal resumes bit-identically without the budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Union

from repro.errors import SimulationError

#: Structured stop reasons a guarded run can report (``FaultSimResult.
#: stop_reason`` / ``ShardStats.stop_reason``).
STOP_DEADLINE = "deadline"        #: the wall-clock budget expired
STOP_PATTERNS = "max_patterns"    #: the pattern budget was reached
STOP_MEMORY = "memory"            #: RSS over the hard limit, post-adaptation
STOP_SIGINT = "sigint"            #: a SIGINT tripped the cancel token
STOP_SIGTERM = "sigterm"          #: a SIGTERM tripped the cancel token
STOP_CANCELLED = "cancelled"      #: the cancel token was tripped in code

STOP_REASONS = (
    STOP_DEADLINE, STOP_PATTERNS, STOP_MEMORY,
    STOP_SIGINT, STOP_SIGTERM, STOP_CANCELLED,
)

_SIZE_SUFFIXES = {
    "": 1, "b": 1,
    "k": 1024, "kb": 1024, "kib": 1024,
    "m": 1024 ** 2, "mb": 1024 ** 2, "mib": 1024 ** 2,
    "g": 1024 ** 3, "gb": 1024 ** 3, "gib": 1024 ** 3,
}


def parse_memory_size(text: Union[int, str]) -> int:
    """``"512M"``/``"2GiB"``/``"1048576"`` -> bytes (suffixes are 1024-based)."""
    if isinstance(text, int):
        return text
    raw = text.strip().lower()
    digits = raw
    suffix = ""
    for i, char in enumerate(raw):
        if not (char.isdigit() or char == "."):
            digits, suffix = raw[:i], raw[i:].strip()
            break
    if suffix not in _SIZE_SUFFIXES:
        raise SimulationError(
            f"bad memory size {text!r} (use e.g. 512M, 2GiB, 1048576)"
        )
    try:
        value = float(digits)
    except ValueError:
        raise SimulationError(f"bad memory size {text!r}")
    return int(value * _SIZE_SUFFIXES[suffix])


@dataclass
class Budget:
    """Resource limits for one run (or one shared sweep).

    Parameters
    ----------
    deadline:
        Wall-clock seconds the run may take, counted from :meth:`arm`.
    max_patterns:
        Cap on applied patterns, enforced at round boundaries (the run
        stops *before* a round that would exceed it, so the cap never
        reshapes batch geometry).
    max_rss:
        Resident-set ceiling in bytes (or a ``"512M"``-style string)
        summed over the parent and its shard workers; approaching it
        triggers the memory-adaptation ladder before the run is stopped.
    """

    deadline: Optional[float] = None
    max_patterns: Optional[int] = None
    max_rss: Optional[Union[int, str]] = None

    def __post_init__(self) -> None:
        if self.max_rss is not None:
            self.max_rss = parse_memory_size(self.max_rss)
        if self.deadline is not None and self.deadline < 0:
            raise SimulationError("budget deadline must be >= 0 seconds")
        if self.max_patterns is not None and self.max_patterns < 0:
            raise SimulationError("budget max_patterns must be >= 0")
        if self.max_rss is not None and self.max_rss < 0:
            raise SimulationError("budget max_rss must be >= 0 bytes")
        self._expires_at: Optional[float] = None

    # ------------------------------------------------------------- lifecycle

    def arm(self) -> "Budget":
        """Start the deadline countdown (idempotent: first call wins).

        Sharing one armed budget across a sweep bounds the *sweep*; each
        engine run arms whatever budget it receives, so un-armed budgets
        behave per-run automatically.
        """
        if self.deadline is not None and self._expires_at is None:
            self._expires_at = time.monotonic() + self.deadline
        return self

    def expired(self) -> bool:
        """True once the armed deadline has passed (never for no deadline)."""
        return self._expires_at is not None and time.monotonic() >= self._expires_at

    # ----------------------------------------------------------------- views

    def to_json(self) -> Dict[str, Any]:
        return {
            "deadline": self.deadline,
            "max_patterns": self.max_patterns,
            "max_rss": self.max_rss,
        }

    @classmethod
    def from_cli(
        cls,
        deadline: Optional[float] = None,
        max_memory: Optional[Union[int, str]] = None,
        max_patterns: Optional[int] = None,
    ) -> Optional["Budget"]:
        """A budget from ``--deadline/--max-memory/--max-patterns`` flags,
        or None when no flag was given (unguarded run)."""
        if deadline is None and max_memory is None and max_patterns is None:
            return None
        return cls(deadline=deadline, max_patterns=max_patterns, max_rss=max_memory)
