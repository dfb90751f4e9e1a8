"""The run guard: one object the engine polls at every round boundary.

:class:`RunGuard` composes the three governance mechanisms —
:class:`~repro.guard.budget.Budget`, :class:`~repro.guard.cancel.
CancelToken` and :class:`~repro.guard.memory.MemoryWatchdog` — behind two
calls the engine makes per round: :meth:`should_stop` before dispatching a
round (cancellation first, then deadline, then the pattern cap) and
:meth:`after_round` / :meth:`memory_action` after merging it (chaos
cancellation, then the memory-adaptation ladder).  ``RunGuard.create``
returns None for unguarded runs so the hot path stays a single ``is not
None`` check.

The memory ladder has two rungs.  Under pressure the guard first
releases the worker pool and moves later rounds into the parent
(``"serial"``); only once rounds run in the parent *and* RSS is over the
hard limit does it stop the run (``"stop"``, stop reason ``"memory"``).
A run's rounds keep their planned width throughout.  Every step is
counted in ``guard.*`` telemetry and in ``ShardStats.memory_adaptations``.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro import telemetry
from repro.guard.budget import (
    STOP_CANCELLED,
    STOP_MEMORY,
    STOP_PATTERNS,
    STOP_SIGTERM,
    STOP_DEADLINE,
    Budget,
)
from repro.guard.cancel import CancelToken
from repro.guard.memory import MemoryWatchdog

#: Chaos modes the guard (not the worker) interprets.
_GUARD_CHAOS_MODES = ("sigterm", "oom")


class RunGuard:
    """Round-boundary governance for one engine run."""

    def __init__(
        self,
        budget: Optional[Budget] = None,
        cancel: Optional[CancelToken] = None,
        chaos=None,
    ):
        self.budget = budget.arm() if budget is not None else None
        self.cancel = cancel
        self.chaos = chaos
        watched_rss = budget.max_rss if budget is not None else None
        oom_chaos = chaos if chaos is not None and chaos.mode == "oom" else None
        self.watchdog: Optional[MemoryWatchdog] = None
        if watched_rss is not None or oom_chaos is not None:
            self.watchdog = MemoryWatchdog(watched_rss, chaos=oom_chaos)
        self.stop_reason: Optional[str] = None

    @classmethod
    def create(
        cls,
        budget: Optional[Budget],
        cancel: Optional[CancelToken],
        chaos=None,
    ) -> Optional["RunGuard"]:
        """A guard when any governance is requested, else None."""
        chaos_guarded = chaos is not None and chaos.mode in _GUARD_CHAOS_MODES
        if budget is None and cancel is None and not chaos_guarded:
            return None
        return cls(budget, cancel, chaos if chaos_guarded else None)

    # -------------------------------------------------------- stop decisions

    def should_stop(self, pattern_base: int,
                    next_patterns: int) -> Optional[str]:
        """Stop reason if the run must end *before* the next round.

        The pattern cap stops only at round boundaries — when the base has
        reached the cap or the next round would overshoot it — so a capped
        run never narrows a batch and its checkpoint journal stays
        bit-compatible with the uncapped run.
        """
        if self.cancel is not None and self.cancel.cancelled:
            return self._stop(self.cancel.reason or STOP_CANCELLED)
        if self.budget is not None:
            if self.budget.expired():
                return self._stop(STOP_DEADLINE)
            cap = self.budget.max_patterns
            if cap is not None and (
                pattern_base >= cap or pattern_base + next_patterns > cap
            ):
                return self._stop(STOP_PATTERNS)
        return None

    def _stop(self, reason: str) -> str:
        if self.stop_reason is None:
            self.stop_reason = reason
            telemetry.count("guard.stops")
            telemetry.count(f"guard.stop.{reason}")
            with telemetry.span("guard.stop", reason=reason):
                pass
        return self.stop_reason

    # ----------------------------------------------------- post-round hooks

    def after_round(self, round_index: int) -> None:
        """Deterministic chaos cancellation (the ``sigterm`` mode)."""
        if self.chaos is not None and self.chaos.cancels_after(round_index):
            if self.cancel is None:
                self.cancel = CancelToken()
            self.cancel.trip(STOP_SIGTERM)

    def memory_action(
        self,
        round_index: int,
        pids: Iterable[int],
        already_serial: bool,
    ) -> Optional[str]:
        """One rung of the adaptation ladder, or None when unpressured.

        Returns ``"serial"`` (release the pool; later rounds run in the
        parent) or ``"stop"`` (rounds already run in the parent and RSS is
        still over the hard limit); the engine applies the action, this
        counts it.
        """
        if self.watchdog is None:
            return None
        pressure, hard = self.watchdog.sample(round_index, pids)
        if not pressure:
            return None
        telemetry.count("guard.memory_pressure")
        if not already_serial:
            telemetry.count("guard.degrade_serial")
            return "serial"
        if hard:
            self._stop(STOP_MEMORY)
            return "stop"
        return None
