"""Deterministic chaos injection for the fault-tolerant engine.

The recovery machinery in :mod:`repro.engine.core` — shard retry with
backoff, per-shard timeouts, pool rebuilds, in-process degradation,
checkpoint/resume — is only trustworthy if it is exercised, and worker
processes do not fail on cue.  A :class:`FaultInjector` makes them: it is a
small picklable spec shipped to every shard round that decides, purely from
``(shard, round, attempt)``, whether to misbehave and how.  Because the
decision is a pure function of those coordinates, a chaos run is exactly
reproducible — CI asserts that the engine's results under injected crashes
are bit-identical to the serial path.

Failure modes
-------------

``crash``
    The worker process dies hard (``os._exit``), breaking the pool the way
    an OOM kill or segfault would.
``raise``
    The worker raises :class:`ChaosError`, exercising the clean-exception
    retry path (the pool survives).
``delay``
    The worker sleeps ``seconds`` before doing its work, tripping the
    engine's shard timeout (the work still completes eventually, so the
    leaked worker drains quickly in tests).
``corrupt``
    The worker silently tampers with its result payload *after* the
    integrity checksum is taken, so the parent's verification catches it —
    the corrupt-and-detect path.
``abort``
    Parent-side: the run raises :class:`ChaosInterrupt` after merging the
    given round, emulating a mid-run interruption (SIGKILL between rounds)
    for checkpoint/resume tests.  For this mode the spec's shard field is
    interpreted as the *round* to abort after.
``sigterm``
    Parent-side: trips the run's :class:`~repro.guard.cancel.CancelToken`
    after merging the given round, emulating a delivered SIGTERM at a
    deterministic point — the run then stops *cleanly* with a
    ``partial=True`` result (contrast ``abort``, which raises).  The shard
    field is the round to cancel after.
``oom``
    Parent-side: forces the guard's memory watchdog to report pressure on
    rounds ``shard .. shard+times-1``, driving the adaptation ladder
    (halve the batch count, degrade to serial) without exhausting real
    memory.  The shard field is the first pressured round.

Specs parse from strings so the hook is reachable from the environment
(``REPRO_CHAOS=crash:1``) as well as from code::

    FaultInjector.parse("crash:1")               # crash shard 1, round 0, once
    FaultInjector.parse("delay:0:seconds=0.4")   # delay shard 0 by 0.4 s
    FaultInjector.parse("raise:2:round=1:times=3")
    FaultInjector.parse("abort:1")               # parent aborts after round 1

``times`` bounds how many *attempts* the injection fires on (default 1), so
by default the first retry of the afflicted shard round succeeds; setting
``times`` past the retry budget forces the degraded in-process path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.errors import SimulationError

#: Environment variable holding a chaos spec for any engine run that does
#: not pass an explicit injector.  Unset (or empty) means no chaos.
CHAOS_ENV_VAR = "REPRO_CHAOS"

_MODES = ("crash", "raise", "delay", "corrupt", "abort", "sigterm", "oom")

#: Modes handled in the parent at round boundaries, never inside a worker.
_PARENT_MODES = ("abort", "sigterm", "oom")


class ChaosError(SimulationError):
    """Raised inside a worker by the ``raise`` failure mode."""


class ChaosInterrupt(RuntimeError):
    """Raised in the parent by the ``abort`` mode to emulate interruption."""


@dataclass(frozen=True)
class FaultInjector:
    """A deterministic failure plan for one engine run.

    Attributes
    ----------
    mode:
        One of ``crash``, ``raise``, ``delay``, ``corrupt``, ``abort``,
        ``sigterm``, ``oom``.
    shard:
        The shard the injection targets (for the parent-side ``abort`` /
        ``sigterm`` / ``oom`` modes: the round it acts on).
    round_index:
        The fan-out round the injection targets (default 0).
    times:
        Number of attempts the injection fires on: attempts ``0 ..
        times-1`` of the targeted shard round misbehave, later retries
        succeed.
    seconds:
        Sleep length for ``delay`` mode.
    """

    mode: str
    shard: int
    round_index: int = 0
    times: int = 1
    seconds: float = 5.0

    def __post_init__(self):
        if self.mode not in _MODES:
            raise SimulationError(
                f"unknown chaos mode {self.mode!r} (expected one of {_MODES})"
            )
        if self.times < 1:
            raise SimulationError("chaos times must be >= 1")

    # ------------------------------------------------------------- parsing

    @classmethod
    def parse(cls, spec: str) -> "FaultInjector":
        """Build an injector from a ``mode:shard[:key=value...]`` spec."""
        tokens = [t for t in spec.strip().split(":") if t]
        if len(tokens) < 2:
            raise SimulationError(
                f"chaos spec {spec!r} must look like 'mode:shard[:key=value...]'"
            )
        mode, shard = tokens[0], tokens[1]
        kwargs = {"round_index": 0, "times": 1, "seconds": 5.0}
        aliases = {"round": "round_index", "seconds": "seconds", "times": "times"}
        for token in tokens[2:]:
            if "=" not in token:
                raise SimulationError(
                    f"chaos spec option {token!r} must be key=value"
                )
            key, value = token.split("=", 1)
            if key not in aliases:
                raise SimulationError(f"unknown chaos spec option {key!r}")
            field = aliases[key]
            kwargs[field] = float(value) if field == "seconds" else int(value)
        try:
            shard_index = int(shard)
        except ValueError:
            raise SimulationError(f"chaos spec shard {shard!r} is not an int")
        return cls(mode=mode, shard=shard_index, **kwargs)

    @classmethod
    def from_env(cls) -> Optional["FaultInjector"]:
        """The injector named by ``$REPRO_CHAOS``, or None when unset."""
        spec = os.environ.get(CHAOS_ENV_VAR, "").strip()
        return cls.parse(spec) if spec else None

    # ------------------------------------------------------------ decisions

    def fires(self, shard: int, round_index: int, attempt: int) -> bool:
        """True when this (shard, round, attempt) should misbehave."""
        if self.mode in _PARENT_MODES:
            # Parent modes act at round boundaries (aborts_after() /
            # cancels_after() / oom_pressure()).
            return False
        return (
            shard == self.shard
            and round_index == self.round_index
            and attempt < self.times
        )

    def aborts_after(self, round_index: int) -> bool:
        """Parent-side: abort the run after merging this round?"""
        return self.mode == "abort" and round_index == self.shard

    def cancels_after(self, round_index: int) -> bool:
        """Parent-side: trip the cancel token after merging this round?"""
        return self.mode == "sigterm" and round_index == self.shard

    def oom_pressure(self, round_index: int) -> bool:
        """Parent-side: force memory pressure on this round?  ``times``
        widens the pressured window (rounds ``shard .. shard+times-1``)."""
        return (
            self.mode == "oom"
            and self.shard <= round_index < self.shard + self.times
        )

    # --------------------------------------------------------- worker side

    def apply(self, shard: int, round_index: int, attempt: int) -> bool:
        """Misbehave if the coordinates match; called inside the worker.

        Returns True when the caller should corrupt its result payload
        (``corrupt`` mode); crash/raise never return, delay sleeps first.
        """
        if not self.fires(shard, round_index, attempt):
            return False
        if self.mode == "crash":
            os._exit(13)
        if self.mode == "raise":
            raise ChaosError(
                f"chaos: injected failure in shard {shard} round {round_index}"
            )
        if self.mode == "delay":
            import time

            time.sleep(self.seconds)
            return False
        return self.mode == "corrupt"

    def describe(self) -> str:
        if self.mode in ("abort", "sigterm"):
            return f"{self.mode}:after-round-{self.shard}"
        if self.mode == "oom":
            return f"oom:rounds-{self.shard}..{self.shard + self.times - 1}"
        extra = f":seconds={self.seconds}" if self.mode == "delay" else ""
        return (
            f"{self.mode}:shard={self.shard}:round={self.round_index}"
            f":times={self.times}{extra}"
        )
