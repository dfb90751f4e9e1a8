"""Cooperative cancellation: tokens, signal handlers, exit codes.

A :class:`CancelToken` is a thread-safe latch the engine polls at shard-
round boundaries.  :func:`signal_scope` wires SIGINT/SIGTERM to trip a
token instead of raising ``KeyboardInterrupt`` mid-round: the in-flight
shard round drains normally (``future.result`` resumes after the handler
returns), its checkpoint record is flushed, and the run returns a
``partial=True`` result.  :func:`exit_code` maps the tripped token to the
conventional shell codes (130 for SIGINT, 143 for SIGTERM) so guarded CLI
entry points exit the way an unhandled signal would — minus the traceback
and the poisoned checkpoint.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

from repro.guard.budget import STOP_CANCELLED, STOP_SIGINT, STOP_SIGTERM

_SIGNAL_REASONS = {
    signal.SIGINT: STOP_SIGINT,
    signal.SIGTERM: STOP_SIGTERM,
}


class CancelToken:
    """A one-shot cancellation latch (the first trip wins).

    Safe to trip from a signal handler or another thread; the engine only
    ever reads it.  ``reason`` is one of the structured stop reasons from
    :mod:`repro.guard.budget`; ``signum`` records the delivering signal
    when one was involved.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self.reason: Optional[str] = None
        self.signum: Optional[int] = None

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def trip(self, reason: str = STOP_CANCELLED,
             signum: Optional[int] = None) -> None:
        """Latch the token; later trips are ignored (first reason wins)."""
        if self._event.is_set():
            return
        self.reason = reason
        self.signum = signum
        self._event.set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"tripped:{self.reason}" if self.cancelled else "clear"
        return f"CancelToken({state})"


@contextmanager
def signal_scope(
    token: CancelToken,
    signals: Tuple[int, ...] = (signal.SIGINT, signal.SIGTERM),
) -> Iterator[CancelToken]:
    """Route ``signals`` to ``token.trip`` for the duration of the block.

    Previous handlers are restored on exit.  Handlers can only be
    installed from the main thread; elsewhere the scope degrades to a
    no-op (the token still works when tripped in code), so library callers
    can use it unconditionally.
    """
    previous = {}

    def _handler(signum, frame):  # pragma: no cover - exercised via os.kill
        token.trip(_SIGNAL_REASONS.get(signum, STOP_CANCELLED), signum=signum)

    for signum in signals:
        try:
            previous[signum] = signal.signal(signum, _handler)
        except ValueError:
            # Not the main thread: signal handlers are unavailable here.
            pass
    try:
        yield token
    finally:
        for signum, old in previous.items():
            try:
                signal.signal(signum, old)
            except ValueError:  # pragma: no cover - same non-main-thread case
                pass


def exit_code(token: Optional[CancelToken]) -> int:
    """Shell exit code for a (possibly) cancelled run: 0 / 130 / 143."""
    if token is None or not token.cancelled:
        return 0
    if token.signum == signal.SIGTERM or token.reason == STOP_SIGTERM:
        return 143
    return 130
