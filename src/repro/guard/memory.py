"""Memory governance: RSS sampling and the pressure watchdog.

``rss_bytes`` reads resident-set sizes from ``/proc/<pid>/statm`` (no
third-party dependency), falling back to ``resource.getrusage`` for the
current process on platforms without procfs.  :class:`MemoryWatchdog`
samples the parent plus its shard workers once per engine round and
reports two thresholds: *pressure* (80% of the hard limit — time to
adapt) and *over the hard limit* (stop the run before the OS OOM-killer
does).  The deterministic ``oom`` chaos mode forces pressure on chosen
rounds so the adaptation ladder is testable without actually exhausting
memory.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional, Tuple

#: Fraction of the hard RSS limit at which the watchdog starts adapting
#: (releasing the worker pool and running later rounds in the parent).
SOFT_FRACTION = 0.8

try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (AttributeError, ValueError, OSError):  # pragma: no cover - non-POSIX
    _PAGE_SIZE = 4096


def rss_bytes(pid: Optional[int] = None) -> Optional[int]:
    """Resident-set size of a process in bytes, or None when unreadable.

    ``pid=None`` reads the current process.  Workers that already exited
    simply report None and drop out of the sum.
    """
    target = "self" if pid is None else str(pid)
    try:
        with open(f"/proc/{target}/statm", "rb") as handle:
            fields = handle.read().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        pass
    if pid is None:  # no procfs: peak RSS of self is better than nothing
        try:
            import resource

            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        except (ImportError, OSError, ValueError):  # pragma: no cover
            return None
    return None


def total_rss(pids: Iterable[int] = ()) -> Optional[int]:
    """Parent RSS plus every readable worker's, or None when unmeasurable."""
    total = rss_bytes()
    if total is None:
        return None
    for pid in pids:
        extra = rss_bytes(pid)
        if extra is not None:
            total += extra
    return total


class MemoryWatchdog:
    """Per-round RSS sampler feeding the guard's adaptation ladder.

    Parameters
    ----------
    max_rss:
        Hard resident-set limit in bytes (None: only chaos can create
        pressure).
    chaos:
        A :class:`~repro.engine.chaos.FaultInjector` whose ``oom`` mode
        forces pressure deterministically on its target rounds.
    """

    def __init__(self, max_rss: Optional[int] = None, chaos=None):
        self.max_rss = max_rss
        self.chaos = chaos

    def sample(self, round_index: int,
               pids: Iterable[int] = ()) -> Tuple[bool, bool]:
        """Measure once; returns ``(pressure, over_hard_limit)``."""
        pressure = False
        hard = False
        if self.max_rss is not None:
            total = total_rss(pids)
            if total is not None:
                pressure = total >= SOFT_FRACTION * self.max_rss
                hard = total >= self.max_rss
        if self.chaos is not None and self.chaos.oom_pressure(round_index):
            pressure = True
        return pressure, hard
