"""Content-addressed result cache keyed by the checkpoint run key.

The service's cache and the engine's journal share one identity function:
:func:`repro.engine.checkpoint.run_key`.  Anything that would invalidate a
journal (netlist fingerprint, pattern stream, fault list, batch geometry,
pattern budget, stop/drop semantics) invalidates the cached result;
anything the bit-identity contract excludes (executor backend, shard
count, evaluation kernel, retry policy, budgets, chaos) is a cache *hit* —
a ``kernel=vec`` resubmission of a ``kernel=packed`` job is served from
cache because the engine guarantees the bytes match.  A cached payload's
``engine`` block describes the run that produced it.

Only complete results are cached.  A ``partial=True`` result (deadline,
drain, cancellation) answers the submission that produced it but is never
reused: the next identical submission re-runs — resuming from the shared
journal — until a complete result exists to pin.

Hits and misses are counted on the process telemetry registry as
``cache.hit`` / ``cache.miss``, the only ``cache.*`` counters, so a
scrape of ``/metrics`` exposes the service hit rate directly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Optional

from repro import telemetry

#: Default number of cached results (a full payload with fault tables for
#: a 20k-gate design is ~1 MB; 128 of those is a modest resident cost).
DEFAULT_CACHE_SIZE = 128


class ResultCache:
    """A bounded LRU of complete result payloads, keyed by run key.

    Single-threaded by design: the service only touches it from the event
    loop.  Payloads are stored with fault tables included; the result
    endpoint strips them per-request, so one cache entry serves both
    ``include_faults`` shapes.
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_SIZE):
        if max_entries < 1:
            raise ValueError("cache must hold at least one entry")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Optional[str]) -> Optional[Dict[str, Any]]:
        """The cached payload for ``key``, counting the hit or miss.

        ``key=None`` (an unkeyable run: pattern source without a stable
        fingerprint) is always a miss and never stored.
        """
        if key is not None and key in self._entries:
            self._entries.move_to_end(key)
            telemetry.count("cache.hit")
            return self._entries[key]
        telemetry.count("cache.miss")
        return None

    def put(self, key: Optional[str], payload: Dict[str, Any]) -> bool:
        """Store one *complete* result payload; returns whether it stuck.

        Partial results are refused here (not at the call site) so no
        future caller can accidentally pin an interrupted run as the
        canonical answer.
        """
        if key is None or payload.get("partial"):
            return False
        self._entries[key] = payload
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return True

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._entries), "max_entries": self.max_entries}
