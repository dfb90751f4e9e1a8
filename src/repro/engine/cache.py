"""Golden-run cache: fault-free evaluations shared across shards and runs.

Fault simulation spends a fixed cost per batch on the fault-free (golden)
circuit before any fault is injected; a BIST session likewise needs the
golden signature before faulty signatures mean anything.  Both are pure
functions of (circuit structure, stimulus stream), so the engine memoizes
them:

* **batch entries** hold packed fault-free net values per engine round
  (a run of consecutive pattern batches evaluated as one wide word),
  keyed by ``(netlist fingerprint, pattern-source fingerprint, batch
  width)``.  Within one parallel run the parent process evaluates each
  round once and ships it to every shard; across runs the entry is
  reused outright (``experiments/table2.py`` re-simulating a kernel, a
  benchmark re-running a budget sweep).
* a **generic memo** stores small derived values under caller-built keys —
  ``repro.bist.session`` keeps golden MISR signatures there so repeated
  sessions on one kernel skip the fault-free machine entirely.

Sources that cannot state a stable :func:`~repro.faultsim.patterns.
source_fingerprint` are never cached (fresh compute beats a stale-key
collision).  Entries are bounded LRU.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Sequence, Tuple

from repro import telemetry
from repro.faultsim.patterns import PatternSource, source_fingerprint
from repro.netlist.evaluate import Evaluator
from repro.netlist.netlist import Netlist


class GoldenBatches:
    """Lazily extended cache of fault-free packed evaluations for one stream.

    ``golden_batch(first, widths)`` returns the packed value of every net
    under the *round* made of batches ``first … first + len(widths) - 1``:
    the stimulus is still drawn from ``source.batches(batch_width)``, batch
    ``k`` of the round cut to ``widths[k]`` patterns, and the batches'
    input words are joined into one word of ``sum(widths)`` bits for a
    single :meth:`Evaluator.run`.  Rounds are computed on demand and
    retained, so any consumer — every shard of a round, a later run with
    the same key and round geometry — pays for each round once.

    ``max_cached_batches`` bounds retention in batches (a round of four
    counts four): past it, the oldest rounds are evicted LRU-fashion, but
    never the round being returned (a 2^17-pattern Table 2 run is 512
    batches of every-net packed values per kernel; unbounded retention
    across a sweep dominates memory).  A round read again after eviction,
    or under another geometry, restarts the pattern stream and recomputes
    — correct for any source that can state a
    :func:`~repro.faultsim.patterns.source_fingerprint`, because such
    sources are pure by contract (that purity is the whole reason their
    golden values are cacheable).
    """

    def __init__(
        self,
        evaluator: Evaluator,
        source: PatternSource,
        batch_width: int,
        max_cached_batches: Optional[int] = None,
    ):
        if max_cached_batches is not None and max_cached_batches < 1:
            raise ValueError("max_cached_batches must be positive")
        self._evaluator = evaluator
        self._source = source
        self._source_batches = source.batches(batch_width)
        self._pis = list(evaluator.netlist.primary_inputs)
        self.batch_width = batch_width
        self.max_cached_batches = max_cached_batches
        #: first batch -> (round widths, golden values)
        self._golden: "OrderedDict[int, Tuple[Tuple[int, ...], Dict]]" = (
            OrderedDict())
        self._next_index = 0  #: next batch the stream iterator will yield
        self.evictions = 0
        self.recomputes = 0  #: stream restarts for a round read again

    @property
    def n_cached_batches(self) -> int:
        return sum(len(widths) for widths, _values in self._golden.values())

    def golden_batch(
        self, first: int, widths: Optional[Sequence[int]] = None
    ) -> Dict[int, int]:
        """Fault-free net values for the round of batches starting at
        ``first`` (computed if new).  ``widths`` lists the patterns each
        batch contributes; ``None`` means one full batch."""
        geometry = (self.batch_width,) if widths is None else tuple(widths)
        cached = self._golden.get(first)
        if cached is not None and cached[0] == geometry:
            self._golden.move_to_end(first)
            return cached[1]
        if first < self._next_index:
            # Evicted or read under another geometry: restart the (pure)
            # stream and re-advance to it.
            self.recomputes += 1
            self._source_batches = self._source.batches(self.batch_width)
            self._next_index = 0
        while self._next_index < first:
            # Batches a resumed run replays from its journal: drawn to
            # keep the stream aligned, never evaluated.
            next(self._source_batches)
            self._next_index += 1
        words = [0] * len(self._pis)
        offset = 0
        for width in geometry:
            packed = next(self._source_batches)
            mask = (1 << width) - 1
            for position in range(len(words)):
                words[position] |= (packed[position] & mask) << offset
            offset += width
        self._next_index += len(geometry)
        values = self._evaluator.run(
            dict(zip(self._pis, words)), (1 << offset) - 1
        )
        self._golden[first] = (geometry, values)
        self._golden.move_to_end(first)
        while (
            self.max_cached_batches is not None
            and self.n_cached_batches > self.max_cached_batches
            and len(self._golden) > 1
        ):
            self._golden.popitem(last=False)
            self.evictions += 1
            telemetry.count("cache.batch_evictions")
        return values


class GoldenCache:
    """Bounded LRU cache of golden runs, with hit/miss accounting.

    One instance can be shared across any number of
    :func:`repro.engine.simulate` calls and BIST sessions; it is keyed by
    content fingerprints, never by object identity.
    """

    def __init__(
        self,
        max_entries: int = 8,
        max_memo_entries: Optional[int] = None,
        max_batches_per_entry: Optional[int] = None,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        if max_memo_entries is not None and max_memo_entries < 1:
            raise ValueError("max_memo_entries must be positive")
        self.max_entries = max_entries
        #: Bound on generic-memo entries; defaults to ``max_entries``.
        self.max_memo_entries = (
            max_memo_entries if max_memo_entries is not None else max_entries
        )
        #: Per-entry bound on retained golden batches (see
        #: :class:`GoldenBatches`); None keeps every batch.
        self.max_batches_per_entry = max_batches_per_entry
        self._batches: "OrderedDict[Hashable, GoldenBatches]" = OrderedDict()
        self._memo: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------- batch entries

    def batch_entry(
        self,
        netlist: Netlist,
        source: PatternSource,
        batch_width: int,
        evaluator: Optional[Evaluator] = None,
        *,
        fingerprint: Optional[str] = None,
    ) -> Optional[GoldenBatches]:
        """The golden-batch entry for (netlist, source, width), or None.

        Returns None — and counts nothing — when the source has no stable
        fingerprint; callers then compute golden values uncached.
        ``fingerprint`` is ``netlist.fingerprint()``, for callers that
        have it already.
        """
        stream_id = source_fingerprint(source)
        if stream_id is None:
            return None
        if fingerprint is None:
            fingerprint = netlist.fingerprint()
        key = ("batches", fingerprint, stream_id, batch_width)
        entry = self._batches.get(key)
        if entry is not None:
            self.hits += 1
            telemetry.count("cache.hits")
            self._batches.move_to_end(key)
            return entry
        self.misses += 1
        telemetry.count("cache.misses")
        entry = GoldenBatches(
            evaluator if evaluator is not None else Evaluator(netlist),
            source,
            batch_width,
            max_cached_batches=self.max_batches_per_entry,
        )
        self._batches[key] = entry
        while len(self._batches) > self.max_entries:
            self._batches.popitem(last=False)
            self.evictions += 1
            telemetry.count("cache.evictions")
        return entry

    # -------------------------------------------------------- generic memo

    def get(self, key: Hashable) -> Optional[Any]:
        """Look up a memoized value (None on miss); counts hit/miss."""
        if key in self._memo:
            self.hits += 1
            telemetry.count("cache.hits")
            self._memo.move_to_end(key)
            return self._memo[key]
        self.misses += 1
        telemetry.count("cache.misses")
        return None

    def put(self, key: Hashable, value: Any) -> None:
        """Store a memoized value under a caller-built key."""
        self._memo[key] = value
        self._memo.move_to_end(key)
        while len(self._memo) > self.max_memo_entries:
            self._memo.popitem(last=False)
            self.evictions += 1
            telemetry.count("cache.evictions")

    # ------------------------------------------------------------ counters

    def counters(self) -> Dict[str, int]:
        """Hit/miss/eviction/entry counts, JSON-safe."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "batch_entries": len(self._batches),
            "memo_entries": len(self._memo),
        }
