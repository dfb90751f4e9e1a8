"""Golden-run cache: fault-free evaluations shared across shards and runs.

Fault simulation spends a fixed cost per batch on the fault-free (golden)
circuit before any fault is injected; a BIST session likewise needs the
golden signature before faulty signatures mean anything.  Both are pure
functions of (circuit structure, stimulus stream), so the engine memoizes
them:

* **batch entries** hold packed fault-free net values per pattern batch,
  keyed by ``(netlist fingerprint, pattern-source fingerprint, batch
  width)``.  Within one parallel run the parent process evaluates each
  golden batch once and ships it to every shard; across runs the entry is
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
from typing import Any, Dict, Hashable, Optional

from repro import telemetry
from repro.faultsim.patterns import PatternSource, source_fingerprint
from repro.netlist.evaluate import Evaluator
from repro.netlist.netlist import Netlist


class GoldenBatches:
    """Lazily extended cache of fault-free packed evaluations for one stream.

    ``golden_batch(i)`` returns the full-width packed value of every net
    under patterns ``[i * batch_width, (i+1) * batch_width)``.  Batches are
    computed on demand and retained, so any consumer — every shard of a
    round, a later run with the same key — pays for each batch once.

    ``max_cached_batches`` bounds retention: past it, the oldest batches
    are evicted LRU-fashion (a 2^17-pattern Table 2 run is 512 batches of
    every-net packed values per kernel; unbounded retention across a sweep
    dominates memory).  A re-request of an evicted batch restarts the
    pattern stream and recomputes — correct for any source that can state a
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
        self._full_mask = (1 << batch_width) - 1
        self.batch_width = batch_width
        self.max_cached_batches = max_cached_batches
        self._golden: "OrderedDict[int, Dict[int, int]]" = OrderedDict()
        self._next_index = 0  #: next batch the stream iterator will yield
        self.evictions = 0
        self.recomputes = 0  #: batches re-evaluated after eviction

    @property
    def n_cached_batches(self) -> int:
        return len(self._golden)

    def _evaluate_next(self) -> Dict[int, int]:
        packed = next(self._source_batches)
        inputs = {
            net: packed[position] & self._full_mask
            for position, net in enumerate(self._pis)
        }
        self._next_index += 1
        return self._evaluator.run(inputs, self._full_mask)

    def golden_batch(self, index: int) -> Dict[int, int]:
        """Fault-free net values for batch ``index`` (computed if new)."""
        cached = self._golden.get(index)
        if cached is not None:
            self._golden.move_to_end(index)
            return cached
        if index < self._next_index:
            # Evicted: restart the (pure) stream and re-advance to it.
            self.recomputes += 1
            self._source_batches = self._source.batches(self.batch_width)
            self._next_index = 0
        while self._next_index <= index:
            position = self._next_index
            values = self._golden[position] = self._evaluate_next()
            if (
                self.max_cached_batches is not None
                and len(self._golden) > self.max_cached_batches
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
    ) -> Optional[GoldenBatches]:
        """The golden-batch entry for (netlist, source, width), or None.

        Returns None — and counts nothing — when the source has no stable
        fingerprint; callers then compute golden values uncached.
        """
        stream_id = source_fingerprint(source)
        if stream_id is None:
            return None
        key = ("batches", netlist.fingerprint(), stream_id, batch_width)
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
