"""Golden rounds: the fault-free evaluations of one run's pattern stream.

Fault simulation spends a fixed cost per round on the fault-free (golden)
circuit before any fault is injected.  The parent process evaluates each
engine round once, as one wide word, and ships it to every shard of the
round; the values live for that round only.  Nothing is shared across
runs: every run draws its own stream.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import SimulationError
from repro.faultsim.patterns import PatternSource
from repro.netlist.evaluate import Evaluator


class GoldenBatches:
    """Forward-only stream of fault-free packed evaluations for one run.

    ``golden_batch(pattern_base, width)`` returns the packed value of
    every net under the *round* of ``width`` patterns that starts at
    ``pattern_base``, which is a batch boundary: the stimulus is drawn
    from ``source.batches(batch_width)``, the round's last batch cut
    short when ``width`` is not a whole number of batches, and the
    batches' input words are joined into one ``width``-bit word for a
    single :meth:`Evaluator.run`.  The batches between the previous
    round and this one (rounds a resumed run replays from its journal)
    are drawn to keep the stream aligned, never evaluated.  Nothing is
    kept, so a round behind the stream raises.
    """

    def __init__(
        self, evaluator: Evaluator, source: PatternSource, batch_width: int
    ):
        self._evaluator = evaluator
        self._source_batches = source.batches(batch_width)
        self._pis = evaluator.primary_inputs
        self.batch_width = batch_width
        self._next_index = 0  #: next batch the stream iterator will yield

    def golden_batch(self, pattern_base: int, width: int) -> Dict[int, int]:
        """Fault-free net values for the ``width`` patterns from
        ``pattern_base`` on, as one ``width``-bit word per net."""
        first = pattern_base // self.batch_width
        if first < self._next_index:
            raise SimulationError(
                f"golden round at batch {first} is behind the stream, "
                f"which is at batch {self._next_index}"
            )
        while self._next_index < first:
            next(self._source_batches)
            self._next_index += 1
        batch_mask = (1 << self.batch_width) - 1
        words = [0] * len(self._pis)
        for offset in range(0, width, self.batch_width):
            packed = next(self._source_batches)
            for position in range(len(words)):
                words[position] |= (packed[position] & batch_mask) << offset
            self._next_index += 1
        # The round's mask cuts a short last batch to ``width`` patterns.
        return self._evaluator.run(
            dict(zip(self._pis, words)), (1 << width) - 1
        )
