"""Golden rounds: the fault-free evaluations of one run's pattern stream.

Fault simulation spends a fixed cost per round on the fault-free (golden)
circuit before any fault is injected.  The parent process evaluates each
engine round once, as one wide word, and ships it to every shard of the
round; the values live for that round only.  Nothing is shared across
runs: every run draws its own stream.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.errors import SimulationError
from repro.faultsim.patterns import PatternSource
from repro.netlist.evaluate import Evaluator


class GoldenBatches:
    """Forward-only stream of fault-free packed evaluations for one run.

    ``golden_batch(first, widths)`` returns the packed value of every net
    under the *round* made of batches ``first … first + len(widths) - 1``:
    the stimulus is drawn from ``source.batches(batch_width)``, batch
    ``k`` of the round cut to ``widths[k]`` patterns, and the batches'
    input words are joined into one word of ``sum(widths)`` bits for a
    single :meth:`Evaluator.run`.  The batches between the previous round
    and ``first`` (rounds a resumed run replays from its journal) are
    drawn to keep the stream aligned, never evaluated.  Nothing is kept,
    so a round behind the stream raises.
    """

    def __init__(
        self, evaluator: Evaluator, source: PatternSource, batch_width: int
    ):
        self._evaluator = evaluator
        self._source_batches = source.batches(batch_width)
        self._pis = evaluator.primary_inputs
        self.batch_width = batch_width
        self._next_index = 0  #: next batch the stream iterator will yield

    def golden_batch(
        self, first: int, widths: Optional[Sequence[int]] = None
    ) -> Dict[int, int]:
        """Fault-free net values for the round of batches starting at
        ``first``.  ``widths`` lists the patterns each batch contributes;
        ``None`` means one full batch."""
        if first < self._next_index:
            raise SimulationError(
                f"golden round at batch {first} is behind the stream, "
                f"which is at batch {self._next_index}"
            )
        while self._next_index < first:
            next(self._source_batches)
            self._next_index += 1
        geometry = (self.batch_width,) if widths is None else widths
        words = [0] * len(self._pis)
        offset = 0
        for width in geometry:
            packed = next(self._source_batches)
            mask = (1 << width) - 1
            for position in range(len(words)):
                words[position] |= (packed[position] & mask) << offset
            offset += width
        self._next_index += len(geometry)
        return self._evaluator.run(
            dict(zip(self._pis, words)), (1 << offset) - 1
        )
