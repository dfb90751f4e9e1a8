"""Multiple-input signature register (MISR) analysis.

The SA half of the BILBO story: output responses are compressed into a
signature; a fault is observed iff its response stream produces a different
signature than the fault-free stream.  The textbook aliasing probability for
an n-bit MISR over long streams is 2^-n.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.tpg.gf2 import exponents_of
from repro.tpg.lfsr import Type1LFSR
from repro.tpg.polynomials import primitive_polynomial


class MISR:
    """An n-bit multiple-input signature register."""

    def __init__(self, width: int, polynomial: Optional[int] = None):
        self.width = width
        self.polynomial = polynomial if polynomial is not None else primitive_polynomial(width)
        self._lfsr = Type1LFSR(width, self.polynomial)
        # The stages the feedback XORs, as ``Type1LFSR`` taps them.
        self._taps = [e - 1 for e in exponents_of(self.polynomial) if e]

    def signature(self, stream: Iterable[int], seed: int = 0) -> int:
        """Compress a stream of parallel response words into a signature."""
        state = seed & self._lfsr.mask
        for word in stream:
            state = self._lfsr.step(state) ^ (word & self._lfsr.mask)
        return state

    def fold(self, stages: Sequence[int], inputs: Sequence[int]) -> List[int]:
        """One clock of many MISRs at once, packed as the simulator packs
        nets: ``stages[i]`` holds stage ``i + 1`` of every machine (bit
        ``m`` is machine ``m``) and ``inputs[i]`` parallel input bit ``i``.
        Each machine's bits step exactly as :meth:`signature` steps its
        state."""
        feedback = 0
        for tap in self._taps:
            feedback ^= stages[tap]
        return [feedback ^ inputs[0]] + [s ^ x for s, x in zip(stages, inputs[1:])]

    @staticmethod
    def unpack(stages: Sequence[int], machine: int) -> int:
        """One machine's signature from :meth:`fold`'s packed stages."""
        return sum(((stage >> machine) & 1) << i for i, stage in enumerate(stages))

    def distinguishes(
        self, good_stream: Iterable[int], bad_stream: Iterable[int], seed: int = 0
    ) -> bool:
        """True iff the two streams produce different signatures."""
        return self.signature(good_stream, seed) != self.signature(bad_stream, seed)

    def aliasing_probability(self) -> float:
        """Asymptotic aliasing probability, 2^-n."""
        return 2.0 ** -self.width


def signature_pair(
    width: int,
    good_stream: Iterable[int],
    bad_stream: Iterable[int],
    polynomial: Optional[int] = None,
) -> Tuple[int, int]:
    """Convenience: (good signature, faulty signature)."""
    misr = MISR(width, polynomial)
    return misr.signature(good_stream), misr.signature(bad_stream)
