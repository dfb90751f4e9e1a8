"""Pattern sources for fault simulation.

The paper evaluates with *random* patterns ("random patterns instead of
pseudo-random patterns generated by LFSRs are used"), noting results vary
only slightly with LFSR-generated patterns.  Both sources are provided, each
yielding *packed batches*: for a batch of W patterns the source returns one
integer per input position, with pattern ``i`` at bit ``i``.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Protocol, Sequence

from repro.netlist.evaluate import pack_words, pattern_word


class PatternSource(Protocol):
    """Anything that can produce packed batches of input patterns."""

    n_inputs: int

    def batches(self, batch_width: int) -> Iterator[List[int]]:
        """Yield packed batches forever (callers bound the pattern count)."""
        ...


def source_fingerprint(source) -> Optional[str]:
    """Stable identity of a pattern stream, or None when unknowable.

    Sources expose :meth:`fingerprint`; a run on anything without one is
    never journaled (:mod:`repro.engine.checkpoint`) rather than risking a
    stale-key collision.
    """
    method = getattr(source, "fingerprint", None)
    if method is None:
        return None
    return method()


class RandomPatternSource:
    """Uniform random patterns from a seeded PRNG (reproducible)."""

    def __init__(self, n_inputs: int, seed: int = 1994):
        self.n_inputs = n_inputs
        self.seed = seed

    def fingerprint(self) -> str:
        return f"random:{self.n_inputs}:{self.seed}"

    def batches(self, batch_width: int) -> Iterator[List[int]]:
        # Pattern j is the j-th ``rng.getrandbits(n)`` whatever the batch
        # width.  That call consumes ceil(n/32) 32-bit generator outputs,
        # least significant first, keeping only the top ``n mod 32`` bits
        # of the last one (all 32 when 32 divides n).  One draw of
        # ``stride`` = 32*ceil(n/32) bits per pattern consumes the same
        # outputs in the same order, untruncated: pattern j fills bits
        # [j*stride, (j+1)*stride), its input p at offset p there, or at
        # p + (stride - n) within the last, truncated word.
        rng = random.Random(self.seed)
        n = self.n_inputs
        stride = 32 * -(-n // 32)
        last_word = stride - 32
        offsets = [p if p < last_word else p + stride - n for p in range(n)]
        # In binary, offset b of the last pattern is character stride-1-b
        # and each earlier pattern sits ``stride`` characters further on:
        # every input's packed column, last pattern first as ``int(_, 2)``
        # reads it, is one strided slice.
        starts = [stride - 1 - offset for offset in offsets]
        total = stride * batch_width
        digits = f"0{total}b"
        while True:
            text = format(rng.getrandbits(total), digits)
            yield [int(text[start::stride], 2) for start in starts]


class ExhaustivePatternSource:
    """All 2^n input combinations, in counting order.

    Only sensible for small n; used to certify 100% coverage claims on
    kernels with narrow inputs (e.g. the paper's adders, 16 inputs).
    """

    def __init__(self, n_inputs: int):
        self.n_inputs = n_inputs

    def fingerprint(self) -> str:
        return f"exhaustive:{self.n_inputs}"

    def batches(self, batch_width: int) -> Iterator[List[int]]:
        total = 1 << self.n_inputs
        base = 0
        while True:
            words = [(base + offset) % total for offset in range(batch_width)]
            base += batch_width
            yield pack_words(words, self.n_inputs)


class SequencePatternSource:
    """Replays an explicit list of patterns (each a 0/1 sequence), cycling."""

    def __init__(self, patterns: Sequence[Sequence[int]]):
        if not patterns:
            raise ValueError("empty pattern list")
        self.patterns = [tuple(p) for p in patterns]
        self.n_inputs = n = len(self.patterns[0])
        for index, pattern in enumerate(self.patterns):
            if len(pattern) != n:
                raise ValueError(
                    f"ragged pattern list: row {index} has {len(pattern)} "
                    f"values, row 0 has {n}"
                )
        self._words = [pattern_word(p) for p in self.patterns]

    def fingerprint(self) -> str:
        import hashlib

        digest = hashlib.sha256(repr(self.patterns).encode()).hexdigest()
        return f"sequence:{self.n_inputs}:{digest}"

    def batches(self, batch_width: int) -> Iterator[List[int]]:
        words = self._words
        index = 0
        total = len(words)
        while True:
            batch = [words[(index + offset) % total] for offset in range(batch_width)]
            index += batch_width
            yield pack_words(batch, self.n_inputs)


class LFSRPatternSource:
    """Patterns taken from a maximal-length LFSR (see ``repro.tpg.lfsr``).

    Successive LFSR states are applied as successive patterns, exactly the
    way a BILBO register in TPG mode drives a kernel.
    """

    def __init__(self, n_inputs: int, seed: Optional[int] = None, polynomial=None):
        from repro.tpg.lfsr import Type1LFSR
        from repro.tpg.polynomials import primitive_polynomial

        self.n_inputs = n_inputs
        self._taps = taps = (
            polynomial if polynomial is not None else primitive_polynomial(n_inputs)
        )
        self._lfsr = Type1LFSR(n_inputs, taps)
        self._seed = seed if seed is not None else 1

    def fingerprint(self) -> str:
        return f"lfsr:{self.n_inputs}:{self._seed}:{self._taps}"

    def batches(self, batch_width: int) -> Iterator[List[int]]:
        lfsr = self._lfsr
        state = self._seed
        while True:
            words = []
            for _ in range(batch_width):
                words.append(state)
                state = lfsr.step(state)
            yield pack_words(words, self.n_inputs)
