"""Pattern sources."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.faultsim.patterns import (
    ExhaustivePatternSource,
    LFSRPatternSource,
    RandomPatternSource,
    SequencePatternSource,
)
from repro.netlist.evaluate import unpack_patterns

#: Input counts around the 32-bit words the generator draws in.
WORD_EDGE_INPUTS = (0, 1, 31, 32, 33, 63, 64, 65, 120)
BATCH_WIDTHS = (1, 7, 63, 64, 65, 256, 300)


def _take_patterns(source, count, batch_width=16):
    batches = source.batches(batch_width)
    collected = []
    while len(collected) < count:
        packed = next(batches)
        collected.extend(unpack_patterns(packed, batch_width))
    return collected[:count]


def test_random_source_reproducible():
    s1 = _take_patterns(RandomPatternSource(5, seed=9), 40)
    s2 = _take_patterns(RandomPatternSource(5, seed=9), 40)
    s3 = _take_patterns(RandomPatternSource(5, seed=10), 40)
    assert s1 == s2
    assert s1 != s3


def test_random_source_width():
    patterns = _take_patterns(RandomPatternSource(7, seed=1), 10)
    assert all(len(p) == 7 for p in patterns)


def test_exhaustive_source_covers_everything():
    source = ExhaustivePatternSource(3)
    patterns = _take_patterns(source, 8)
    as_ints = {sum(b << i for i, b in enumerate(p)) for p in patterns}
    assert as_ints == set(range(8))


def test_exhaustive_source_wraps():
    source = ExhaustivePatternSource(2)
    patterns = _take_patterns(source, 10)
    values = [sum(b << i for i, b in enumerate(p)) for p in patterns]
    assert values == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]


def test_sequence_source_cycles():
    base = [(0, 1), (1, 1), (1, 0)]
    source = SequencePatternSource(base)
    patterns = _take_patterns(source, 7)
    assert [tuple(p) for p in patterns] == [
        (0, 1), (1, 1), (1, 0), (0, 1), (1, 1), (1, 0), (0, 1)
    ]


def test_lfsr_source_nonzero_and_periodic():
    source = LFSRPatternSource(4, seed=1)
    patterns = _take_patterns(source, 15)
    values = [sum(b << i for i, b in enumerate(p)) for p in patterns]
    # Maximal-length: 15 distinct non-zero states.
    assert sorted(values) == list(range(1, 16))


def test_lfsr_source_batch_boundary_consistency():
    """The same stream regardless of batch width."""
    a = _take_patterns(LFSRPatternSource(6, seed=3), 30, batch_width=7)
    b = _take_patterns(LFSRPatternSource(6, seed=3), 30, batch_width=32)
    assert a == b


def test_random_source_batch_boundary_consistency():
    """The same stream regardless of batch width."""
    a = _take_patterns(RandomPatternSource(37, seed=3), 300, batch_width=7)
    b = _take_patterns(RandomPatternSource(37, seed=3), 300, batch_width=64)
    c = _take_patterns(RandomPatternSource(37, seed=3), 300, batch_width=300)
    assert a == b == c


def _per_pattern_batches(n_inputs, seed, batch_width):
    """Reference stream: one ``getrandbits(n)`` per pattern, transposed
    bit by bit (the loop ``RandomPatternSource.batches`` must reproduce)."""
    rng = random.Random(seed)
    n = n_inputs
    while True:
        # Draw pattern-major (one word per pattern) so the stream is
        # identical whatever batch width the simulator slices it into.
        packed = [0] * n
        for offset in range(batch_width):
            word = rng.getrandbits(n)
            bit = 1 << offset
            for position in range(n):
                if (word >> position) & 1:
                    packed[position] |= bit
        yield packed


def _assert_matches_per_pattern_draws(n_inputs, seed, batch_width):
    fast = RandomPatternSource(n_inputs, seed).batches(batch_width)
    oracle = _per_pattern_batches(n_inputs, seed, batch_width)
    for _ in range(3):
        assert next(fast) == next(oracle)


@given(
    n_inputs=st.integers(0, 130),
    batch_width=st.sampled_from(BATCH_WIDTHS),
    seed=st.integers(0, 2**64),
)
def test_random_source_matches_per_pattern_draws(n_inputs, batch_width, seed):
    _assert_matches_per_pattern_draws(n_inputs, seed, batch_width)


@pytest.mark.parametrize("n_inputs", WORD_EDGE_INPUTS)
def test_random_source_matches_per_pattern_draws_at_word_edges(n_inputs):
    for batch_width in BATCH_WIDTHS:
        _assert_matches_per_pattern_draws(n_inputs, 1994, batch_width)


def test_random_source_without_inputs_yields_empty_batches():
    batches = RandomPatternSource(0, seed=5).batches(64)
    assert [next(batches) for _ in range(3)] == [[], [], []]


def test_sequence_source_rejects_short_row():
    with pytest.raises(ValueError, match="row 2"):
        SequencePatternSource([(0, 1), (1, 1), (1,), (0,)])


def test_sequence_source_rejects_long_row():
    with pytest.raises(ValueError, match="row 1"):
        SequencePatternSource([(0,), (1, 1)])
