"""Packed evaluation: correctness against single-pattern reference."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.netlist.evaluate import (
    Evaluator,
    evaluate_single,
    pack_patterns,
    pack_words,
    unpack_patterns,
)

from tests.conftest import make_random_netlist, tiny_and_or


def test_evaluate_single_truth():
    netlist = tiny_and_or()
    a, b, c = (netlist.find_net(n) for n in "abc")
    y = netlist.find_net("y")
    for va in (0, 1):
        for vb in (0, 1):
            for vc in (0, 1):
                values = evaluate_single(netlist, {a: va, b: vb, c: vc})
                assert values[y] == int((va and vb) or vc)


def test_missing_input_raises():
    netlist = tiny_and_or()
    evaluator = Evaluator(netlist)
    with pytest.raises(SimulationError, match="primary input b$"):
        evaluator.run({netlist.find_net("a"): 1}, 1)


def test_overrides_force_net_values():
    netlist = tiny_and_or()
    a, b, c = (netlist.find_net(n) for n in "abc")
    t = netlist.find_net("t")
    y = netlist.find_net("y")
    evaluator = Evaluator(netlist)
    # Force the AND output to 1 although a=b=0.
    values = evaluator.run({a: 0, b: 0, c: 0}, 1, overrides={t: 1})
    assert values[y] == 1


def test_pack_unpack_roundtrip():
    patterns = [[0, 1, 1], [1, 0, 1], [1, 1, 0], [0, 0, 0]]
    packed = pack_patterns(patterns)
    assert unpack_patterns(packed, len(patterns)) == patterns


def test_pack_rejects_ragged():
    with pytest.raises(SimulationError):
        pack_patterns([[0, 1], [1]])


def test_pack_words_transposes_like_pack_patterns():
    patterns = [[0, 1, 1], [1, 0, 1], [1, 1, 0], [0, 0, 0]]
    words = [sum(bit << j for j, bit in enumerate(p)) for p in patterns]
    assert pack_words(words, 3) == pack_patterns(patterns)
    # Bits at the width and above belong to no input.
    assert pack_words([w | 0b11000 for w in words], 3) == pack_patterns(patterns)
    assert pack_words([], 3) == [0, 0, 0]
    assert pack_words(words, 0) == []


@given(st.integers(0, 2**30), st.integers(0, 10))
@settings(max_examples=30, deadline=None)
def test_packed_equals_per_pattern(seed_bits, seed):
    """Property: one packed pass == W independent single-pattern passes."""
    netlist = make_random_netlist(5, 25, seed=seed)
    evaluator = Evaluator(netlist)
    width = 8
    mask = (1 << width) - 1
    rng_bits = seed_bits
    inputs = {}
    for i, net in enumerate(netlist.primary_inputs):
        inputs[net] = (rng_bits >> (i * 6)) & mask
    packed = evaluator.run(inputs, mask)
    for pattern in range(width):
        single_inputs = {
            net: (inputs[net] >> pattern) & 1 for net in netlist.primary_inputs
        }
        single = evaluate_single(netlist, single_inputs)
        for po in netlist.primary_outputs:
            assert (packed[po] >> pattern) & 1 == single[po]


def test_outputs_helper():
    netlist = tiny_and_or()
    evaluator = Evaluator(netlist)
    a, b, c = (netlist.find_net(n) for n in "abc")
    values = evaluator.run({a: 1, b: 1, c: 0}, 1)
    assert evaluator.outputs(values) == [1]
