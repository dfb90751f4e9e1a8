"""Fault simulator: detection correctness, dropping, first-detection indices."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.exec import RunConfig
from repro.faultsim.collapse import collapse_faults
from repro.faultsim.faults import Fault, full_fault_universe
from repro.faultsim.patterns import (
    ExhaustivePatternSource,
    RandomPatternSource,
    SequencePatternSource,
)
from repro.faultsim.simulator import FaultSimulator
from repro.netlist.evaluate import evaluate_single
from repro.netlist.gates import GateType, evaluate_gate
from repro.netlist.netlist import Netlist

from tests.conftest import make_random_netlist, tiny_and_or


def naive_detects(netlist, fault, pattern):
    """Reference: full dual simulation without events or packing."""
    assign = {net: pattern[i] for i, net in enumerate(netlist.primary_inputs)}
    good = evaluate_single(netlist, assign)
    # faulty machine
    from repro.netlist.levelize import levelize

    bad = dict(assign)
    if fault.is_stem and fault.net in bad:
        bad[fault.net] = fault.stuck_at
    for gate_index in levelize(netlist):
        gate = netlist.gates[gate_index]
        inputs = [bad[n] for n in gate.inputs]
        if not fault.is_stem and fault.gate_index == gate_index:
            inputs[fault.pin] = fault.stuck_at
        value = evaluate_gate(gate.gtype, inputs, 1)
        if fault.is_stem and gate.output == fault.net:
            value = fault.stuck_at
        bad[gate.output] = value
    return any(good[po] != bad[po] for po in netlist.primary_outputs)


def test_known_detections_on_tiny(tiny):
    simulator = FaultSimulator(tiny)
    y = tiny.find_net("y")
    # y stuck-at-0 is detected by any pattern with output 1, e.g. c=1.
    assert simulator.detects(Fault(y, 0), (0, 0, 1))
    assert not simulator.detects(Fault(y, 0), (0, 0, 0))
    # a stuck-at-1 needs a=0, b=1, c=0.
    a = tiny.find_net("a")
    assert simulator.detects(Fault(a, 1), (0, 1, 0))
    assert not simulator.detects(Fault(a, 1), (1, 1, 0))
    assert not simulator.detects(Fault(a, 1), (0, 0, 0))


@given(st.integers(0, 60))
@settings(max_examples=15, deadline=None)
def test_simulator_matches_naive_reference(seed):
    """Property: event-driven packed simulation == naive dual simulation."""
    netlist = make_random_netlist(4, 15, seed=seed)
    simulator = FaultSimulator(netlist)
    faults = full_fault_universe(netlist)
    for pattern in itertools.product((0, 1), repeat=4):
        for fault in faults[::3]:  # subsample for speed
            assert simulator.detects(fault, pattern) == naive_detects(
                netlist, fault, pattern
            )


def test_run_detects_everything_on_adder():
    from repro.netlist.builders import ripple_adder

    netlist = Netlist()
    a = netlist.new_inputs(4, prefix="a")
    b = netlist.new_inputs(4, prefix="b")
    for net in ripple_adder(netlist, a, b):
        netlist.mark_output(net)
    simulator = FaultSimulator(netlist, batch_width=64)
    result = simulator.run(ExhaustivePatternSource(8), max_patterns=256)
    assert result.coverage() == 1.0
    assert result.n_patterns <= 256


def test_first_detection_indices_are_earliest():
    """The recorded index must be the first detecting pattern in the stream."""
    netlist = tiny_and_or()
    patterns = [(0, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 1)]
    source = SequencePatternSource(patterns)
    simulator = FaultSimulator(netlist, batch_width=3)  # force batch splits
    faults, _ = collapse_faults(netlist)
    result = simulator.run(
        source, max_patterns=4, config=RunConfig(stop_when_complete=False),
    )
    for fault, index in result.first_detection.items():
        assert simulator.detects(fault, patterns[index])
        for earlier in range(index):
            assert not simulator.detects(fault, patterns[earlier])


def test_batch_width_does_not_change_results():
    netlist = make_random_netlist(5, 30, seed=4)
    results = []
    for width in (1, 7, 64):
        simulator = FaultSimulator(netlist, batch_width=width)
        source = RandomPatternSource(5, seed=77)
        result = simulator.run(
            source, max_patterns=64,
            config=RunConfig(stop_when_complete=False),
        )
        results.append(dict(result.first_detection))
    assert results[0] == results[1] == results[2]


def test_stop_when_complete_short_circuits():
    netlist = tiny_and_or()
    simulator = FaultSimulator(netlist, batch_width=8)
    result = simulator.run(ExhaustivePatternSource(3), max_patterns=10_000)
    assert result.coverage() == 1.0
    assert result.n_patterns <= 16


def test_coverage_accounting():
    netlist = tiny_and_or()
    simulator = FaultSimulator(netlist, batch_width=8)
    result = simulator.run(ExhaustivePatternSource(3), max_patterns=8)
    assert result.coverage() == 1.0
    assert result.coverage(after_patterns=0) == 0.0
    # patterns_for_coverage of the full run equals max index + 1.
    full = result.patterns_for_coverage(1.0)
    assert full == max(result.first_detection.values()) + 1
    half = result.patterns_for_coverage(0.5)
    assert half is not None and half <= full


def test_patterns_for_coverage_unreachable():
    netlist = tiny_and_or()
    simulator = FaultSimulator(netlist)
    result = simulator.run(
        SequencePatternSource([(0, 0, 0)]), max_patterns=4,
        config=RunConfig(stop_when_complete=False),
    )
    assert result.patterns_for_coverage(1.0) is None


def test_source_width_mismatch():
    netlist = tiny_and_or()
    simulator = FaultSimulator(netlist)
    with pytest.raises(SimulationError):
        simulator.run(RandomPatternSource(5), max_patterns=10)


def test_invalid_batch_width():
    with pytest.raises(SimulationError):
        FaultSimulator(tiny_and_or(), batch_width=0)


def test_undetectable_fault_never_detected():
    # y = a OR (a AND b): the AND output stuck-at-0 is undetectable
    # (a OR 0 == a == a OR (a AND b) whenever a=1 dominates).
    netlist = Netlist()
    a = netlist.new_input("a")
    b = netlist.new_input("b")
    t = netlist.add_gate(GateType.AND, [a, b], name="t")
    y = netlist.add_gate(GateType.OR, [a, t], name="y")
    netlist.mark_output(y)
    simulator = FaultSimulator(netlist)
    result = simulator.run(
        ExhaustivePatternSource(2), max_patterns=4,
        faults=[Fault(t, 0), Fault(t, 1)],
        config=RunConfig(stop_when_complete=False),
    )
    undetected = result.undetected
    assert Fault(t, 0) in undetected
    assert Fault(t, 1) in result.first_detection
    result.merge_undetectable(undetected)
    assert result.coverage(of_detectable=True) == 1.0
