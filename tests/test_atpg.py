"""PODEM ATPG: test generation and redundancy identification."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.atpg.podem import PodemStatus, classify_faults, podem
from repro.core.bibs import make_bibs_testable
from repro.core.flow import lower_kernel_to_netlist
from repro.datapath.filters import all_filters
from repro.faultsim.collapse import collapse_faults
from repro.faultsim.faults import Fault, full_fault_universe
from repro.faultsim.simulator import FaultSimulator
from repro.graph.build import build_circuit_graph
from repro.netlist.builders import ripple_adder
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist

from tests.conftest import make_random_netlist


def redundant_or_circuit():
    """y = a OR (a AND b): t/0 is a classic redundant fault."""
    netlist = Netlist()
    a = netlist.new_input("a")
    b = netlist.new_input("b")
    t = netlist.add_gate(GateType.AND, [a, b], name="t")
    y = netlist.add_gate(GateType.OR, [a, t], name="y")
    netlist.mark_output(y)
    return netlist, t


def test_podem_finds_tests_on_tiny(tiny):
    simulator = FaultSimulator(tiny)
    faults, _ = collapse_faults(tiny)
    for fault in faults:
        result = podem(tiny, fault)
        assert result.status is PodemStatus.DETECTED
        pattern = [result.test[n] for n in tiny.primary_inputs]
        assert simulator.detects(fault, pattern)


def test_podem_proves_redundancy():
    netlist, t = redundant_or_circuit()
    result = podem(netlist, Fault(t, 0))
    assert result.status is PodemStatus.REDUNDANT


def test_podem_detectable_in_redundant_circuit():
    netlist, t = redundant_or_circuit()
    result = podem(netlist, Fault(t, 1))
    assert result.status is PodemStatus.DETECTED


def test_classify_faults_splits_correctly():
    netlist, t = redundant_or_circuit()
    faults = full_fault_universe(netlist)
    redundant, tests, aborted = classify_faults(netlist, faults)
    assert Fault(t, 0) in redundant
    assert not aborted
    simulator = FaultSimulator(netlist)
    for fault, test in tests.items():
        pattern = [test[n] for n in netlist.primary_inputs]
        assert simulator.detects(fault, pattern)


@given(st.integers(0, 40))
@settings(max_examples=10, deadline=None)
def test_podem_agrees_with_exhaustive_search(seed):
    """Property: PODEM says REDUNDANT iff no input pattern detects the fault."""
    netlist = make_random_netlist(4, 10, seed=seed)
    simulator = FaultSimulator(netlist)
    faults, _ = collapse_faults(netlist)
    patterns = list(itertools.product((0, 1), repeat=4))
    for fault in faults[::4]:
        truly_detectable = any(simulator.detects(fault, p) for p in patterns)
        result = podem(netlist, fault, max_backtracks=10_000)
        if result.status is PodemStatus.DETECTED:
            assert truly_detectable
            pattern = [result.test[n] for n in netlist.primary_inputs]
            assert simulator.detects(fault, pattern)
        elif result.status is PodemStatus.REDUNDANT:
            assert not truly_detectable


def test_podem_on_adder_carry_chain():
    """Every collapsed fault of a 4-bit adder is detectable; PODEM finds all."""
    netlist = Netlist()
    a = netlist.new_inputs(4, prefix="a")
    b = netlist.new_inputs(4, prefix="b")
    for net in ripple_adder(netlist, a, b):
        netlist.mark_output(net)
    faults, _ = collapse_faults(netlist)
    simulator = FaultSimulator(netlist)
    for fault in faults:
        result = podem(netlist, fault)
        assert result.status is PodemStatus.DETECTED, fault.describe(netlist)
        pattern = [result.test[n] for n in netlist.primary_inputs]
        assert simulator.detects(fault, pattern)


def test_pin_fault_podem():
    netlist = Netlist()
    a = netlist.new_input("a")
    b = netlist.new_input("b")
    g1 = netlist.add_gate(GateType.AND, [a, b], name="g1")
    g2 = netlist.add_gate(GateType.OR, [a, b], name="g2")
    netlist.mark_output(g1)
    netlist.mark_output(g2)
    pin_fault = Fault(a, 1, gate_index=0, pin=0)
    result = podem(netlist, pin_fault)
    assert result.status is PodemStatus.DETECTED
    simulator = FaultSimulator(netlist)
    pattern = [result.test[n] for n in netlist.primary_inputs]
    assert simulator.detects(pin_fault, pattern)


def bibs_kernel(circuit_name):
    """The single logic kernel of a filter's BIBS design, lowered."""
    circuit = all_filters()[circuit_name].circuit
    design = make_bibs_testable(build_circuit_graph(circuit))
    (kernel,) = [k for k in design.kernels if k.logic_blocks]
    return lower_kernel_to_netlist(circuit, kernel)


@pytest.mark.parametrize("circuit_name,n_gates,faults,backtracks", [
    ("c5a2m", 442, [Fault(170, 1, 109, 0), Fault(374, 1, 313, 0)], 339),
    ("c4a4m", 680, [Fault(136, 1, 75, 0), Fault(306, 1, 245, 0),
                    Fault(476, 1, 415, 0), Fault(612, 1, 551, 0)], 32),
])
def test_deep_redundancy_proofs_on_paper_kernels(circuit_name, n_gates, faults,
                                                 backtracks):
    """The random-resistant faults Table 2 leaves on the BIBS kernels are
    redundant, and the proof takes the same number of backtracks as the
    search has always taken."""
    netlist = bibs_kernel(circuit_name)
    assert len(netlist.gates) == n_gates
    for fault in faults:
        result = podem(netlist, fault)
        assert (result.status, result.backtracks) == (PodemStatus.REDUNDANT, backtracks)
