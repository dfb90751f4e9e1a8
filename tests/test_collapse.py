"""Equivalence collapsing correctness."""

import itertools
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bibs import make_bibs_testable
from repro.core.flow import lower_kernel_to_netlist
from repro.core.ka85 import make_ka_testable
from repro.datapath.filters import all_filters
from repro.faultsim.collapse import collapse_faults, collapse_ratio
from repro.faultsim.faults import Fault, full_fault_universe
from repro.faultsim.simulator import FaultSimulator
from repro.graph.build import build_circuit_graph
from repro.library.scenarios import SCENARIOS
from repro.netlist.gates import CONTROLLED_OUTPUT, CONTROLLING_VALUE, GateType
from repro.netlist.netlist import Netlist

from tests.conftest import make_random_netlist, tiny_and_or


def test_collapse_shrinks_universe():
    netlist = tiny_and_or()
    representatives, mapping = collapse_faults(netlist)
    assert len(representatives) < len(mapping)
    assert set(mapping.values()) == set(representatives)


def test_and_gate_collapse_rule():
    # For y = AND(a, b): a/0, b/0 and y/0 are one equivalence class.
    netlist = Netlist()
    a = netlist.new_input("a")
    b = netlist.new_input("b")
    y = netlist.add_gate(GateType.AND, [a, b])
    netlist.mark_output(y)
    representatives, mapping = collapse_faults(netlist)
    classes = {}
    for fault, rep in mapping.items():
        classes.setdefault(rep, set()).add((fault.net, fault.stuck_at))
    merged = [c for c in classes.values() if len(c) > 1]
    assert len(merged) == 1
    assert merged[0] == {(a, 0), (b, 0), (y, 0)}


def test_nand_gate_collapse_rule():
    netlist = Netlist()
    a = netlist.new_input("a")
    b = netlist.new_input("b")
    y = netlist.add_gate(GateType.NAND, [a, b])
    netlist.mark_output(y)
    _, mapping = collapse_faults(netlist)
    classes = {}
    for fault, rep in mapping.items():
        classes.setdefault(rep, set()).add((fault.net, fault.stuck_at))
    merged = [c for c in classes.values() if len(c) > 1]
    assert merged == [{(a, 0), (b, 0), (y, 1)}]


def test_not_chain_collapses_through():
    # a -> NOT -> NOT -> y: all faults collapse to 2 classes.
    netlist = Netlist()
    a = netlist.new_input("a")
    t = netlist.add_gate(GateType.NOT, [a])
    y = netlist.add_gate(GateType.NOT, [t])
    netlist.mark_output(y)
    representatives, _ = collapse_faults(netlist)
    assert len(representatives) == 2


def test_xor_admits_no_collapse():
    netlist = Netlist()
    a = netlist.new_input("a")
    b = netlist.new_input("b")
    y = netlist.add_gate(GateType.XOR, [a, b])
    netlist.mark_output(y)
    representatives, mapping = collapse_faults(netlist)
    assert len(representatives) == len(mapping) == 6


@given(st.integers(0, 50))
@settings(max_examples=15, deadline=None)
def test_collapsed_classes_are_truly_equivalent(seed):
    """Property: a pattern detects a fault iff it detects its representative.

    Checked exhaustively over all input patterns of a small random netlist.
    """
    netlist = make_random_netlist(4, 12, seed=seed)
    _, mapping = collapse_faults(netlist)
    simulator = FaultSimulator(netlist)
    patterns = list(itertools.product((0, 1), repeat=4))
    for fault, rep in mapping.items():
        if fault == rep:
            continue
        for pattern in patterns:
            assert simulator.detects(fault, pattern) == simulator.detects(rep, pattern)


def test_collapse_ratio_bounds():
    netlist = make_random_netlist(4, 20, seed=2)
    ratio = collapse_ratio(netlist)
    assert 0 < ratio <= 1


# ------------------------------------------------ differential against the
# union-find over fault tuples that collapse_faults used before it numbered
# fault sites; kept verbatim as the oracle for representatives, their order
# and the mapping (its insertion order included).


class _TupleUnionFind:
    def __init__(self):
        self.parent: Dict[object, object] = {}

    def find(self, item):
        parent = self.parent.setdefault(item, item)
        if parent is item or parent == item:
            return item
        root = self.find(parent)
        self.parent[item] = root
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _tuple_collapse(netlist: Netlist) -> Tuple[List[Fault], Dict[Fault, Fault]]:
    universe = full_fault_universe(netlist)
    uf = _TupleUnionFind()
    fanout = netlist.fanout_map()
    po_sinks = {net: 1 for net in netlist.primary_outputs}

    def branch_or_stem(net, stuck_at, gate_index, pin):
        sinks = len(fanout.get(net, ())) + po_sinks.get(net, 0)
        if sinks > 1:
            return (net, stuck_at, gate_index, pin)
        return (net, stuck_at, None, None)

    for gate_index, gate in enumerate(netlist.gates):
        gtype = gate.gtype
        out = gate.output
        if gtype in (GateType.NOT, GateType.BUF):
            invert = gtype is GateType.NOT
            for value in (0, 1):
                in_key = branch_or_stem(gate.inputs[0], value, gate_index, 0)
                out_value = (1 - value) if invert else value
                uf.union(in_key, (out, out_value, None, None))
        elif gtype in CONTROLLING_VALUE:
            control = CONTROLLING_VALUE[gtype]
            controlled = CONTROLLED_OUTPUT[gtype]
            out_key = (out, controlled, None, None)
            for pin, net in enumerate(gate.inputs):
                uf.union(branch_or_stem(net, control, gate_index, pin), out_key)

    groups: Dict[object, List[Fault]] = {}
    for fault in universe:
        key = (fault.net, fault.stuck_at, fault.gate_index, fault.pin)
        groups.setdefault(uf.find(key), []).append(fault)
    representatives: List[Fault] = []
    mapping: Dict[Fault, Fault] = {}
    for members in groups.values():
        rep = next((f for f in members if f.is_stem), members[0])
        representatives.append(rep)
        for fault in members:
            mapping[fault] = rep
    return representatives, mapping


def _assert_same_collapse(netlist: Netlist) -> None:
    representatives, mapping = collapse_faults(netlist)
    expected_reps, expected_mapping = _tuple_collapse(netlist)
    assert representatives == expected_reps
    assert list(mapping.items()) == list(expected_mapping.items())


_MULTI_INPUT = [GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
                GateType.XOR, GateType.XNOR]


@st.composite
def _netlists(draw) -> Netlist:
    """Random DAGs over every gate type: repeated pins, constants, nets
    that are outputs and read, unread gates and unread inputs."""
    netlist = Netlist("drawn")
    nets = netlist.new_inputs(draw(st.integers(1, 5)), "i")
    for index in range(draw(st.integers(1, 14))):
        gtype = draw(st.sampled_from(
            _MULTI_INPUT + [GateType.NOT, GateType.BUF, GateType.CONST0,
                            GateType.CONST1]))
        if gtype in (GateType.CONST0, GateType.CONST1):
            fanin = 0
        elif gtype in (GateType.NOT, GateType.BUF):
            fanin = 1
        else:
            fanin = draw(st.integers(2, 4))
        inputs = [draw(st.sampled_from(nets)) for _ in range(fanin)]
        nets.append(netlist.add_gate(gtype, inputs, name=f"g{index}"))
    for net in draw(st.lists(st.sampled_from(nets), min_size=1, max_size=4)):
        netlist.mark_output(net)
    return netlist


@given(_netlists())
@settings(deadline=None)
def test_numbered_collapse_equals_the_tuple_union_find(netlist):
    _assert_same_collapse(netlist)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_numbered_collapse_on_library_designs(name):
    _assert_same_collapse(SCENARIOS[name]())


def test_numbered_collapse_on_table2_kernels():
    kernels = 0
    for circuit in (filt.circuit for filt in all_filters().values()):
        graph = build_circuit_graph(circuit)
        for design in (make_bibs_testable(graph),
                       make_ka_testable(graph).design):
            for kernel in design.kernels:
                _assert_same_collapse(lower_kernel_to_netlist(circuit, kernel))
                kernels += 1
    assert kernels == 29
