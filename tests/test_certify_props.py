"""Certificates of undetectability (:mod:`repro.atpg.certify`) against
exhaustive enumeration and against PODEM.

Two properties:

1. On random netlists built from copies of a few small block shapes
   (at most 10 primary inputs, so every input pattern can be applied),
   every fault a certificate settles is detected by no pattern.
2. On every kernel of both TDMs of the three Table 2 circuits, over the
   first-round survivors of the protocol's three seeds, the certified set
   equals PODEM's REDUNDANT set.

The enumeration below shares only the netlist, fault and packed fault
simulator with the module under test.
"""

from __future__ import annotations

import importlib
from typing import List, Tuple

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from repro.atpg.certify import (  # noqa: E402
    BLOCK,
    MAX_BLOCK_INPUTS,
    UNOBSERVABLE,
    certify,
)
from repro.core.bibs import make_bibs_testable  # noqa: E402
from repro.core.flow import lower_kernel_to_netlist  # noqa: E402
from repro.core.ka85 import make_ka_testable  # noqa: E402
from repro.datapath.filters import all_filters  # noqa: E402
from repro.exec.config import RunConfig  # noqa: E402
from repro.faultsim.collapse import collapse_faults  # noqa: E402
from repro.faultsim.faults import Fault, full_fault_universe  # noqa: E402
from repro.faultsim.patterns import RandomPatternSource  # noqa: E402
from repro.faultsim.simulator import FaultSimulator  # noqa: E402
from repro.graph.build import build_circuit_graph  # noqa: E402
from repro.netlist.gates import GateType  # noqa: E402
from repro.netlist.netlist import Netlist  # noqa: E402

podem = importlib.import_module("repro.atpg.podem")
certify_module = importlib.import_module("repro.atpg.certify")

#: A block shape: its input count and its gates, each a type and the
#: shape-local nets it reads (inputs first, then earlier gate outputs).
Shape = Tuple[int, List[Tuple[GateType, Tuple[int, ...]]]]

_MULTI = [GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
          GateType.XOR, GateType.XNOR]


@st.composite
def shapes(draw) -> Shape:
    n_inputs = draw(st.integers(1, 3))
    gates = []
    for index in range(draw(st.integers(1, 5))):
        nets = st.integers(0, n_inputs + index - 1)
        gtype = draw(st.sampled_from(_MULTI + [GateType.NOT, GateType.BUF]))
        if gtype in (GateType.NOT, GateType.BUF):
            pins = (draw(nets),)
        else:
            pins = tuple(draw(st.lists(nets, min_size=2, max_size=3)))
        gates.append((gtype, pins))
    return n_inputs, gates


@st.composite
def block_netlists(draw) -> Netlist:
    """Copies of one or two shapes wired at random, each recorded in
    :attr:`Netlist.blocks`; a copy's outputs are whatever later copies
    and the primary outputs happen to read, so copies of one shape differ
    in what they expose."""
    netlist = Netlist("blocks")
    available = netlist.new_inputs(draw(st.integers(1, 10)), "i")
    n_inputs = len(available)
    library = draw(st.lists(shapes(), min_size=1, max_size=2))
    for copy in range(draw(st.integers(2, 6))):
        width, gates = draw(st.sampled_from(library))
        local = [draw(st.sampled_from(available)) for _ in range(width)]
        first = len(netlist.gates)
        for position, (gtype, pins) in enumerate(gates):
            local.append(netlist.add_gate(
                gtype, [local[p] for p in pins], name=f"B{copy}_g{position}"
            ))
        netlist.blocks[f"B{copy}"] = list(range(first, len(netlist.gates)))
        available.extend(local[width:])
    outputs = draw(st.lists(st.sampled_from(available[n_inputs:]),
                            min_size=1, max_size=6, unique=True))
    for net in outputs:
        netlist.mark_output(net)
    return netlist


def detected_faults(netlist: Netlist, faults: List[Fault]) -> List[Fault]:
    """The faults some input pattern detects, all 2^n patterns at once."""
    simulator = FaultSimulator(netlist)
    n_patterns = 1 << len(netlist.primary_inputs)
    mask = (1 << n_patterns) - 1
    words = {
        net: sum(1 << j for j in range(n_patterns) if j >> bit & 1)
        for bit, net in enumerate(netlist.primary_inputs)
    }
    good = simulator.evaluator.run(words, mask)
    detections: dict = {}
    simulator.simulate_batch(faults, good, mask, 0, detections)
    return list(detections)


@given(block_netlists(), st.data())
def test_every_certified_fault_is_undetectable(netlist, data):
    """Property 1: no input pattern detects a certified fault.  The faults
    come in a drawn order, so any copy of a shape may be checked first and
    its verdicts reused for the others."""
    faults = data.draw(st.permutations(full_fault_universe(netlist)))
    certified = certify(netlist, faults, {})
    assert detected_faults(netlist, list(certified)) == []


def test_a_block_certificate_proves_a_classic_redundancy():
    """y = a OR (a AND b) in two copies: t stuck-at-0 leaves y unchanged,
    so it is certified where only y is read, and not where t is a primary
    output too; the copies differ in their outputs, so in their digests."""
    netlist = Netlist("redundant_or")
    a, b = netlist.new_input("a"), netlist.new_input("b")
    faults = []
    for copy, exposed in (("B1", False), ("B2", True)):
        first = len(netlist.gates)
        t = netlist.add_gate(GateType.AND, [a, b], name=f"{copy}_t")
        y = netlist.add_gate(GateType.OR, [a, t], name=f"{copy}_y")
        netlist.blocks[copy] = [first, first + 1]
        netlist.mark_output(y)
        if exposed:
            netlist.mark_output(t)
        faults += [Fault(t, 0), Fault(t, 1), Fault(y, 0), Fault(y, 1)]
    assert certify(netlist, faults, {}) == {faults[0]: BLOCK}
    assert detected_faults(netlist, faults) == faults[1:]


def test_enumeration_reaches_the_last_slice():
    """t = AND of ``MAX_BLOCK_INPUTS`` inputs differs from t stuck-at-0
    only on the all-ones pattern, the last of 2^20: read beside y = OR(i0,
    t), the fault is found there; behind y alone it is certified."""
    for exposed in (False, True):
        netlist = Netlist("and20")
        ins = netlist.new_inputs(MAX_BLOCK_INPUTS, "i")
        t = netlist.add_gate(GateType.AND, ins, name="t")
        netlist.mark_output(netlist.add_gate(GateType.OR, [ins[0], t], name="y"))
        if exposed:
            netlist.mark_output(t)
        netlist.blocks["B"] = [0, 1]
        certified = certify(netlist, [Fault(t, 0)])
        assert certified == ({} if exposed else {Fault(t, 0): BLOCK})


def test_unread_inputs_and_wide_blocks():
    """A primary input nothing reads is unobservable whatever its block
    map; a block wider than ``MAX_BLOCK_INPUTS`` inputs is not
    enumerated, so its redundant fault is left to PODEM."""
    netlist = Netlist("wide")
    ins = netlist.new_inputs(MAX_BLOCK_INPUTS + 2, "i")
    t = netlist.add_gate(GateType.AND, ins[:2], name="t")
    y = netlist.add_gate(GateType.OR, [ins[0], t], name="y")
    wide = netlist.add_gate(GateType.XOR, [y] + ins[2:-1], name="w")
    netlist.mark_output(wide)
    netlist.blocks["B"] = [0, 1, 2]
    faults = [Fault(ins[-1], 0), Fault(ins[-1], 1), Fault(t, 0)]
    assert certify(netlist, faults) == {
        Fault(ins[-1], 0): UNOBSERVABLE, Fault(ins[-1], 1): UNOBSERVABLE,
    }
    netlist.blocks = {"B": [0, 1], "W": [2]}
    assert certify(netlist, faults)[Fault(t, 0)] == BLOCK


# ------------------------------------------------------ Table 2 kernels

#: The protocol's three streams: seed 1994 and its two successors.
SEEDS = (1994, 1994 + 7919, 1994 + 2 * 7919)


def kernel_netlists():
    for name in ("c5a2m", "c3a2m", "c4a4m"):
        circuit = all_filters()[name].circuit
        graph = build_circuit_graph(circuit)
        for design in (make_bibs_testable(graph), make_ka_testable(graph).design):
            for kernel in design.kernels:
                yield lower_kernel_to_netlist(circuit, kernel)


def test_certified_set_is_podems_redundant_set_on_table2_kernels(monkeypatch):
    """Property 2: on every kernel of both TDMs of the three circuits,
    over the first-round survivors of three seeds, the certificates prove
    exactly the faults PODEM proves redundant, with one exhaustive check
    per block shape and fault place."""
    checks = []
    differing = certify_module._Block._differing

    def counting(block, positions):
        checks.extend((block.digest, position) for position in positions)
        return differing(block, positions)

    monkeypatch.setattr(certify_module._Block, "_differing", counting)
    verdicts: dict = {}
    n_survivors = 0
    for netlist in kernel_netlists():
        simulator = FaultSimulator(netlist)
        faults, _ = collapse_faults(netlist)
        survivors = set()
        for seed in SEEDS:
            result = simulator.run(
                RandomPatternSource(len(netlist.primary_inputs), seed=seed),
                faults=faults, config=RunConfig(max_patterns=1024),
            )
            survivors.update(result.undetected)
        survivors = sorted(survivors, key=faults.index)
        certified = certify(netlist, survivors, verdicts)
        redundant, tests, aborted = podem.classify_faults(netlist, survivors)
        assert set(certified) == set(redundant), netlist.name
        assert not tests and not aborted, netlist.name
        n_survivors += len(survivors)
    assert n_survivors == 144
    assert len(checks) == len(set(checks)) == 2
