"""Equivalence collapsing of stuck-at faults.

Classic structural equivalence rules (Abramovici/Breuer/Friedman, the
paper's reference [14]):

* For an AND/NAND gate, stuck-at-0 on any input pin is equivalent to the
  output stuck at the controlled value (0 for AND, 1 for NAND); dually for
  OR/NOR with stuck-at-1 inputs.
* For NOT/BUF, each input fault is equivalent to an output fault.
* XOR/XNOR gates admit no structural collapsing.

Collapsing only merges *equivalent* faults, so coverage percentages computed
on the collapsed set equal those on the full set.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.faultsim.faults import Fault, full_fault_universe
from repro.netlist.gates import CONTROLLING_VALUE, CONTROLLED_OUTPUT, GateType
from repro.netlist.netlist import Netlist


def collapse_faults(netlist: Netlist) -> Tuple[List[Fault], Dict[Fault, Fault]]:
    """Return (representative faults, fault -> representative map).

    The representative set is what the simulator works on; the map lets
    callers translate results back to the full universe.  Representatives
    come in the order of their classes' first faults in
    :func:`~repro.faultsim.faults.full_fault_universe`, and each is its
    class's first fault there: a stem whenever the class has one (stems
    come first, and are the cheaper to inject).

    The union-find runs over ints: fault sites are numbered stems first
    (site ``net``), then branches (one site per gate input pin), and a
    fault is ``2 * site + stuck_at``.
    """
    universe = full_fault_universe(netlist)
    gates = netlist.gates
    n_nets = netlist.n_nets
    # A gate input is a branch site when its net has more than one sink,
    # a primary output counting as one (as ``full_fault_universe`` does).
    sinks = [0] * n_nets
    first_pin = [0] * len(gates)  # site of each gate's pin 0
    n_sites = n_nets
    for gate_index, gate in enumerate(gates):
        first_pin[gate_index] = n_sites
        n_sites += len(gate.inputs)
        for net in gate.inputs:
            sinks[net] += 1
    for net in set(netlist.primary_outputs):
        sinks[net] += 1
    parent = list(range(2 * n_sites))

    def find(item: int) -> int:
        root = item
        while parent[root] != root:
            root = parent[root]
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for gate_index, gate in enumerate(gates):
        gtype = gate.gtype
        out = 2 * gate.output
        pin_site = first_pin[gate_index]
        if gtype in (GateType.NOT, GateType.BUF):
            net = gate.inputs[0]
            site = pin_site if sinks[net] > 1 else net
            invert = gtype is GateType.NOT
            for value in (0, 1):
                union(2 * site + value, out + ((1 - value) if invert else value))
        elif gtype in CONTROLLING_VALUE:
            control = CONTROLLING_VALUE[gtype]
            out_fault = out + CONTROLLED_OUTPUT[gtype]
            for pin, net in enumerate(gate.inputs):
                site = pin_site + pin if sinks[net] > 1 else net
                union(2 * site + control, out_fault)
        # XOR/XNOR, CONST: nothing to merge.

    groups: Dict[int, List[Fault]] = {}
    for fault in universe:
        gate_index = fault.gate_index
        site = (fault.net if gate_index is None
                else first_pin[gate_index] + fault.pin)
        groups.setdefault(find(2 * site + fault.stuck_at), []).append(fault)
    representatives: List[Fault] = []
    mapping: Dict[Fault, Fault] = {}
    for members in groups.values():
        rep = members[0]
        representatives.append(rep)
        for fault in members:
            mapping[fault] = rep
    return representatives, mapping


def collapse_ratio(netlist: Netlist) -> float:
    """Collapsed/full fault-count ratio, a standard figure of merit."""
    reps, mapping = collapse_faults(netlist)
    return len(reps) / max(1, len(mapping))
