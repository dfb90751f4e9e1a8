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


class _UnionFind:
    """Tiny union-find over hashable fault keys."""

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


def _key(fault: Fault) -> Tuple:
    return (fault.net, fault.stuck_at, fault.gate_index, fault.pin)


def collapse_faults(netlist: Netlist) -> Tuple[List[Fault], Dict[Fault, Fault]]:
    """Return (representative faults, fault -> representative map).

    The representative set is what the simulator works on; the map lets
    callers translate results back to the full universe.
    """
    universe = full_fault_universe(netlist)
    uf = _UnionFind()

    fanout = netlist.fanout_map()
    po_sinks = {net: 1 for net in netlist.primary_outputs}

    def branch_or_stem(net: int, stuck_at: int, gate_index: int, pin: int) -> Tuple:
        """Key of the fault on this gate-input: branch if it exists, else stem."""
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
                in_key = branch_or_stem(net, control, gate_index, pin)
                uf.union(in_key, out_key)
        # XOR/XNOR, CONST: nothing to merge.

    groups: Dict[object, List[Fault]] = {}
    for fault in universe:
        groups.setdefault(uf.find(_key(fault)), []).append(fault)

    representatives: List[Fault] = []
    mapping: Dict[Fault, Fault] = {}
    for members in groups.values():
        # Prefer a stem fault as the representative (cheaper to inject).
        rep = next((f for f in members if f.is_stem), members[0])
        representatives.append(rep)
        for fault in members:
            mapping[fault] = rep
    return representatives, mapping


def collapse_ratio(netlist: Netlist) -> float:
    """Collapsed/full fault-count ratio, a standard figure of merit."""
    reps, mapping = collapse_faults(netlist)
    return len(reps) / max(1, len(mapping))
