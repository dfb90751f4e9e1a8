"""PODEM combinational ATPG.

The evaluation in the paper reports "100% fault coverage of detectable
faults" — which requires telling *undetectable (redundant)* faults apart
from merely hard-to-hit ones.  After random-pattern fault simulation
saturates, this PODEM implementation decides each leftover fault:

* ``DETECTED``  — a test pattern exists (returned);
* ``REDUNDANT`` — the full implicit search space is exhausted, no test;
* ``ABORTED``   — backtrack limit hit (counted as detectable-unknown).

Classic Goel-style PODEM: objectives, backtrace to a primary input,
three-valued (0/1/X) dual-machine implication, D-frontier tracking,
chronological backtracking over PI assignments.

Implication is event-driven.  Flat tables of the netlist (levels, gate
functions, inputs, fanout, drivers) are built once per netlist — by
:func:`classify_faults` for its whole fault list, or by a lone
:func:`podem` call for its one fault — and each search keeps the good
and the faulty machine's values in two flat lists.  A
decision, a flip, or the un-assignments of one backtrack change a few
primary inputs; those changes are applied together, and only the gates
they reach are re-evaluated, in level order.  A gate whose good *or*
faulty output moved schedules its own fanout.  Outside the fault's output
cone the faulty machine equals the good one, so only cone gates are
evaluated twice, and only cone gates are searched for the D-frontier.

The values after each step equal a whole-netlist re-simulation of the
same assignment, and the search reads them in a fixed order: the
D-frontier is scanned in gate-index order, backtrace follows the first X
input, and the abort limit is checked after each flip.  Backtrack counts,
and so which faults abort, depend on that order;
``tests/test_atpg_props.py`` pins it against a re-simulating reference.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faultsim.faults import Fault
from repro.netlist.gates import CONTROLLING_VALUE, GateType
from repro.netlist.levelize import levelize
from repro.netlist.netlist import Netlist

X = None  # unknown value in the 3-valued domain {0, 1, None}

# Base gate functions; inversion is a separate per-gate flag.
_AND, _OR, _XOR, _BUF, _CONST0, _CONST1 = range(6)
_FUNCTION = {
    GateType.AND: _AND,
    GateType.OR: _OR,
    GateType.XOR: _XOR,
    GateType.BUF: _BUF,
    GateType.CONST0: _CONST0,
    GateType.CONST1: _CONST1,
}


class PodemStatus(enum.Enum):
    DETECTED = "detected"
    REDUNDANT = "redundant"
    ABORTED = "aborted"


@dataclass
class PodemResult:
    status: PodemStatus
    fault: Fault
    test: Optional[Dict[int, int]] = None  # PI net -> 0/1
    backtracks: int = 0


def _eval3(function: int, inverting: bool, inputs: List[Optional[int]]) -> Optional[int]:
    """Three-valued gate evaluation."""
    if function == _AND:
        value = 0 if 0 in inputs else (X if X in inputs else 1)
    elif function == _OR:
        value = 1 if 1 in inputs else (X if X in inputs else 0)
    elif function == _XOR:
        value = X if X in inputs else sum(inputs) & 1
    elif function == _BUF:
        value = inputs[0]
    else:
        return 0 if function == _CONST0 else 1
    if value is X or not inverting:
        return value
    return value ^ 1


class _Tables:
    """Flat per-netlist tables, indexed by gate or by net."""

    def __init__(self, netlist: Netlist):
        gates = netlist.gates
        n_nets = netlist.n_nets
        self.n_gates = len(gates)
        self.primary_inputs = list(netlist.primary_inputs)
        self.primary_outputs = list(netlist.primary_outputs)
        self.is_pi = [False] * n_nets
        for net in self.primary_inputs:
            self.is_pi[net] = True
        self.function = [_FUNCTION[gate.gtype.base] for gate in gates]
        self.inverting = [gate.gtype.is_inverting for gate in gates]
        self.inputs = [gate.inputs for gate in gates]
        self.output = [gate.output for gate in gates]
        # The value a D-frontier objective asks of an X input: the
        # non-controlling value, or 0 for gates that have none.
        self.objective_value = []
        for gate in gates:
            control = CONTROLLING_VALUE.get(gate.gtype)
            self.objective_value.append((control ^ 1) if control is not None else 0)
        self.driver = [-1] * n_nets
        self.fanout: List[List[int]] = [[] for _ in range(n_nets)]
        for index, gate in enumerate(gates):
            self.driver[gate.output] = index
            for net in gate.inputs:
                readers = self.fanout[net]
                if not readers or readers[-1] != index:
                    readers.append(index)
        self.level = [0] * self.n_gates
        net_level = [0] * n_nets
        for index in levelize(netlist):
            lvl = 1 + max((net_level[net] for net in self.inputs[index]), default=0)
            self.level[index] = lvl
            net_level[self.output[index]] = lvl
        self.depth = max(self.level, default=0)


class _Machine:
    """Good and faulty 3-valued net values under a partial PI assignment."""

    def __init__(self, tables: _Tables, fault: Fault):
        self.tables = tables
        self.fault = fault
        n_nets = len(tables.is_pi)
        self.good: List[Optional[int]] = [X] * n_nets
        self.bad: List[Optional[int]] = [X] * n_nets
        self.stuck = fault.stuck_at
        # A stem fault forces its net in the faulty machine; a branch fault
        # forces one input pin of one gate.
        self.stem_net = fault.net if fault.is_stem else -1
        self.pin_gate = -1 if fault.is_stem else fault.gate_index
        self.pin = fault.pin
        if fault.is_stem and tables.is_pi[fault.net]:
            self.bad[fault.net] = fault.stuck_at
        # The output cone: every gate whose faulty output can differ from
        # its good one.  Kept in gate-index order for the D-frontier scan.
        in_cone = [False] * tables.n_gates
        stack = list(tables.fanout[fault.net]) if fault.is_stem else [fault.gate_index]
        while stack:
            index = stack.pop()
            if not in_cone[index]:
                in_cone[index] = True
                stack.extend(tables.fanout[tables.output[index]])
        self.in_cone = in_cone
        self.cone = [index for index in range(tables.n_gates) if in_cone[index]]
        self._buckets: List[List[int]] = [[] for _ in range(tables.depth + 1)]
        self._queued = [False] * tables.n_gates
        self._propagate(range(tables.n_gates))

    def assign(self, assignment: Dict[int, int], changed: Sequence[int]) -> None:
        """Bring the PIs in ``changed`` to ``assignment`` (absent: X), then
        re-evaluate every gate the changes reach."""
        good, bad = self.good, self.bad
        fanout = self.tables.fanout
        readers: List[int] = []
        for net in changed:
            value = assignment.get(net, X)
            good[net] = value
            if net != self.stem_net:
                bad[net] = value
            readers.extend(fanout[net])
        self._propagate(readers)

    def _propagate(self, gates: Sequence[int]) -> None:
        """Evaluate ``gates`` and, level by level, every gate whose input
        changed in either machine."""
        tables = self.tables
        level, function, inverting = tables.level, tables.function, tables.inverting
        inputs, output, fanout = tables.inputs, tables.output, tables.fanout
        good, bad, in_cone = self.good, self.bad, self.in_cone
        stem_net, pin_gate, pin, stuck = self.stem_net, self.pin_gate, self.pin, self.stuck
        buckets, queued = self._buckets, self._queued
        low, high = len(buckets), -1
        for index in gates:
            if not queued[index]:
                queued[index] = True
                lvl = level[index]
                buckets[lvl].append(index)
                low, high = min(low, lvl), max(high, lvl)
        lvl = low
        while lvl <= high:
            bucket = buckets[lvl]
            for index in bucket:
                queued[index] = False
                nets = inputs[index]
                good_value = _eval3(function[index], inverting[index], [good[n] for n in nets])
                out = output[index]
                if in_cone[index]:
                    values = [bad[n] for n in nets]
                    if index == pin_gate:
                        values[pin] = stuck
                    bad_value = _eval3(function[index], inverting[index], values)
                elif out == stem_net:
                    bad_value = stuck
                else:
                    bad_value = good_value
                if good_value != good[out] or bad_value != bad[out]:
                    good[out] = good_value
                    bad[out] = bad_value
                    for reader in fanout[out]:
                        if not queued[reader]:
                            queued[reader] = True
                            reader_level = level[reader]
                            buckets[reader_level].append(reader)
                            if reader_level > high:
                                high = reader_level
            bucket.clear()
            lvl += 1

    def detected(self) -> bool:
        good, bad = self.good, self.bad
        for po in self.tables.primary_outputs:
            g, b = good[po], bad[po]
            if g is not X and b is not X and g != b:
                return True
        return False

    def possibly_detectable(self) -> bool:
        """Cheap pruning: can the fault still be activated and propagated?"""
        # Activation: the good value at the fault site must (be able to)
        # differ from the stuck value.
        site_good = self.good[self.fault.net]
        if site_good is not X and site_good == self.stuck:
            return False
        # Propagation: some PO where the pair is not yet provably equal.
        good, bad = self.good, self.bad
        for po in self.tables.primary_outputs:
            g, b = good[po], bad[po]
            if g is X or b is X or g != b:
                return True
        return False

    def objective(self) -> Optional[Tuple[int, int]]:
        """Next (net, value) objective: activate the fault, then advance the
        D-frontier."""
        good, bad = self.good, self.bad
        site = self.fault.net
        if good[site] is X:
            return site, self.stuck ^ 1
        # Fault is activated; find a D-frontier gate: output not yet
        # resolved in both machines, some input carrying a definite
        # good/bad difference.  Only cone gates can see a difference.
        tables = self.tables
        inputs, output = tables.inputs, tables.output
        for index in self.cone:
            out = output[index]
            if good[out] is not X and bad[out] is not X:
                continue
            nets = inputs[index]
            for pin, net in enumerate(nets):
                g = good[net]
                if g is X:
                    continue
                b = self.stuck if index == self.pin_gate and pin == self.pin else bad[net]
                if b is not X and g != b:
                    break
            else:
                continue
            # Set an X input to the non-controlling value.
            for net in nets:
                if good[net] is X:
                    return net, tables.objective_value[index]
        return None

    def backtrace(self, net: int, value: int) -> Optional[Tuple[int, int]]:
        """Walk an objective back to an unassigned primary input."""
        tables = self.tables
        good = self.good
        current, want = net, value
        for _ in range(tables.n_gates + len(tables.primary_inputs) + 1):
            if tables.is_pi[current]:
                if good[current] is X:
                    return current, want
                return None
            driver = tables.driver[current]
            if driver < 0:
                return None
            if tables.function[driver] in (_CONST0, _CONST1):
                return None
            if tables.inverting[driver]:
                want ^= 1
            # Pursue the first X input; for AND/OR the wanted value carries
            # through unchanged (non-controlling to satisfy 1/0
            # respectively, controlling to force the output), for XOR it is
            # a free choice.
            for candidate in tables.inputs[driver]:
                if good[candidate] is X:
                    current = candidate
                    break
            else:
                return None
        return None


def podem(
    netlist: Netlist,
    fault: Fault,
    max_backtracks: int = 5000,
    *,
    tables: Optional[_Tables] = None,
) -> PodemResult:
    """Run PODEM for one fault.

    ``tables`` optionally supplies the netlist's flat tables, already
    built: a *resource*, not a search parameter, so
    :func:`classify_faults` builds them once for its whole fault list.
    """
    machine = _Machine(_Tables(netlist) if tables is None else tables, fault)
    assignment: Dict[int, int] = {}
    decisions: List[Tuple[int, bool]] = []  # (pi net, tried_both)
    changed: List[int] = []  # PIs reassigned since the last implication
    backtracks = 0

    while True:
        machine.assign(assignment, changed)
        changed = []
        if machine.detected():
            test = {
                net: assignment.get(net, 0) for net in netlist.primary_inputs
            }
            return PodemResult(PodemStatus.DETECTED, fault, test, backtracks)
        feasible = machine.possibly_detectable()
        target: Optional[Tuple[int, int]] = None
        if feasible:
            objective = machine.objective()
            if objective is not None:
                target = machine.backtrace(objective[0], objective[1])
        if feasible and target is not None:
            pi, value = target
            assignment[pi] = value
            decisions.append((pi, False))
            changed.append(pi)
            continue
        # Dead end: backtrack.
        while decisions:
            pi, tried_both = decisions.pop()
            changed.append(pi)
            if tried_both:
                del assignment[pi]
                continue
            assignment[pi] ^= 1
            decisions.append((pi, True))
            backtracks += 1
            break
        else:
            return PodemResult(PodemStatus.REDUNDANT, fault, None, backtracks)
        if backtracks > max_backtracks:
            return PodemResult(PodemStatus.ABORTED, fault, None, backtracks)


def classify_faults(
    netlist: Netlist,
    faults: Sequence[Fault],
    max_backtracks: int = 5000,
) -> Tuple[List[Fault], Dict[Fault, Dict[int, int]], List[Fault]]:
    """(redundant, tests for detectable, aborted) over a fault list.

    The netlist's tables are built once and shared by every fault.
    """
    tables = _Tables(netlist)
    redundant: List[Fault] = []
    tests: Dict[Fault, Dict[int, int]] = {}
    aborted: List[Fault] = []
    for fault in faults:
        result = podem(netlist, fault, max_backtracks, tables=tables)
        if result.status is PodemStatus.REDUNDANT:
            redundant.append(fault)
        elif result.status is PodemStatus.DETECTED:
            tests[fault] = result.test or {}
        else:
            aborted.append(fault)
    return redundant, tests, aborted
