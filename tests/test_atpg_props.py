"""Property-based differential suite: event-driven PODEM vs re-simulation.

:func:`repro.atpg.podem` implies each decision event-driven, over the
fault's output cone only.  The reference below is the earlier engine of
the same search: after every decision it re-simulates the whole netlist
in three-valued good/faulty dicts and scans every gate for the
D-frontier.  Both must return the same ``(status, test, backtracks)`` for
every fault, which pins not only the verdicts but the exact search order:
every objective, backtrace, decision, backtrack and abort.

The reference shares no code with the engine beyond the ``Fault`` and
``Netlist`` types: its gate semantics, controlling values and
topological order are written out here.  The netlists are drawn richer
than ``make_random_netlist`` draws them: BUF and constant gates, 3- and
4-input gates, repeated input nets, and primary inputs that are also
primary outputs.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Optional, Tuple
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from repro.atpg.podem import PodemStatus, podem  # noqa: E402
from repro.faultsim.faults import Fault  # noqa: E402
from repro.netlist.gates import GateType  # noqa: E402
from repro.netlist.netlist import Netlist  # noqa: E402


# ----------------------------------------------------- the reference PODEM

X = None

_INVERTING = {GateType.NAND, GateType.NOR, GateType.XNOR, GateType.NOT}
_CONTROLLING = {GateType.AND: 0, GateType.NAND: 0, GateType.OR: 1, GateType.NOR: 1}


def _ref_eval3(gtype: GateType, inputs: List[Optional[int]]) -> Optional[int]:
    """Three-valued gate semantics, written out per gate type."""
    if gtype is GateType.CONST0:
        return 0
    if gtype is GateType.CONST1:
        return 1
    if gtype in (GateType.AND, GateType.NAND):
        if any(v == 0 for v in inputs):
            value: Optional[int] = 0
        elif any(v is X for v in inputs):
            value = X
        else:
            value = 1
    elif gtype in (GateType.OR, GateType.NOR):
        if any(v == 1 for v in inputs):
            value = 1
        elif any(v is X for v in inputs):
            value = X
        else:
            value = 0
    elif gtype in (GateType.XOR, GateType.XNOR):
        if any(v is X for v in inputs):
            value = X
        else:
            value = sum(inputs) % 2
    else:  # BUF, NOT
        value = inputs[0]
    if value is X or gtype not in _INVERTING:
        return value
    return 1 - value


def _ref_order(netlist: Netlist) -> List[int]:
    """Gate indices, each after the gates driving its inputs."""
    placed = set(netlist.primary_inputs)
    order: List[int] = []
    pending = list(range(len(netlist.gates)))
    driven = {gate.output for gate in netlist.gates}
    while pending:
        remaining = []
        for index in pending:
            gate = netlist.gates[index]
            if all(net in placed or net not in driven for net in gate.inputs):
                order.append(index)
                placed.add(gate.output)
            else:
                remaining.append(index)
        assert len(remaining) < len(pending), "netlist is not a DAG"
        pending = remaining
    return order


def _ref_simulate(netlist, fault, order, assignment):
    """(good values, faulty values) for a partial PI assignment."""
    good: Dict[int, Optional[int]] = {}
    bad: Dict[int, Optional[int]] = {}
    for net in netlist.primary_inputs:
        value = assignment.get(net, X)
        good[net] = value
        bad[net] = value
    if fault.is_stem and fault.net in bad:
        bad[fault.net] = fault.stuck_at
    for gate_index in order:
        gate = netlist.gates[gate_index]
        good[gate.output] = _ref_eval3(gate.gtype, [good.get(n, X) for n in gate.inputs])
        bad_inputs = [bad.get(n, X) for n in gate.inputs]
        if (not fault.is_stem) and fault.gate_index == gate_index:
            bad_inputs[fault.pin] = fault.stuck_at
        bad[gate.output] = _ref_eval3(gate.gtype, bad_inputs)
        if fault.is_stem and gate.output == fault.net:
            bad[gate.output] = fault.stuck_at
    return good, bad


def _ref_detected(netlist, good, bad) -> bool:
    for po in netlist.primary_outputs:
        g, b = good.get(po, X), bad.get(po, X)
        if g is not X and b is not X and g != b:
            return True
    return False


def _ref_possibly_detectable(netlist, fault, good, bad) -> bool:
    site_good = good.get(fault.net, X)
    if site_good is not X and site_good == fault.stuck_at:
        return False
    for po in netlist.primary_outputs:
        g, b = good.get(po, X), bad.get(po, X)
        if g is X or b is X or g != b:
            return True
    return False


def _ref_objective(netlist, fault, good, bad) -> Optional[Tuple[int, int]]:
    site_good = good.get(fault.net, X)
    if site_good is X:
        return fault.net, fault.stuck_at ^ 1
    for gate_index, gate in enumerate(netlist.gates):
        if good.get(gate.output, X) is not X and bad.get(gate.output, X) is not X:
            continue
        has_difference = False
        for pin, net in enumerate(gate.inputs):
            g = good.get(net, X)
            b = bad.get(net, X)
            if (not fault.is_stem) and fault.gate_index == gate_index and fault.pin == pin:
                b = fault.stuck_at
            if g is not X and b is not X and g != b:
                has_difference = True
                break
        if not has_difference:
            continue
        control = _CONTROLLING.get(gate.gtype)
        for net in gate.inputs:
            if good.get(net, X) is X:
                want = (control ^ 1) if control is not None else 0
                return net, want
    return None


def _ref_backtrace(netlist, good, net, value) -> Optional[Tuple[int, int]]:
    pis = set(netlist.primary_inputs)
    current, want = net, value
    for _ in range(len(netlist.gates) + len(pis) + 1):
        if current in pis:
            if good.get(current, X) is X:
                return current, want
            return None
        driver = netlist.driver_of(current)
        if driver is None:
            return None
        gate = netlist.gates[driver]
        if gate.gtype in (GateType.CONST0, GateType.CONST1):
            return None
        if gate.gtype in _INVERTING:
            want ^= 1
        x_inputs = [n for n in gate.inputs if good.get(n, X) is X]
        if not x_inputs:
            return None
        current = x_inputs[0]
    return None


def reference_podem(netlist: Netlist, fault: Fault, max_backtracks: int):
    """(status, test, backtracks) of the whole-netlist re-simulating PODEM."""
    order = _ref_order(netlist)
    assignment: Dict[int, int] = {}
    decisions: List[Tuple[int, bool]] = []
    backtracks = 0
    while True:
        good, bad = _ref_simulate(netlist, fault, order, assignment)
        if _ref_detected(netlist, good, bad):
            test = {net: assignment.get(net, 0) for net in netlist.primary_inputs}
            return "detected", test, backtracks
        feasible = _ref_possibly_detectable(netlist, fault, good, bad)
        target = None
        if feasible:
            objective = _ref_objective(netlist, fault, good, bad)
            if objective is not None:
                target = _ref_backtrace(netlist, good, objective[0], objective[1])
        if feasible and target is not None:
            pi, value = target
            assignment[pi] = value
            decisions.append((pi, False))
            continue
        while decisions:
            pi, tried_both = decisions.pop()
            if tried_both:
                del assignment[pi]
                continue
            assignment[pi] ^= 1
            decisions.append((pi, True))
            backtracks += 1
            break
        else:
            return "redundant", None, backtracks
        if backtracks > max_backtracks:
            return "aborted", None, backtracks


# ------------------------------------------------------------- strategies

_UNARY = (GateType.NOT, GateType.BUF)
_CONSTANT = (GateType.CONST0, GateType.CONST1)


@st.composite
def netlists(draw):
    """A DAG over every gate type, 2-4-input gates drawing their inputs
    with repetition, and outputs drawn from all nets, inputs included."""
    netlist = Netlist("drawn")
    nets = netlist.new_inputs(draw(st.integers(1, 8)), "i")
    for index in range(draw(st.integers(1, 32))):
        gtype = draw(st.sampled_from(list(GateType)))
        if gtype in _CONSTANT:
            inputs: List[int] = []
        elif gtype in _UNARY:
            inputs = [draw(st.sampled_from(nets))]
        else:
            inputs = draw(st.lists(st.sampled_from(nets), min_size=2, max_size=4))
        nets.append(netlist.add_gate(gtype, inputs, name=f"g{index}"))
    for net in draw(st.lists(st.sampled_from(nets), min_size=1, max_size=4, unique=True)):
        netlist.mark_output(net)
    return netlist


def every_fault(netlist: Netlist) -> List[Fault]:
    """Both stuck values on every stem and on every gate input pin."""
    stems = list(netlist.primary_inputs) + [gate.output for gate in netlist.gates]
    faults = [Fault(net, value) for net in stems for value in (0, 1)]
    for gate_index, gate in enumerate(netlist.gates):
        for pin, net in enumerate(gate.inputs):
            faults += [Fault(net, value, gate_index, pin) for value in (0, 1)]
    return faults


# ------------------------------------------------------------- properties

@given(netlists(), st.sampled_from([0, 1, 3, 50]))
def test_event_driven_podem_matches_resimulating_reference(netlist, max_backtracks):
    """Same verdict, same test pattern, same backtrack count, fault by
    fault, under tight and loose backtrack limits."""
    for fault in every_fault(netlist):
        result = podem(netlist, fault, max_backtracks)
        got = (result.status.value, result.test, result.backtracks)
        assert got == reference_podem(netlist, fault, max_backtracks), fault


@given(netlists(), st.sampled_from([0, 1, 3, 50]))
def test_classify_faults_shares_one_table_without_moving_a_search(netlist, max_backtracks):
    """``classify_faults`` hands one set of netlist tables to every
    per-fault ``podem`` call, and each search still returns what a lone
    call returns: same status, same test, same backtrack count."""
    faults = every_fault(netlist)
    alone = [podem(netlist, fault, max_backtracks) for fault in faults]
    module = importlib.import_module("repro.atpg.podem")
    calls = []

    def recording(*args, **kwargs):
        result = podem(*args, **kwargs)
        calls.append((kwargs["tables"], result))
        return result

    with mock.patch.object(module, "podem", recording):
        redundant, tests, aborted = module.classify_faults(netlist, faults, max_backtracks)
    assert len({id(tables) for tables, _ in calls}) == 1
    assert [(r.fault, r.status, r.test, r.backtracks) for _, r in calls] == [
        (r.fault, r.status, r.test, r.backtracks) for r in alone
    ]
    assert redundant == [r.fault for r in alone if r.status is PodemStatus.REDUNDANT]
    assert tests == {r.fault: r.test for r in alone if r.status is PodemStatus.DETECTED}
    assert aborted == [r.fault for r in alone if r.status is PodemStatus.ABORTED]
