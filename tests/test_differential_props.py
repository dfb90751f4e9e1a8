"""Property-based differential suite: packed machinery vs naive references.

Every fast path in the simulation stack is checked here against an
independent, deliberately naive implementation on randomly generated
netlists (Hypothesis drives the generation):

* the packed :class:`repro.netlist.evaluate.Evaluator` (one big-int lane
  per pattern, levelized order) against a per-pattern scalar evaluator
  with its own gate semantics and its own fixpoint traversal;
* the event-driven :meth:`FaultSimulator._simulate_fault` propagator
  (schedules only gates reached by events) against brute-force full
  re-evaluation with the fault forced, per pattern, asserting identical
  packed detection masks.

The references share no code with the implementations under test — gate
truth tables are written out independently — so any disagreement is a real
bug in one of them.  Profiles live in ``tests/conftest.py``: CI runs the
``ci`` profile derandomized with a pinned ``--hypothesis-seed``, the
nightly job searches harder with a fresh seed (see ``docs/TESTING.md``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from repro.faultsim.faults import Fault, full_fault_universe  # noqa: E402
from repro.faultsim.simulator import FaultSimulator  # noqa: E402
from repro.netlist.evaluate import Evaluator  # noqa: E402
from repro.netlist.gates import GateType  # noqa: E402
from repro.netlist.netlist import Netlist  # noqa: E402
from tests.conftest import make_random_netlist  # noqa: E402


# ----------------------------------------------------- the naive reference

def _reference_gate(gtype: GateType, inputs: List[int]) -> int:
    """Scalar gate semantics, written out independently of evaluate_gate."""
    if gtype is GateType.AND:
        return int(all(inputs))
    if gtype is GateType.NAND:
        return int(not all(inputs))
    if gtype is GateType.OR:
        return int(any(inputs))
    if gtype is GateType.NOR:
        return int(not any(inputs))
    if gtype is GateType.XOR:
        return sum(inputs) % 2
    if gtype is GateType.XNOR:
        return (sum(inputs) + 1) % 2
    if gtype is GateType.NOT:
        return 1 - inputs[0]
    if gtype is GateType.BUF:
        return inputs[0]
    if gtype is GateType.CONST0:
        return 0
    if gtype is GateType.CONST1:
        return 1
    raise AssertionError(f"unhandled gate type {gtype}")


def _reference_evaluate(
    netlist: Netlist,
    assignment: Dict[int, int],
    fault: Optional[Fault] = None,
    forced: Optional[Dict[int, int]] = None,
) -> Dict[int, int]:
    """Evaluate one scalar pattern by fixpoint sweeps (no levelize).

    With ``fault`` set, the circuit is evaluated *with the fault in
    effect*: a stem fault forces the net's value wherever it is read, a
    branch fault forces only the named gate input pin.  ``forced`` maps
    nets to the 0/1 value they carry whatever drives them.
    """
    forced = forced or {}
    values: Dict[int, int] = {}
    for net in netlist.primary_inputs:
        values[net] = assignment[net] & 1
        if fault is not None and fault.is_stem and fault.net == net:
            values[net] = fault.stuck_at
        if net in forced:
            values[net] = forced[net]
    pending = list(range(len(netlist.gates)))
    while pending:
        remaining = []
        progressed = False
        for gate_index in pending:
            gate = netlist.gates[gate_index]
            if not all(net in values for net in gate.inputs):
                remaining.append(gate_index)
                continue
            inputs = [values[net] for net in gate.inputs]
            if (
                fault is not None
                and not fault.is_stem
                and fault.gate_index == gate_index
            ):
                inputs[fault.pin] = fault.stuck_at
            output = _reference_gate(gate.gtype, inputs)
            if fault is not None and fault.is_stem and fault.net == gate.output:
                output = fault.stuck_at
            values[gate.output] = forced.get(gate.output, output)
            progressed = True
        assert progressed, "netlist is not a DAG"
        pending = remaining
    return values


def _pack(per_pattern: List[Dict[int, int]], netlist: Netlist) -> Dict[int, int]:
    """Column-pack scalar per-pattern net values into big-int lanes."""
    packed: Dict[int, int] = {}
    for index, values in enumerate(per_pattern):
        bit = 1 << index
        for net, value in values.items():
            if value:
                packed[net] = packed.get(net, 0) | bit
    for net in per_pattern[0]:
        packed.setdefault(net, 0)
    return packed


# ------------------------------------------------------------- strategies

@st.composite
def netlist_and_patterns(draw):
    n_inputs = draw(st.integers(min_value=2, max_value=6))
    n_gates = draw(st.integers(min_value=1, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=1 << 20))
    netlist = make_random_netlist(n_inputs, n_gates, seed)
    n_patterns = draw(st.integers(min_value=1, max_value=12))
    patterns = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << n_inputs) - 1),
            min_size=n_patterns, max_size=n_patterns,
        )
    )
    return netlist, patterns


def _input_assignments(netlist: Netlist, patterns: List[int]):
    """Per-pattern scalar PI assignments and the packed equivalent."""
    pis = list(netlist.primary_inputs)
    scalar = [
        {net: (word >> position) & 1 for position, net in enumerate(pis)}
        for word in patterns
    ]
    packed = {
        net: sum(
            ((word >> position) & 1) << index
            for index, word in enumerate(patterns)
        )
        for position, net in enumerate(pis)
    }
    return scalar, packed


# ------------------------------------------------------------- properties

@given(netlist_and_patterns(), st.data())
def test_packed_evaluator_matches_scalar_reference(case, data):
    """Evaluator's big-int lanes agree with naive per-pattern evaluation
    on every net, for every pattern in the batch — also with a random set
    of nets forced to random packed values (``overrides``), some of them
    wider than the batch mask."""
    netlist, patterns = case
    scalar_inputs, packed_inputs = _input_assignments(netlist, patterns)
    mask = (1 << len(patterns)) - 1
    nets = list(netlist.primary_inputs) + [g.output for g in netlist.gates]
    overrides = data.draw(
        st.dictionaries(
            st.sampled_from(nets), st.integers(0, (mask << 2) | 3), max_size=4
        )
    )

    packed = Evaluator(netlist).run(packed_inputs, mask, overrides=overrides)
    reference = _pack(
        [
            _reference_evaluate(
                netlist, row,
                forced={net: (value >> index) & 1
                        for net, value in overrides.items()},
            )
            for index, row in enumerate(scalar_inputs)
        ],
        netlist,
    )
    assert packed == reference


@given(netlist_and_patterns(), st.data())
def test_event_driven_fault_propagation_matches_brute_force(case, data):
    """_simulate_fault's packed detection mask equals, bit for bit, the
    mask obtained by fully re-evaluating the circuit with the fault forced
    and comparing primary outputs pattern by pattern."""
    netlist, patterns = case
    universe = full_fault_universe(netlist)
    fault = data.draw(st.sampled_from(universe))

    scalar_inputs, packed_inputs = _input_assignments(netlist, patterns)
    mask = (1 << len(patterns)) - 1

    golden_rows = [_reference_evaluate(netlist, row) for row in scalar_inputs]
    faulty_rows = [
        _reference_evaluate(netlist, row, fault) for row in scalar_inputs
    ]
    expected = 0
    for index, (golden, faulty) in enumerate(zip(golden_rows, faulty_rows)):
        if any(
            golden[po] != faulty[po] for po in netlist.primary_outputs
        ):
            expected |= 1 << index

    simulator = FaultSimulator(netlist, batch_width=len(patterns))
    good = _pack(golden_rows, netlist)
    assert simulator._simulate_fault(fault, good, mask) == expected


@given(netlist_and_patterns(), st.data())
def test_simulate_batch_detection_indices_match_reference(case, data):
    """simulate_batch records, per fault, exactly the first pattern index
    whose brute-force faulty evaluation differs at a primary output."""
    netlist, patterns = case
    universe = full_fault_universe(netlist)
    faults = data.draw(
        st.lists(st.sampled_from(universe), min_size=1, max_size=6,
                 unique=True)
    )

    scalar_inputs, packed_inputs = _input_assignments(netlist, patterns)
    mask = (1 << len(patterns)) - 1
    golden_rows = [_reference_evaluate(netlist, row) for row in scalar_inputs]
    good = _pack(golden_rows, netlist)

    simulator = FaultSimulator(netlist, batch_width=len(patterns))
    detections = {}
    simulator.simulate_batch(faults, good, mask, 0, detections)

    for fault in faults:
        expected = None
        for index, row in enumerate(scalar_inputs):
            faulty = _reference_evaluate(netlist, row, fault)
            if any(
                golden_rows[index][po] != faulty[po]
                for po in netlist.primary_outputs
            ):
                expected = index
                break
        assert detections.get(fault) == expected
