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
  packed detection masks;
* the engine's golden rounds (:meth:`GoldenBatches.golden_batch`: the
  batches of one round of a pattern stream evaluated as one wide word)
  against the same batches evaluated one at a time and joined.

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

from repro.engine.cache import GoldenBatches  # noqa: E402
from repro.errors import SimulationError  # noqa: E402
from repro.faultsim.faults import Fault, full_fault_universe  # noqa: E402
from repro.faultsim.patterns import (  # noqa: E402
    ExhaustivePatternSource,
    LFSRPatternSource,
    RandomPatternSource,
    SequencePatternSource,
)
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


# ---------------------------------------------------------- golden rounds

@st.composite
def golden_rounds(draw):
    """A random netlist, a built-in pattern source of any kind, a batch
    width of 1–300 and one engine round: its first batch (0–5) and 1–6
    batch widths, all full but the last, which may be short."""
    n_inputs = draw(st.integers(min_value=2, max_value=6))
    n_gates = draw(st.integers(min_value=1, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=1 << 20))
    netlist = make_random_netlist(n_inputs, n_gates, seed)
    kind = draw(st.sampled_from(["random", "lfsr", "exhaustive", "sequence"]))
    if kind == "random":
        source = RandomPatternSource(n_inputs, seed=draw(st.integers(0, 999)))
    elif kind == "lfsr":
        source = LFSRPatternSource(
            n_inputs, seed=draw(st.integers(1, (1 << n_inputs) - 1)))
    elif kind == "exhaustive":
        source = ExhaustivePatternSource(n_inputs)
    else:
        row = st.lists(st.integers(0, 1), min_size=n_inputs,
                       max_size=n_inputs)
        source = SequencePatternSource(
            draw(st.lists(row, min_size=1, max_size=20)))
    batch_width = draw(st.integers(min_value=1, max_value=300))
    n_batches = draw(st.integers(min_value=1, max_value=6))
    last = draw(st.integers(min_value=1, max_value=batch_width))
    widths = [batch_width] * (n_batches - 1) + [last]
    first = draw(st.integers(min_value=0, max_value=5))
    return netlist, source, batch_width, first, widths


def _joined_batches(netlist, source, batch_width, first, widths):
    """The reference round: batches ``first…`` of the stream drawn at
    ``batch_width``, each cut to its width and evaluated on its own, the
    per-batch values then joined at their pattern offsets."""
    evaluator = Evaluator(netlist)
    stream = source.batches(batch_width)
    for _ in range(first):
        next(stream)
    joined: Dict[int, int] = {}
    offset = 0
    for width in widths:
        mask = (1 << width) - 1
        packed = next(stream)
        inputs = {net: packed[position] & mask
                  for position, net in enumerate(netlist.primary_inputs)}
        for net, value in evaluator.run(inputs, mask).items():
            joined[net] = joined.get(net, 0) | (value << offset)
        offset += width
    return joined


@given(golden_rounds())
def test_golden_round_equals_joined_per_batch_evaluations(case):
    """``GoldenBatches.golden_batch(pattern_base, width)`` evaluates a
    round of batches ``first…`` (a short last one included) once and
    equals the per-batch evaluations joined bit for bit; the batches
    before it are drawn but not evaluated.  The stream keeps nothing, so
    reading the round again raises."""
    netlist, source, batch_width, first, widths = case
    expected = _joined_batches(netlist, source, batch_width, first, widths)
    evaluator = Evaluator(netlist)
    calls = []
    run = evaluator.run
    evaluator.run = lambda *args: calls.append(args) or run(*args)
    golden = GoldenBatches(evaluator, source, batch_width)
    pattern_base, width = first * batch_width, sum(widths)
    assert golden.golden_batch(pattern_base, width) == expected
    assert len(calls) == 1
    with pytest.raises(SimulationError, match="behind the stream"):
        golden.golden_batch(pattern_base, width)
