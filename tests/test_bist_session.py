"""Gate-level BIST session execution and signatures."""

import pytest

from repro.bist.gatesim import MachineFault, SequentialGateSimulator
from repro.bist.session import BISTSession
from repro.core.bibs import make_bibs_testable
from repro.datapath.compiler import Add, Mul, Var, compile_datapath
from repro.errors import SimulationError
from repro.graph.build import build_circuit_graph
from repro.rtl.simulate import RTLSimulator


@pytest.fixture(scope="module")
def tiny():
    a, b = Var("a"), Var("b")
    compiled = compile_datapath([("o", Add(Mul(a, b), a))], "tiny", width=3)
    circuit = compiled.circuit
    design = make_bibs_testable(build_circuit_graph(circuit))
    return circuit, design.kernels[0]


# --------------------------------------------------------------- simulator

def test_gate_simulator_matches_word_simulator(tiny):
    circuit, _ = tiny
    gate_sim = SequentialGateSimulator(circuit)
    word_sim = RTLSimulator(circuit)
    import random

    rng = random.Random(5)
    vectors = [
        {"a": rng.randrange(8), "b": rng.randrange(8)} for _ in range(12)
    ]
    gate_trace = gate_sim.run(len(vectors), lambda t: vectors[t])
    word_trace = word_sim.run(vectors)
    for g, w in zip(gate_trace, word_trace):
        assert g == w


def test_machine_fault_isolation(tiny):
    """A fault in machine 1 must never leak into machine 0."""
    circuit, kernel = tiny
    simulator = SequentialGateSimulator(circuit)
    target = simulator.register_in_bits["R_A1"][0]
    clean = simulator.run(6, lambda t: {"a": 5, "b": 3})
    dual = simulator.run(
        6, lambda t: {"a": 5, "b": 3}, machines=2,
        faults=[MachineFault(1, target, 1)],
    )
    assert clean == dual  # trace reports machine 0 only


def test_fault_on_unknown_machine_rejected(tiny):
    circuit, _ = tiny
    simulator = SequentialGateSimulator(circuit)
    with pytest.raises(SimulationError):
        simulator.run(
            1, lambda t: {"a": 0, "b": 0}, machines=2,
            faults=[MachineFault(5, 0, 1)],
        )


# ------------------------------------------------------------------ session

def test_session_universe_excludes_dead_and_pi_logic(tiny):
    circuit, kernel = tiny
    session = BISTSession(circuit, kernel)
    full = session.fault_universe()
    cone = session.kernel_fault_universe()
    assert 0 < len(cone) < len(full)


def test_session_detects_most_cone_faults(tiny):
    circuit, kernel = tiny
    session = BISTSession(circuit, kernel)
    faults = session.kernel_fault_universe()
    result = session.run(cycles=session.tpg.test_time() + 6, faults=faults)
    assert result.coverage > 0.85
    assert result.golden_signatures  # one per SA register
    assert set(result.golden_signatures) == set(kernel.sa_registers)


def test_session_signature_determinism(tiny):
    circuit, kernel = tiny
    session = BISTSession(circuit, kernel)
    first = session.run(cycles=40)
    second = session.run(cycles=40)
    assert first.golden_signatures == second.golden_signatures


def test_golden_signatures_are_computed_once_per_cycle_count(tiny, tele):
    """A second run of one length reuses the session's golden signatures;
    a run of another length computes its own."""
    circuit, kernel = tiny
    session = BISTSession(circuit, kernel)

    def golden_runs():
        return sum(1 for record in tele.tracer.snapshot()
                   if record.name == "session.golden_signatures")

    first = session.run(cycles=40)
    first.golden_signatures.clear()  # a result owns its copy
    second = session.run(cycles=40)
    assert golden_runs() == 1
    assert set(second.golden_signatures) == set(kernel.sa_registers)
    third = session.run(cycles=41)
    assert golden_runs() == 2
    fresh = BISTSession(circuit, kernel)
    assert second.golden_signatures == fresh.golden_signatures(40)
    assert third.golden_signatures == fresh.golden_signatures(41)


def test_fault_free_fault_list_gives_no_detections(tiny):
    circuit, kernel = tiny
    session = BISTSession(circuit, kernel)
    result = session.run(cycles=30, faults=[])
    assert result.detected == [] and result.undetected == []
    assert result.coverage == 1.0


def test_aliasing_rate_is_small(tiny):
    """With the decoupled MISR polynomial, aliasing sits near 2^-w."""
    circuit, kernel = tiny
    session = BISTSession(circuit, kernel)
    faults = session.kernel_fault_universe()
    aliased, observable = session.aliasing_study(70, faults)
    assert observable > 50
    assert aliased / observable < 0.2  # 3-bit MISR: expectation 12.5%


def test_machines_chunking_consistency(tiny):
    """Results are identical whatever the machines-per-pass chunking."""
    circuit, kernel = tiny
    session = BISTSession(circuit, kernel)
    faults = session.kernel_fault_universe()[:40]
    a = session.run(cycles=50, faults=faults, machines_per_pass=8)
    b = session.run(cycles=50, faults=faults, machines_per_pass=64)
    assert a.golden_signatures == b.golden_signatures
    assert {f for f in a.detected} == {f for f in b.detected}
