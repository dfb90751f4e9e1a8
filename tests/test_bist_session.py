"""Gate-level BIST session execution and signatures."""

import pytest

from repro.bilbo.misr import MISR
from repro.bist import gatesim
from repro.bist.gatesim import MachineFault, SequentialGateSimulator
from repro.bist.session import BISTSession
from repro.core.bibs import make_bibs_testable
from repro.datapath.compiler import Add, Mul, Var, compile_datapath
from repro.errors import SimulationError
from repro.graph.build import build_circuit_graph
from repro.rtl.simulate import RTLSimulator
from repro.tpg.polynomials import primitive_polynomial


@pytest.fixture(scope="module")
def tiny():
    a, b = Var("a"), Var("b")
    compiled = compile_datapath([("o", Add(Mul(a, b), a))], "tiny", width=3)
    circuit = compiled.circuit
    design = make_bibs_testable(build_circuit_graph(circuit))
    return circuit, design.kernels[0]


def sa_word_streams(session, cycles, faults):
    """Each SA register's word stream per machine, from one plain
    simulator run: machine 0 fault-free, machine ``i + 1`` carrying
    ``faults[i]``; ``words[name][machine][t]``."""
    simulator = SequentialGateSimulator(session.circuit)
    streams = session.tpg.register_streams(cycles, seed=session.seed)
    machines = len(faults) + 1
    words = {name: [[] for _ in range(machines)]
             for name in session.kernel.sa_registers}

    def observe(t, values):
        for name, per_machine in words.items():
            bits = simulator.register_in_bits[name]
            for machine, stream in enumerate(per_machine):
                stream.append(simulator.machine_word(values, bits, machine))

    simulator.run(
        cycles,
        lambda t: {"a": 0, "b": 0},
        machines=machines,
        faults=[MachineFault(i + 1, f.net, f.stuck_at)
                for i, f in enumerate(faults)],
        forced_registers=lambda t: {
            name: streams[name][t] for name in session.kernel.tpg_registers
        },
        observe=observe,
    )
    return words


def scalar_signatures(session, words, machine):
    """``MISR.signature`` of one machine's SA word streams."""
    return {name: session._misrs[name].signature(per_machine[machine])
            for name, per_machine in words.items()}


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


def test_run_golden_signatures_equal_a_fresh_sessions(tiny):
    """A run owns its golden signatures, and they equal a fresh session's
    at the same length."""
    circuit, kernel = tiny
    session = BISTSession(circuit, kernel)
    first = session.run(cycles=40)
    first.golden_signatures.clear()  # a result owns its copy
    second = session.run(cycles=40)
    assert set(second.golden_signatures) == set(kernel.sa_registers)
    third = session.run(cycles=41)
    fresh = BISTSession(circuit, kernel)
    assert second.golden_signatures == fresh.golden_signatures(40)
    assert third.golden_signatures == fresh.golden_signatures(41)


def test_packed_fold_matches_scalar_misr_per_machine(tiny):
    """Every signature a run reports, golden and faulty, is the scalar
    ``MISR.signature`` of that machine's own SA word stream."""
    circuit, kernel = tiny
    session = BISTSession(circuit, kernel)
    faults = session.fault_universe()[::4][:20]
    result = session.run(40, faults=faults)
    assert result.detected and result.undetected
    words = sa_word_streams(session, 40, faults)
    assert result.golden_signatures == scalar_signatures(session, words, 0)
    for machine, fault in enumerate(faults, 1):
        assert result.fault_signatures[fault] == scalar_signatures(
            session, words, machine)


def test_golden_signatures_follow_a_replaced_misr(tiny):
    """A MISR swapped into a session folds the next run's golden machine
    too: no golden signature outlives the polynomial that made it."""
    circuit, kernel = tiny
    session = BISTSession(circuit, kernel)
    cycles = (1 << session.tpg.lfsr_stages) - 1 + 1  # near-period window
    faults = session.kernel_fault_universe()[:20]
    before = session.run(cycles, faults=faults)
    for name, width in kernel.sa_registers.items():
        session._misrs[name] = MISR(width, primitive_polynomial(width))
    after = session.run(cycles, faults=faults)
    expected = scalar_signatures(session, sa_word_streams(session, cycles, []), 0)
    assert after.golden_signatures == expected
    assert expected != before.golden_signatures


def test_aliasing_study_is_one_sweep(tiny, monkeypatch):
    """40 faults fit one pass, so the study simulates each fault once,
    beside the golden machine, and agrees with a per-fault, per-cycle
    comparison of the raw SA word streams."""
    circuit, kernel = tiny
    session = BISTSession(circuit, kernel)
    faults = session.fault_universe()[::4][:40]
    words = sa_word_streams(session, 40, faults)
    golden = scalar_signatures(session, words, 0)
    observable = [
        machine for machine in range(1, len(faults) + 1)
        if any(per_machine[machine] != per_machine[0]
               for per_machine in words.values())
    ]
    aliased = [machine for machine in observable
               if scalar_signatures(session, words, machine) == golden]
    assert 0 < len(aliased) < len(observable) < len(faults)

    runs = []
    simulate = SequentialGateSimulator.run

    def counted(self, *args, **kwargs):
        runs.append(args[0])
        return simulate(self, *args, **kwargs)

    monkeypatch.setattr(SequentialGateSimulator, "run", counted)
    assert session.aliasing_study(40, faults) == (len(aliased), len(observable))
    assert runs == [40]


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


def test_machines_chunking_consistency(tiny, monkeypatch):
    """Results are identical whatever the number of machines per pass."""
    circuit, kernel = tiny
    session = BISTSession(circuit, kernel)
    faults = session.kernel_fault_universe()[:40]
    b = session.run(cycles=50, faults=faults)
    b_aliasing = session.aliasing_study(50, faults)
    monkeypatch.setattr(gatesim, "MACHINES_PER_PASS", 8)
    a = session.run(cycles=50, faults=faults)
    assert a.golden_signatures == b.golden_signatures
    assert a.fault_signatures == b.fault_signatures
    assert {f for f in a.detected} == {f for f in b.detected}
    assert session.aliasing_study(50, faults) == b_aliasing


def test_run_options_are_keyword_only(tiny):
    """The pass width is a module constant, not a ``run`` option, and the
    guard options bind by name only, so no positional call shifts."""
    circuit, kernel = tiny
    session = BISTSession(circuit, kernel)
    with pytest.raises(TypeError, match="machines_per_pass"):
        session.run(30, (), machines_per_pass=8)
    with pytest.raises(TypeError, match="positional"):
        session.run(30, (), 8)
