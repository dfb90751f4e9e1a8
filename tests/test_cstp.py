"""Circular self-test path (the paper's CSTP contrast)."""

import pytest

from repro.bist import gatesim
from repro.core.bibs import make_bibs_testable
from repro.bist.session import BISTSession
from repro.datapath.compiler import Add, Mul, Var, compile_datapath
from repro.errors import SimulationError
from repro.graph.build import build_circuit_graph
from repro.rtl.circuit import RTLCircuit
from repro.tpg.cstp import CSTPSession


@pytest.fixture(scope="module")
def mac3():
    a, b = Var("a"), Var("b")
    compiled = compile_datapath([("o", Add(Mul(a, b), a))], "t", width=3)
    return compiled.circuit


def test_ring_covers_all_register_cells(mac3):
    session = CSTPSession(mac3)
    assert len(session.ring) == mac3.total_register_bits()


def test_registerless_circuit_rejected():
    circuit = RTLCircuit("c")
    pi = circuit.new_input("pi", 2)
    out = circuit.add_net("out", 2)
    from repro.datapath.modules import passthrough_spec

    _, wf, ge = passthrough_spec(2)
    circuit.add_block("B", [pi], [out], word_func=wf, gate_expander=ge)
    circuit.mark_output(out)
    with pytest.raises(SimulationError):
        CSTPSession(circuit)


def test_golden_signature_deterministic(mac3):
    session = CSTPSession(mac3)
    assert session.run(50).golden_state == session.run(50).golden_state


def test_detects_faults(mac3):
    session = CSTPSession(mac3)
    design = make_bibs_testable(build_circuit_graph(mac3))
    faults = BISTSession(mac3, design.kernels[0]).kernel_fault_universe()
    result = session.run(512, faults=faults)
    assert result.coverage > 0.9


def test_chunking_consistency(mac3, monkeypatch):
    session = CSTPSession(mac3)
    faults = session.fault_universe()[:30]
    b = session.run(60, faults=faults)
    monkeypatch.setattr(gatesim, "MACHINES_PER_PASS", 8)
    a = session.run(60, faults=faults)
    assert a.golden_state == b.golden_state
    assert set(a.detected) == set(b.detected)
    with pytest.raises(TypeError, match="machines_per_pass"):
        session.run(60, faults=faults, machines_per_pass=8)


def test_input_coverage_needs_multiple_periods(mac3):
    """The paper's CSTP drawback: all 2^M kernel input patterns take
    roughly T x 2^M cycles with T well above 1."""
    session = CSTPSession(mac3)
    space = 1 << 6  # R_a + R_b = 6 bits
    coverage = session.input_pattern_coverage(
        ["R_a", "R_b"], max_cycles=16 * space,
        checkpoints=[space, 2 * space],
    )
    assert coverage[space] < 0.9          # one "period" is far from enough
    exhausted = [c for c, frac in coverage.items() if frac == 1.0]
    assert exhausted, "CSTP never covered the input space"
    t_factor = min(exhausted) / space
    assert 1.5 < t_factor < 16


def test_bibs_tpg_covers_in_one_period(mac3):
    """Contrast: the BIBS TPG is functionally exhaustive in 2^M - 1."""
    design = make_bibs_testable(build_circuit_graph(mac3))
    session = BISTSession(mac3, design.kernels[0])
    from repro.tpg.verify import verify_design

    assert all(v.exhaustive for v in verify_design(session.tpg))
