"""c17 reference facts and the random-datapath end-to-end property."""

from hypothesis import given, settings, strategies as st

from repro.analysis.balance import is_balanced
from repro.atpg.podem import PodemStatus, podem
from repro.core.bibs import make_bibs_testable, mandatory_bilbo_registers
from repro.core.flow import lower_kernel_to_netlist
from repro.exec import RunConfig
from repro.faultsim.collapse import collapse_faults
from repro.faultsim.patterns import ExhaustivePatternSource
from repro.faultsim.simulator import FaultSimulator
from repro.graph.build import build_circuit_graph
from repro.library.iscas import c17
from repro.library.synth import random_datapath
from repro.tpg.mc_tpg import mc_tpg
from repro.tpg.verify import verify_design


# ---------------------------------------------------------------- c17

def test_c17_structure():
    netlist = c17()
    assert len(netlist.primary_inputs) == 5
    assert len(netlist.primary_outputs) == 2
    assert len(netlist.gates) == 6


def test_c17_collapsed_fault_count():
    """The literature's figure: c17 collapses to 22 faults."""
    representatives, mapping = collapse_faults(c17())
    assert len(representatives) == 22
    assert len(mapping) > len(representatives)


def test_c17_all_faults_detectable_exhaustively():
    netlist = c17()
    simulator = FaultSimulator(netlist)
    result = simulator.run(
        ExhaustivePatternSource(5), 32,
        config=RunConfig(stop_when_complete=False),
    )
    assert result.coverage() == 1.0


def test_c17_podem_finds_all():
    netlist = c17()
    representatives, _ = collapse_faults(netlist)
    simulator = FaultSimulator(netlist)
    for fault in representatives:
        result = podem(netlist, fault)
        assert result.status is PodemStatus.DETECTED
        pattern = [result.test[n] for n in netlist.primary_inputs]
        assert simulator.detects(fault, pattern)


def test_c17_known_function():
    """G22 = NAND(G1&G3', wait — just check two reference vectors."""
    from repro.netlist.evaluate import evaluate_single

    netlist = c17()
    nets = {name: netlist.find_net(name) for name in
            ("G1", "G2", "G3", "G6", "G7", "G22", "G23")}
    # All-zero inputs: G10=G11=1, G16=NAND(0,1)=1, G19=NAND(1,0)=1,
    # G22=NAND(1,1)=0, G23=NAND(1,1)=0.
    values = evaluate_single(netlist, {
        nets["G1"]: 0, nets["G2"]: 0, nets["G3"]: 0,
        nets["G6"]: 0, nets["G7"]: 0,
    })
    assert values[nets["G22"]] == 0 and values[nets["G23"]] == 0
    # G3=1, G6=1 -> G11=0 -> G16=1, G19=1 -> G23=0; G1=1 -> G10=0 -> G22=1.
    values = evaluate_single(netlist, {
        nets["G1"]: 1, nets["G2"]: 0, nets["G3"]: 1,
        nets["G6"]: 1, nets["G7"]: 0,
    })
    assert values[nets["G22"]] == 1 and values[nets["G23"]] == 0


# -------------------------------------------------- random datapath sweep

@given(st.integers(0, 200))
@settings(max_examples=15, deadline=None)
def test_random_datapaths_are_balanced_and_bibs_minimal(seed):
    """Property: every compiler-produced datapath is balanced, so BIBS
    converts exactly the PI/PO registers and yields a single kernel."""
    compiled = random_datapath(seed, width=2)
    graph = build_circuit_graph(compiled.circuit)
    assert is_balanced(graph)
    design = make_bibs_testable(graph)
    assert set(design.bilbo_registers) == set(mandatory_bilbo_registers(graph))
    assert sum(1 for k in design.kernels if k.logic_blocks) == 1


@given(st.integers(0, 200))
@settings(max_examples=10, deadline=None)
def test_random_datapath_tpg_is_functionally_exhaustive(seed):
    """Property (the whole pipeline): graph -> kernel -> spec -> MC_TPG ->
    exhaustiveness, on randomly synthesized balanced circuits."""
    compiled = random_datapath(seed, width=2)
    graph = build_circuit_graph(compiled.circuit)
    design = make_bibs_testable(graph)
    kernel = next(k for k in design.kernels if k.logic_blocks)
    spec = kernel.to_kernel_spec()
    tpg = mc_tpg(spec)
    if tpg.lfsr_stages <= 10:
        assert all(v.exhaustive for v in verify_design(tpg))


@given(st.integers(0, 100))
@settings(max_examples=8, deadline=None)
def test_random_datapath_kernel_lowering_is_consistent(seed):
    """Property: the flattened kernel netlist validates and its PI count is
    the kernel's TPG width."""
    compiled = random_datapath(seed, width=2)
    graph = build_circuit_graph(compiled.circuit)
    design = make_bibs_testable(graph)
    kernel = next(k for k in design.kernels if k.logic_blocks)
    netlist = lower_kernel_to_netlist(compiled.circuit, kernel)
    netlist.validate()
    assert len(netlist.primary_inputs) == kernel.input_width
