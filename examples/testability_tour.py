#!/usr/bin/env python3
"""Testability analysis tour: k-pattern faults, COP prediction, CSTP.

Three analyses around the paper's Section 2 motivation and Section 4
contrast:

1. **k-pattern detectability** — time-frame expansion shows the Figure-1
   circuit's fanout fault really needs a 2-vector sequence, while balanced
   logic is single-pattern testable;
2. **COP prediction** — testability measures predict random-pattern test
   lengths, cross-checked against the fault simulator;
3. **CSTP contrast** — the circular self-test path takes several times
   2^M cycles to apply all kernel input patterns; the BIBS TPG needs one
   period (Theorem 5).

Run:  python examples/testability_tour.py
"""

from repro.analysis.random_testability import analyze_netlist
from repro.core.bibs import make_bibs_testable
from repro.core.flow import lower_kernel_to_netlist
from repro.datapath.compiler import Add, Mul, Var, compile_datapath
from repro.faultsim.collapse import collapse_faults
from repro.faultsim.patterns import RandomPatternSource
from repro.faultsim.sequential import SequentialFault, minimum_detecting_length
from repro.faultsim.simulator import FaultSimulator
from repro.graph.build import build_circuit_graph
from repro.netlist.gates import GateType
from repro.rtl.circuit import RTLCircuit
from repro.tpg.cstp import CSTPSession
from repro.tpg.verify import verify_design


def figure1_gates() -> RTLCircuit:
    circuit = RTLCircuit("figure1_gates")
    pi = circuit.new_input("pi", 1)
    r_out = circuit.add_net("r_out", 1)
    circuit.add_register("R", pi, r_out)
    y = circuit.add_net("y", 1)

    def expand(netlist, inputs, prefix):
        a, b = inputs
        return [[netlist.add_gate(GateType.AND, [a[0], b[0]], name=f"{prefix}_g")]]

    circuit.add_block("C", [pi, r_out], [y],
                      word_func=lambda v: [v[0] & v[1]], gate_expander=expand)
    circuit.mark_output(y)
    return circuit


def main() -> None:
    print("--- 1. k-pattern detectability (Section 2, Figure 1)")
    circuit = figure1_gates()
    for site, stuck in (("pi", 0), ("r_out", 0), ("y", 1)):
        k = minimum_detecting_length(circuit, SequentialFault(site, 0, stuck), max_k=3)
        print(f"  {site} stuck-at-{stuck}: minimal detecting sequence length k = {k}")

    print("\n--- 2. COP prediction vs fault simulation")
    a, b = Var("a"), Var("b")
    compiled = compile_datapath([("o", Add(Mul(a, b), a))], "mac", width=4)
    design = make_bibs_testable(build_circuit_graph(compiled.circuit))
    netlist = lower_kernel_to_netlist(compiled.circuit, design.kernels[0])
    faults, _ = collapse_faults(netlist)
    profile = analyze_netlist(netlist, faults)
    for target in (0.90, 0.95):
        predicted = profile.expected_patterns_for(target)
        simulator = FaultSimulator(netlist)
        result = simulator.run(
            RandomPatternSource(len(netlist.primary_inputs), seed=11), 1 << 14
        )
        measured = result.patterns_for_coverage(target)
        print(f"  target {target:.0%}: COP predicts {predicted} patterns, "
              f"fault simulation measures {measured}")

    print("\n--- 3. CSTP vs the BIBS TPG (Section 4's contrast)")
    small = compile_datapath([("o", Add(Mul(a, b), a))], "mac3", width=3)
    cstp = CSTPSession(small.circuit)
    space = 1 << 6
    coverage = cstp.input_pattern_coverage(
        ["R_a", "R_b"], max_cycles=16 * space,
        checkpoints=[space, 2 * space, 4 * space],
    )
    for cycles, fraction in sorted(coverage.items()):
        print(f"  CSTP after {cycles:4d} cycles ({cycles / space:.1f} x 2^M): "
              f"{100 * fraction:.1f}% of input patterns applied")
    design3 = make_bibs_testable(build_circuit_graph(small.circuit))
    from repro.bist.session import BISTSession

    tpg = BISTSession(small.circuit, design3.kernels[0]).tpg
    exhaustive = all(v.exhaustive for v in verify_design(tpg))
    print(f"  BIBS TPG (M={tpg.lfsr_stages}): functionally exhaustive in one "
          f"period of {(1 << tpg.lfsr_stages) - 1} cycles "
          f"(verified: {exhaustive})")


if __name__ == "__main__":
    main()
