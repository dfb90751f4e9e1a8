"""Standing benchmark/regression scenarios as lowered netlists.

The engine's committed benchmark (``benchmarks/record.py``), the golden
coverage-regression corpus (``tests/fixtures/golden_coverage``) and the
kernel/executor cross-product equivalence tests all need the *same*
circuits, lowered the same way — a scenario that drifts between them
would let a benchmark claim ride on a netlist the regression suite never
pins.  This module is that single source: each builder returns a fresh
:class:`~repro.netlist.netlist.Netlist` for one named scenario.

The standing set brackets the engine's operating range:

``c3a2m_kernel``
    The paper's c3a2m multiplier kernel (Table 1/2): a large fault
    universe where the vectorised kernel and process sharding pay.
``mac4_kernel``
    A 4-bit multiply-accumulate kernel: small enough that dispatch
    overhead dominates and the packed serial path wins.
``figure4_kernel`` / ``figure9_kernel``
    The paper's Figure 4 and Figure 9 example circuits, BIBS-partitioned
    and lowered — the golden corpus's small, human-checkable anchors.
``synth20k_kernel``
    A synthetic ~20k-gate array multiplier built from
    :mod:`repro.netlist.builders` — an order of magnitude beyond the
    paper's kernels, sized so vectorisation and multi-job sharding are
    measured where they matter.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.core.bibs import make_bibs_testable
from repro.core.flow import lower_kernel_to_netlist
from repro.core.ka85 import make_ka_testable
from repro.datapath.compiler import Add, Mul, Var, compile_datapath
from repro.datapath.filters import c3a2m
from repro.graph.build import build_circuit_graph
from repro.library.figures import figure4
from repro.library.ka_example import figure9
from repro.netlist.builders import array_multiplier
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist


def attach_generic_expanders(circuit) -> None:
    """Give structural blocks a deterministic gate-level behaviour.

    The paper's Figure 4/Figure 9 circuits are register-transfer sketches:
    their combinational blocks carry no gate expander, so they cannot be
    lowered as-is.  Each output bit becomes XOR(AND(a, b), c) over a
    rotating selection of input bits — every block mixes its inputs, the
    lowered kernels get a non-trivial fault population, and the expansion
    is a pure function of the block shape, so golden fixtures stay stable.
    """

    def make_expander(out_widths):
        def expander(netlist, inputs, prefix):
            flat = [bit for group in inputs for bit in group]
            outputs = []
            for position, width in enumerate(out_widths):
                bits = []
                for i in range(width):
                    a = flat[(position + i) % len(flat)]
                    b = flat[(position + 2 * i + 1) % len(flat)]
                    c = flat[(3 * position + i + 2) % len(flat)]
                    conj = netlist.add_gate(
                        GateType.AND, [a, b], name=f"{prefix}_a{position}_{i}"
                    )
                    bits.append(netlist.add_gate(
                        GateType.XOR, [conj, c], name=f"{prefix}_x{position}_{i}"
                    ))
                outputs.append(bits)
            return outputs

        return expander

    for block in circuit.blocks.values():
        if block.gate_expander is None:
            widths = [circuit.nets[n].width for n in block.output_nets]
            block.gate_expander = make_expander(widths)


def c3a2m_kernel() -> Netlist:
    """The c3a2m multiplier kernel, lowered — the large standing scenario."""
    compiled = c3a2m()
    design = make_ka_testable(build_circuit_graph(compiled.circuit)).design
    kernel = next(
        k for k in design.kernels
        if any(b.startswith("M") for b in k.logic_blocks)
    )
    return lower_kernel_to_netlist(compiled.circuit, kernel)


def mac4_kernel() -> Netlist:
    """A 4-bit multiply-accumulate kernel — the small-kernel scenario.

    Small enough that per-round work is dominated by dispatch overhead:
    the cell where the serial backend should beat the process pool,
    and where the packed kernel should beat vec.
    """
    compiled = compile_datapath(
        [("o", Add(Mul(Var("a"), Var("b")), Var("c")))], "mac4", width=4
    )
    design = make_bibs_testable(build_circuit_graph(compiled.circuit))
    kernel = next(k for k in design.kernels if k.logic_blocks)
    return lower_kernel_to_netlist(compiled.circuit, kernel)


def figure4_kernel() -> Netlist:
    """The paper's Figure 4 circuit, BIBS-partitioned, first logic kernel."""
    circuit = figure4()
    attach_generic_expanders(circuit)
    design = make_bibs_testable(build_circuit_graph(circuit))
    kernel = next(k for k in design.kernels if k.logic_blocks)
    return lower_kernel_to_netlist(circuit, kernel)


def figure9_kernel() -> Netlist:
    """The paper's Figure 9 circuit, BIBS-partitioned, first logic kernel."""
    circuit = figure9()
    attach_generic_expanders(circuit)
    design = make_bibs_testable(build_circuit_graph(circuit))
    kernel = next(k for k in design.kernels if k.logic_blocks)
    return lower_kernel_to_netlist(circuit, kernel)


def synth20k_kernel() -> Netlist:
    """A ~20k-gate synthetic scenario: one wide array multiplier.

    60x60 unsigned multiplication is ≈21k gates of partial products and
    carry-save adders — an order of magnitude beyond the paper's kernels.
    The benchmark samples its collapsed fault universe (see
    ``benchmarks/record.py``) so a cell still completes in seconds.
    """
    netlist = Netlist("synth20k")
    a = netlist.new_inputs(60, "a")
    b = netlist.new_inputs(60, "b")
    for net in array_multiplier(netlist, a, b, name="mul"):
        netlist.mark_output(net)
    return netlist


#: Scenario registry: name -> netlist builder.  Order is the presentation
#: order used by the benchmark snapshot and the golden corpus.
SCENARIOS: Dict[str, Callable[[], Netlist]] = {
    "c3a2m_kernel": c3a2m_kernel,
    "mac4_kernel": mac4_kernel,
    "figure4_kernel": figure4_kernel,
    "figure9_kernel": figure9_kernel,
    "synth20k_kernel": synth20k_kernel,
}
