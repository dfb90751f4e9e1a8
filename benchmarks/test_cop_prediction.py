"""Ablation A8: COP-predicted vs fault-simulated random test length.

The analytic counterpart of Table 2 rows 5-7: COP testability measures
predict each fault's detection probability, hence the random-pattern count
to a coverage target.  The bench compares prediction and measurement on
the paper's adder and multiplier kernels — COP is exact on fanout-free
logic and degrades gracefully under the multiplier's reconvergence.
"""

from repro.analysis.random_testability import analyze_netlist
from repro.core.flow import lower_kernel_to_netlist
from repro.core.ka85 import make_ka_testable
from repro.datapath.filters import c5a2m
from repro.experiments.render import render_table
from repro.faultsim.collapse import collapse_faults
from repro.faultsim.patterns import RandomPatternSource
from repro.faultsim.simulator import FaultSimulator
from repro.graph.build import build_circuit_graph


def _kernels():
    compiled = c5a2m()
    design = make_ka_testable(build_circuit_graph(compiled.circuit)).design
    picks = {}
    for kernel in design.kernels:
        if kernel.logic_blocks == ["A1"]:
            picks["adder"] = lower_kernel_to_netlist(compiled.circuit, kernel)
        if kernel.logic_blocks == ["M1"]:
            picks["multiplier"] = lower_kernel_to_netlist(compiled.circuit, kernel)
    return picks


def _compare(target=0.95):
    rows = []
    for name, netlist in _kernels().items():
        faults, _ = collapse_faults(netlist)
        predicted = analyze_netlist(netlist, faults).expected_patterns_for(target)
        simulator = FaultSimulator(netlist)
        result = simulator.run(RandomPatternSource(16, seed=17), 1 << 15)
        measured = result.patterns_for_coverage(target)
        rows.append((name, len(faults), predicted, measured))
    return rows


def test_cop_prediction(benchmark, report):
    rows = benchmark.pedantic(_compare, rounds=1, iterations=1)
    table = []
    for name, n_faults, predicted, measured in rows:
        assert predicted is not None and measured is not None, name
        ratio = predicted / measured
        table.append((name, n_faults, predicted, measured, f"{ratio:.2f}"))
        # Within an order of magnitude — COP's classic accuracy band.
        assert 0.1 < ratio < 10, (name, predicted, measured)
    report(
        "cop_prediction.txt",
        render_table(
            ["kernel", "faults", "COP predicted @95%", "measured @95%", "ratio"],
            table,
            title="COP prediction vs fault simulation (c5a2m kernels)",
        ),
    )
