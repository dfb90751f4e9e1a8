"""Coverage-vs-patterns series (the data behind Table 2 rows 5-8).

The paper reports only the 99.5% and 100% crossing points; this bench
emits the full fault-coverage curves for c5a2m under both TDMs as CSV
series (``results/coverage_series_c5a2m.csv``) plus the curve shape
checks: monotone, concave-ish (fast head, long tail), BIBS's single kernel
vs KA-85's two sessions.
"""

import pytest

from repro.core.bibs import make_bibs_testable
from repro.core.flow import lower_kernel_to_netlist
from repro.core.ka85 import make_ka_testable
from repro.datapath.filters import c5a2m
from repro.exec import RunConfig
from repro.faultsim.coverage import sample_curve
from repro.faultsim.patterns import RandomPatternSource
from repro.faultsim.simulator import FaultSimulator
from repro.graph.build import build_circuit_graph

CHECKPOINTS = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048]


def _series():
    compiled = c5a2m()
    circuit = compiled.circuit
    graph = build_circuit_graph(circuit)
    series = {}

    bibs = make_bibs_testable(graph)
    netlist = lower_kernel_to_netlist(circuit, bibs.kernels[0])
    simulator = FaultSimulator(netlist)
    result = simulator.run(
        RandomPatternSource(len(netlist.primary_inputs), seed=21), 4096,
        config=RunConfig(stop_when_complete=False),
    )
    series["bibs_whole_circuit"] = sample_curve(result, CHECKPOINTS, of_detectable=False)

    ka = make_ka_testable(graph).design
    for label, blocks in (("ka_adder_A1", ["A1"]), ("ka_multiplier_M1", ["M1"])):
        kernel = next(k for k in ka.kernels if k.logic_blocks == blocks)
        sub = lower_kernel_to_netlist(circuit, kernel)
        sub_sim = FaultSimulator(sub)
        sub_result = sub_sim.run(
            RandomPatternSource(16, seed=21), 4096,
            config=RunConfig(stop_when_complete=False),
        )
        series[label] = sample_curve(sub_result, CHECKPOINTS, of_detectable=False)
    return series


def test_coverage_series(benchmark, report):
    series = benchmark.pedantic(_series, rounds=1, iterations=1)
    lines = ["patterns," + ",".join(series)]
    for index, checkpoint in enumerate(CHECKPOINTS):
        row = [str(checkpoint)]
        for name in series:
            row.append(f"{series[name][index].coverage:.4f}")
        lines.append(",".join(row))
    report("coverage_series_c5a2m.csv", "\n".join(lines))

    for name, points in series.items():
        coverages = [p.coverage for p in points]
        # Monotone nondecreasing.
        assert all(b >= a for a, b in zip(coverages, coverages[1:])), name
        # Fast head: >60% of the final coverage within 32 patterns.
        assert coverages[5] > 0.6 * coverages[-1], name
        # Near-complete by the end of the sweep.
        assert coverages[-1] > 0.98, name
    # The adder saturates faster than the multiplier (the paper's 32 vs
    # 2,140 pattern asymmetry, in our macros' proportions).
    adder = [p.coverage for p in series["ka_adder_A1"]]
    multiplier = [p.coverage for p in series["ka_multiplier_M1"]]
    assert adder[4] > multiplier[4]
