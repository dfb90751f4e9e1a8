"""Ablation A2: fault-simulator throughput and design choices.

Benchmarks the packed event-driven engine on the c5a2m multiplier kernel
and checks two design claims: wider packing batches raise throughput, and
fault dropping pays off massively on random-resistant tails.
"""

import time

import pytest

from repro.core.flow import lower_kernel_to_netlist
from repro.core.ka85 import make_ka_testable
from repro.datapath.filters import c5a2m
from repro.exec import RunConfig
from repro.experiments.render import render_table
from repro.faultsim.patterns import RandomPatternSource
from repro.faultsim.simulator import FaultSimulator
from repro.graph.build import build_circuit_graph


@pytest.fixture(scope="module")
def multiplier_netlist():
    compiled = c5a2m()
    design = make_ka_testable(build_circuit_graph(compiled.circuit)).design
    kernel = next(
        k for k in design.kernels
        if any(b.startswith("M") for b in k.logic_blocks)
    )
    return lower_kernel_to_netlist(compiled.circuit, kernel)


def test_fault_sim_throughput(benchmark, multiplier_netlist):
    """Timed: one full run to 100% coverage on the 8x8 multiplier kernel."""
    def run():
        simulator = FaultSimulator(multiplier_netlist, batch_width=256)
        source = RandomPatternSource(16, seed=3)
        return simulator.run(source, max_patterns=1 << 14)

    result = benchmark(run)
    assert result.coverage() > 0.999


def test_batch_width_scaling(benchmark, multiplier_netlist, report):
    """With fault dropping disabled the per-batch overheads dominate and
    wider packing wins clearly (the ablation isolates the packing gain)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    timings = {}
    for width in (4, 16, 64, 256):
        simulator = FaultSimulator(multiplier_netlist, batch_width=width)
        source = RandomPatternSource(16, seed=3)
        start = time.perf_counter()
        result = simulator.run(
            source, max_patterns=1024,
            config=RunConfig(stop_when_complete=False, drop_detected=False),
        )
        elapsed = time.perf_counter() - start
        timings[width] = elapsed
        rows.append((width, f"{elapsed:.3f}s", f"{result.coverage():.4f}"))
    report(
        "ablation_batch_width.txt",
        render_table(
            ["batch width", "time (1024 patterns, no dropping)", "coverage"],
            rows,
            title="Ablation: packing batch width",
        ),
    )
    # Wide batches must beat narrow packing decisively.
    assert timings[256] < timings[4] / 2


def test_fault_dropping_effect(benchmark, multiplier_netlist, report):
    """Dropping detected faults shrinks later batches' work."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    simulator = FaultSimulator(multiplier_netlist, batch_width=256)

    start = time.perf_counter()
    dropped = simulator.run(
        RandomPatternSource(16, seed=3), max_patterns=2048,
        config=RunConfig(stop_when_complete=False),
    )
    dropped_time = time.perf_counter() - start

    start = time.perf_counter()
    kept = simulator.run(
        RandomPatternSource(16, seed=3), max_patterns=2048,
        config=RunConfig(stop_when_complete=False, drop_detected=False),
    )
    no_drop_time = time.perf_counter() - start

    report(
        "ablation_fault_dropping.txt",
        render_table(
            ["mode", "time (2048 patterns)"],
            [
                ("with dropping", f"{dropped_time:.3f}s"),
                ("without dropping", f"{no_drop_time:.3f}s"),
            ],
            title="Ablation: fault dropping",
        ),
    )
    # Identical detections either way, but dropping is much faster.
    assert dict(dropped.first_detection) == dict(kept.first_detection)
    assert dropped_time < no_drop_time
