"""Engine equivalence suite: parallel == serial, bit for bit.

The contract of :func:`repro.engine.simulate` is that ``jobs=N`` is purely
an execution strategy — the ``first_detection`` map, pattern count and the
entire coverage curve must be identical to the serial run on every circuit.
The suite exercises the paper's bundled circuits (figure4, figure9 and the
c3a2m data path kernel) plus random netlists across the stop/drop
semantics, and unit-tests the instrumentation.
"""

from __future__ import annotations

import os

import pytest

from repro.core.bibs import make_bibs_testable
from repro.core.flow import lower_kernel_to_netlist
from repro.engine import EngineResult, simulate
from repro.errors import SimulationError
from repro.exec import CheckpointPolicy, RunConfig
from repro.faultsim.collapse import collapse_faults
from repro.faultsim.coverage import coverage_curve
from repro.faultsim.patterns import RandomPatternSource, SequencePatternSource
from repro.faultsim.simulator import FaultSimulator
from repro.graph.build import build_circuit_graph
from repro.library.scenarios import attach_generic_expanders
from tests.conftest import make_random_netlist

# CI runs the suite a second time at jobs=2 via this knob; any worker
# count must reproduce the serial results exactly.
JOBS = int(os.environ.get("REPRO_ENGINE_JOBS", "4"))


def lowered_kernels(circuit):
    """All logic kernels of the circuit's BIBS design, as netlists."""
    graph = build_circuit_graph(circuit)
    design = make_bibs_testable(graph)
    return [
        lower_kernel_to_netlist(circuit, kernel)
        for kernel in design.kernels
        if kernel.logic_blocks
    ]


def figure4_netlists():
    from repro.library.figures import figure4

    circuit = figure4()
    attach_generic_expanders(circuit)
    return circuit.name, lowered_kernels(circuit)


def figure9_netlists():
    from repro.library.ka_example import figure9

    circuit = figure9()
    attach_generic_expanders(circuit)
    return circuit.name, lowered_kernels(circuit)


def c3a2m_netlists():
    from repro.datapath.filters import all_filters

    circuit = all_filters()["c3a2m"].circuit
    return circuit.name, lowered_kernels(circuit)


def assert_identical(serial, parallel):
    assert parallel.first_detection == serial.first_detection
    assert parallel.n_patterns == serial.n_patterns
    assert parallel.coverage() == serial.coverage()
    assert coverage_curve(parallel) == coverage_curve(serial)


@pytest.mark.parametrize(
    "build", [figure4_netlists, figure9_netlists, c3a2m_netlists],
    ids=["figure4", "figure9", "c3a2m"],
)
def test_parallel_matches_serial_on_bundled_circuits(build):
    name, netlists = build()
    assert netlists, f"{name}: no logic kernels"
    for netlist in netlists:
        faults, _ = collapse_faults(netlist)
        # Subsample large universes to keep the suite quick; equivalence
        # must hold for any fault list, so a slice is as probing as all.
        if len(faults) > 120:
            faults = faults[::7]
        n_inputs = len(netlist.primary_inputs)
        serial = simulate(
            netlist, faults, RandomPatternSource(n_inputs, seed=9),
            config=RunConfig(max_patterns=512).with_execution(
                jobs=1, batch_width=64,
            ),
        )
        parallel = simulate(
            netlist, faults, RandomPatternSource(n_inputs, seed=9),
            config=RunConfig(max_patterns=512).with_execution(
                jobs=JOBS, batch_width=64,
            ),
        )
        assert_identical(serial, parallel)


@pytest.mark.parametrize("stop", [True, False])
@pytest.mark.parametrize("drop", [True, False])
def test_parallel_matches_serial_across_semantics(stop, drop):
    netlist = make_random_netlist(5, 30, seed=4)
    faults, _ = collapse_faults(netlist)
    source = lambda: RandomPatternSource(5, seed=17)  # noqa: E731
    serial = simulate(
        netlist, faults, source(),
        config=RunConfig(
            max_patterns=96, stop_when_complete=stop, drop_detected=drop,
        ).with_execution(jobs=1, batch_width=16),
    )
    parallel = simulate(
        netlist, faults, source(),
        config=RunConfig(
            max_patterns=96, stop_when_complete=stop, drop_detected=drop,
        ).with_execution(jobs=3, batch_width=16, chunk_batches=2),
    )
    assert_identical(serial, parallel)


def test_engine_matches_legacy_simulator_run():
    """FaultSimulator.run (the old entry point) is the same computation."""
    netlist = make_random_netlist(6, 40, seed=8)
    simulator = FaultSimulator(netlist, batch_width=32)
    legacy = simulator.run(RandomPatternSource(6, seed=2), 256)
    engine = simulate(
        netlist, None, RandomPatternSource(6, seed=2),
        config=RunConfig(max_patterns=256).with_execution(batch_width=32),
    )
    assert engine.first_detection == legacy.first_detection
    assert engine.n_patterns == legacy.n_patterns


def test_jobs_exceeding_faults_and_empty_fault_list():
    netlist = make_random_netlist(4, 12, seed=3)
    faults, _ = collapse_faults(netlist)
    few = faults[:2]
    config = RunConfig(max_patterns=64).with_execution(batch_width=16)
    serial = simulate(netlist, few, RandomPatternSource(4, seed=5),
                      config=config.with_execution(jobs=1))
    wide = simulate(netlist, few, RandomPatternSource(4, seed=5),
                    config=config.with_execution(jobs=8))
    assert_identical(serial, wide)

    empty = simulate(netlist, [], RandomPatternSource(4, seed=5),
                     config=config.with_execution(jobs=4))
    assert empty.first_detection == {}
    assert empty.n_patterns == 0


def test_width_mismatch_raises():
    netlist = make_random_netlist(4, 12, seed=3)
    with pytest.raises(SimulationError):
        simulate(
            netlist, None, RandomPatternSource(7, seed=1),
            config=RunConfig(max_patterns=16),
        )


def test_unfingerprintable_source_runs_unjournaled(tmp_path):
    """A source that cannot state a fingerprint runs like any other, but
    no run key names its stream, so a checkpoint directory stays empty."""
    netlist = make_random_netlist(4, 15, seed=1)

    class OpaqueSource(RandomPatternSource):
        fingerprint = None  # not callable -> no stable identity

    config = RunConfig(max_patterns=32).with_execution(batch_width=16)
    opaque = simulate(
        netlist, None, OpaqueSource(4, seed=3),
        config=config.replace(checkpoint=CheckpointPolicy(tmp_path)),
    )
    reference = simulate(netlist, None, RandomPatternSource(4, seed=3),
                         config=config)
    assert_identical(opaque, reference)
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------- instrumentation


def test_instrumentation_serial_and_parallel():
    netlist = make_random_netlist(5, 30, seed=4)
    faults, _ = collapse_faults(netlist)

    serial = simulate(
        netlist, faults, RandomPatternSource(5, seed=7),
        config=RunConfig(max_patterns=64).with_execution(
            jobs=1, batch_width=16,
        ),
    )
    assert isinstance(serial, EngineResult)
    assert serial.jobs == 1
    assert len(serial.shards) == 1
    assert serial.shards[0].n_faults == len(faults)
    assert serial.shards[0].patterns_simulated > 0
    assert serial.events_propagated > 0
    assert serial.wall_time >= 0.0

    parallel = simulate(
        netlist, faults, RandomPatternSource(5, seed=7),
        config=RunConfig(max_patterns=64).with_execution(
            jobs=3, batch_width=16,
        ),
    )
    assert parallel.jobs == 3
    assert len(parallel.shards) == 3
    assert sum(s.n_faults for s in parallel.shards) == len(faults)
    assert sum(s.faults_dropped for s in parallel.shards) == len(
        parallel.first_detection
    )

    payload = parallel.to_json()
    engine_block = payload["engine"]
    assert engine_block["jobs"] == 3
    assert len(engine_block["shards"]) == 3
    for shard in engine_block["shards"]:
        assert set(shard) == {
            "shard", "n_faults", "faults_dropped", "events_propagated",
            "patterns_simulated", "wall_time", "patterns_per_second",
            "retries", "timeouts", "failures", "rounds_resumed",
            "degraded_reason", "memory_adaptations", "stop_reason",
        }
        # A healthy run exercises none of the recovery machinery (unless
        # ambient chaos is injecting failures on purpose — the recovery
        # *results* are still checked above either way).
        if not os.environ.get("REPRO_CHAOS"):
            assert shard["retries"] == 0
            assert shard["timeouts"] == 0
            assert shard["failures"] == 0
            assert shard["rounds_resumed"] == 0
            assert shard["degraded_reason"] is None


def test_sequence_source_round_trip_through_engine():
    """SequencePatternSource (the session replay path) works sharded."""
    netlist = make_random_netlist(4, 20, seed=9)
    patterns = [tuple((p >> i) & 1 for i in range(4)) for p in range(16)] * 3
    config = RunConfig(max_patterns=len(patterns)).with_execution(
        batch_width=16)
    serial = simulate(netlist, None, SequencePatternSource(patterns),
                      config=config.with_execution(jobs=1))
    parallel = simulate(netlist, None, SequencePatternSource(patterns),
                        config=config.with_execution(jobs=4))
    assert_identical(serial, parallel)


def test_equivalence_with_tracing_enabled():
    """The telemetry layer must never perturb results: serial == parallel
    bit-identically while spans and metrics are being recorded."""
    from repro import telemetry

    netlist = make_random_netlist(6, 40, seed=17)
    instance = telemetry.get_telemetry()
    config = RunConfig(max_patterns=128).with_execution(batch_width=16)
    baseline = simulate(netlist, None, RandomPatternSource(6, seed=9),
                        config=config.with_execution(jobs=1))
    instance.reset()
    instance.enable()
    try:
        serial = simulate(netlist, None, RandomPatternSource(6, seed=9),
                          config=config.with_execution(jobs=1))
        parallel = simulate(netlist, None, RandomPatternSource(6, seed=9),
                            config=config.with_execution(jobs=JOBS))
        assert_identical(serial, parallel)
        # Tracing on == tracing off, down to the detection indices.
        assert serial.first_detection == baseline.first_detection
        assert serial.n_patterns == baseline.n_patterns
    finally:
        instance.reset()
        instance.disable()
