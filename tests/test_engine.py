"""Engine equivalence suite: parallel == serial, bit for bit.

The contract of :func:`repro.engine.simulate` is that ``jobs=N`` is purely
an execution strategy — the ``first_detection`` map, pattern count and the
entire coverage curve must be identical to the serial run on every circuit.
The suite exercises the paper's bundled circuits (figure4, figure9 and the
c3a2m data path kernel) plus random netlists across the stop/drop
semantics, and unit-tests the golden-run cache and instrumentation.
"""

from __future__ import annotations

import os

import pytest

from repro.core.bibs import make_bibs_testable
from repro.core.flow import lower_kernel_to_netlist
from repro.engine import EngineResult, GoldenCache, simulate
from repro.errors import SimulationError
from repro.exec import RunConfig
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


# ---------------------------------------------------------------- the cache


def test_cache_hit_miss_accounting():
    netlist = make_random_netlist(5, 25, seed=6)
    cache = GoldenCache()
    source = lambda: RandomPatternSource(5, seed=11)  # noqa: E731
    config = RunConfig(max_patterns=128).with_execution(batch_width=32)

    first = simulate(netlist, None, source(), config=config, cache=cache)
    assert first.cache_misses == 1
    assert first.cache_hits == 0

    second = simulate(netlist, None, source(), config=config, cache=cache)
    assert second.cache_hits == 1
    assert second.cache_misses == 0
    assert second.first_detection == first.first_detection

    # A different stream is a different entry, never a stale hit.
    other = simulate(netlist, None, RandomPatternSource(5, seed=12),
                     config=config, cache=cache)
    assert other.cache_misses == 1
    counters = cache.counters()
    assert counters["hits"] == 1
    assert counters["misses"] == 2
    assert counters["batch_entries"] == 2


def test_cache_distinguishes_netlists_and_widths():
    cache = GoldenCache()
    a = make_random_netlist(4, 15, seed=1)
    b = make_random_netlist(4, 15, seed=2)
    source = lambda: RandomPatternSource(4, seed=3)  # noqa: E731
    config = RunConfig(max_patterns=32).with_execution(batch_width=16)
    simulate(a, None, source(), config=config, cache=cache)
    simulate(b, None, source(), config=config, cache=cache)
    simulate(a, None, source(), cache=cache,
             config=config.with_execution(batch_width=8))
    assert cache.counters()["misses"] == 3
    assert cache.counters()["hits"] == 0


def test_cache_skips_unfingerprintable_sources():
    netlist = make_random_netlist(4, 15, seed=1)
    cache = GoldenCache()

    class OpaqueSource(RandomPatternSource):
        fingerprint = None  # not callable -> no stable identity

    result = simulate(
        netlist, None, OpaqueSource(4, seed=3), cache=cache,
        config=RunConfig(max_patterns=32).with_execution(batch_width=16),
    )
    assert result.cache_hits == 0
    assert result.cache_misses == 0
    assert cache.counters()["batch_entries"] == 0


def test_cache_lru_bound():
    cache = GoldenCache(max_entries=2)
    for seed in range(4):
        netlist = make_random_netlist(4, 10, seed=seed)
        simulate(
            netlist, None, RandomPatternSource(4, seed=1), cache=cache,
            config=RunConfig(max_patterns=16).with_execution(batch_width=16),
        )
    assert cache.counters()["batch_entries"] == 2


def test_cache_hit_miss_eviction_counts():
    """The LRU bound is enforced and observable: four distinct entries
    through a 2-entry cache evict twice; a re-read of an evicted entry is
    a miss (and a third eviction), a re-read of a live one is a hit."""
    cache = GoldenCache(max_entries=2)
    netlists = [make_random_netlist(4, 10, seed=s) for s in range(4)]
    source = lambda: RandomPatternSource(4, seed=1)  # noqa: E731
    config = RunConfig(max_patterns=16).with_execution(batch_width=16)
    for netlist in netlists:
        simulate(netlist, None, source(), config=config, cache=cache)
    counters = cache.counters()
    assert counters["misses"] == 4
    assert counters["evictions"] == 2
    assert counters["batch_entries"] == 2

    # netlists[0] was evicted -> miss + another eviction.
    simulate(netlists[0], None, source(), config=config, cache=cache)
    assert cache.counters()["misses"] == 5
    assert cache.counters()["evictions"] == 3
    # netlists[0] is now resident -> hit, nothing evicted.
    simulate(netlists[0], None, source(), config=config, cache=cache)
    assert cache.counters()["hits"] == 1
    assert cache.counters()["evictions"] == 3


def test_cache_memo_bound_and_evictions():
    cache = GoldenCache(max_entries=4, max_memo_entries=2)
    for i in range(5):
        cache.put(("memo", i), i)
    assert cache.counters()["memo_entries"] == 2
    assert cache.counters()["evictions"] == 3
    assert cache.get(("memo", 4)) == 4
    assert cache.get(("memo", 0)) is None  # evicted


def test_golden_batches_window_bounds_memory():
    """max_batches_per_entry keeps only a window of golden batches; evicted
    batches recompute from the (pure) stream with identical values."""
    from repro.engine import GoldenBatches
    from repro.netlist.evaluate import Evaluator

    netlist = make_random_netlist(4, 12, seed=5)
    source = RandomPatternSource(4, seed=3)
    unbounded = GoldenBatches(Evaluator(netlist), source, 16)
    reference = [dict(unbounded.golden_batch(i)) for i in range(6)]

    bounded = GoldenBatches(
        Evaluator(netlist), RandomPatternSource(4, seed=3), 16,
        max_cached_batches=2,
    )
    for index in range(6):
        assert bounded.golden_batch(index) == reference[index]
        assert bounded.n_cached_batches <= 2
    assert bounded.evictions > 0
    # Re-reading an evicted early batch restarts the stream, recomputes,
    # and still agrees bit for bit.
    assert bounded.golden_batch(0) == reference[0]
    assert bounded.recomputes == 1
    assert bounded.golden_batch(5) == reference[5]

    with pytest.raises(ValueError):
        GoldenBatches(Evaluator(netlist), source, 16, max_cached_batches=0)


def test_bounded_cache_end_to_end_matches_unbounded():
    netlist = make_random_netlist(5, 25, seed=6)
    source = lambda: RandomPatternSource(5, seed=11)  # noqa: E731
    plain = simulate(
        netlist, None, source(), cache=GoldenCache(),
        config=RunConfig(max_patterns=128).with_execution(batch_width=16),
    )
    bounded = simulate(
        netlist, None, source(), cache=GoldenCache(max_batches_per_entry=2),
        config=RunConfig(max_patterns=128).with_execution(batch_width=16),
    )
    assert bounded.first_detection == plain.first_detection
    assert bounded.n_patterns == plain.n_patterns


def test_cache_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        GoldenCache(max_entries=0)
    with pytest.raises(ValueError):
        GoldenCache(max_memo_entries=0)


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
