"""The unified results surface: protocol conformance, JSON schema, O(n)
``undetected``, and the deprecation shims."""

from __future__ import annotations

import time


from repro.faultsim.collapse import collapse_faults
from repro.faultsim.faults import Fault
from repro.faultsim.patterns import RandomPatternSource
from repro.faultsim.simulator import FaultSimulator
from repro.results import (
    CoverageResult,
    CoverageValue,
    FaultSimResult,
    SessionResult,
    fault_to_json,
)
from tests.conftest import make_random_netlist, tiny_and_or


def run_tiny():
    netlist = tiny_and_or()
    simulator = FaultSimulator(netlist, batch_width=8)
    return simulator.run(RandomPatternSource(3, seed=1), 64)


def make_session_result():
    faults = [Fault(net=0, stuck_at=0), Fault(net=1, stuck_at=1)]
    return SessionResult(
        cycles=10,
        golden_signatures={"R": 0xBEEF},
        fault_signatures={faults[0]: {"R": 1}, faults[1]: {"R": 0xBEEF}},
        detected=[faults[0]],
        undetected=[faults[1]],
    )


# ------------------------------------------------------------- the protocol


def test_faultsim_result_satisfies_protocol():
    result = run_tiny()
    assert isinstance(result, CoverageResult)
    assert isinstance(result.detected, list)
    assert isinstance(result.undetected, list)
    assert 0.0 <= result.coverage() <= 1.0
    assert isinstance(result.to_json(), dict)


def test_session_result_satisfies_protocol():
    result = make_session_result()
    assert isinstance(result, CoverageResult)
    # Both historical spellings of coverage work.
    assert result.coverage == 0.5
    assert result.coverage() == 0.5
    assert isinstance(result.to_json(), dict)


def test_coverage_value_is_float_and_callable():
    value = CoverageValue(0.75)
    assert value == 0.75
    assert value + 0.25 == 1.0
    assert value() == 0.75
    assert isinstance(value(), float)


# ------------------------------------------------------------- JSON schemas


BASE_FAULTSIM_KEYS = {
    "kind", "name", "n_faults", "n_detected", "n_undetected",
    "n_undetectable", "n_patterns", "coverage", "coverage_of_detectable",
    "partial", "stop_reason",
}


def test_faultsim_to_json_schema():
    result = run_tiny()
    payload = result.to_json()
    assert payload["kind"] == "faultsim"
    # The engine subclass adds exactly one block on top of the base schema.
    assert set(payload) == BASE_FAULTSIM_KEYS | {"engine"}
    assert set(payload["engine"]) >= {"jobs", "wall_time", "shards"}
    plain = FaultSimResult(result.netlist, result.faults,
                           dict(result.first_detection), result.n_patterns)
    assert set(plain.to_json()) == BASE_FAULTSIM_KEYS
    assert payload["n_detected"] + payload["n_undetected"] == payload["n_faults"]

    detailed = result.to_json(include_faults=True)
    assert len(detailed["first_detection"]) == payload["n_detected"]
    for entry in detailed["first_detection"]:
        assert set(entry) == {"net", "stuck_at", "gate_index", "pin", "pattern"}


def test_session_to_json_schema():
    result = make_session_result()
    payload = result.to_json()
    assert payload["kind"] == "session"
    assert payload["golden_signatures"] == {"R": hex(0xBEEF)}
    assert payload["coverage"] == 0.5
    detailed = result.to_json(include_faults=True)
    assert len(detailed["detected"]) == 1
    assert detailed["detected"][0] == fault_to_json(result.detected[0])


# -------------------------------------------------- undetected: O(n), exact


def test_undetected_preserves_universe_order_and_partitions():
    netlist = make_random_netlist(5, 25, seed=6)
    simulator = FaultSimulator(netlist, batch_width=16)
    faults, _ = collapse_faults(netlist)
    result = simulator.run(RandomPatternSource(5, seed=2), 48, faults=faults)
    undetected = result.undetected
    detected = set(result.first_detection)
    assert undetected == [f for f in faults if f not in detected]
    assert len(undetected) + len(detected) == len(faults)


def test_undetected_is_linear_time():
    """Regression: a large half-detected universe must resolve in O(n).

    The historical accessor scanned per fault; at 60k faults with 30k
    detected a quadratic implementation takes minutes, the set-based one
    milliseconds.  The bound is deliberately generous for slow CI boxes.
    """
    netlist = tiny_and_or()
    n = 60_000
    faults = [Fault(net=i, stuck_at=i % 2) for i in range(n)]
    first_detection = {f: i for i, f in enumerate(faults[: n // 2])}
    result = FaultSimResult(netlist, faults, first_detection, n_patterns=n)
    start = time.perf_counter()
    undetected = result.undetected
    elapsed = time.perf_counter() - start
    assert len(undetected) == n // 2
    assert undetected[0] == faults[n // 2]
    assert elapsed < 2.0


# -------------------------------------------------------- deprecation shims


def test_simulator_shim_reexports_faultsim_result():
    from repro.faultsim.simulator import FaultSimResult as Shimmed

    assert Shimmed is FaultSimResult


def test_session_shim_reexports_session_result():
    from repro.bist.session import SessionResult as Shimmed

    assert Shimmed is SessionResult


def test_top_level_exports():
    import repro

    assert repro.FaultSimResult is FaultSimResult
    assert repro.SessionResult is SessionResult
    assert repro.CoverageResult is CoverageResult


# ---------------------------------------------------- ShardStats round-trip


def test_shard_stats_round_trip_through_engine_json():
    """Failure-handling fields survive to_json()/from_json() exactly."""
    from repro.engine.instrumentation import ShardStats

    stats = ShardStats(
        shard=3, n_faults=100, faults_dropped=40, events_propagated=1234,
        patterns_simulated=512, wall_time=0.25, retries=2, timeouts=1,
        failures=3, rounds_resumed=4,
        degraded_reason="retry budget exhausted after 3 attempts",
    )
    restored = ShardStats.from_json(stats.to_json())
    assert restored == stats
    # Derived fields recompute rather than persist.
    assert restored.patterns_per_second == stats.patterns_per_second
    assert restored.degraded


def test_shard_stats_round_trip_from_live_engine_result():
    from repro.engine import RunConfig, simulate
    from repro.engine.instrumentation import ShardStats
    from tests.conftest import make_random_netlist

    netlist = make_random_netlist(5, 25, seed=6)
    result = simulate(
        netlist, None, RandomPatternSource(5, seed=4),
        config=RunConfig(max_patterns=64).with_execution(
            jobs=2, batch_width=16,
        ),
    )
    payload = result.to_json()["engine"]["shards"]
    restored = [ShardStats.from_json(entry) for entry in payload]
    assert restored == result.shards
