"""repro.exec backend suite: backend names, cross-backend identity.

The executor layer's contract is the engine's oldest invariant restated
one level down: *where* a shard round runs — in-process or in a worker
process — can never move a result.  The suite pins the backend names,
which rounds reach the pool and the timeout contract, proves both local
backends bit-identical to the serial baseline (with and without chaos
injection), and exercises the process backend's warm-pool reuse across
``simulate()`` calls.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.engine import FaultInjector, simulate
from repro.errors import SimulationError
from repro.exec import (
    ExecutionPolicy,
    RetryPolicy,
    RunConfig,
    available_executors,
    resolve_executor_name,
)
from repro.exec.base import EXECUTOR_ENV_VAR
from repro.faultsim.collapse import collapse_faults
from repro.faultsim.coverage import coverage_curve
from repro.faultsim.patterns import RandomPatternSource
from repro.guard.budget import STOP_PATTERNS, Budget
from repro.library.scenarios import c3a2m_kernel
from tests.conftest import make_random_netlist

BACKENDS = ("serial", "process")
KERNELS = ("packed", "vec")


def _run(netlist, faults, *, executor=None, jobs=None, chaos=None,
         kernel=None, budget=None, max_patterns=512, shard_timeout=None):
    source = RandomPatternSource(len(netlist.primary_inputs), seed=23)
    config = RunConfig(
        execution=ExecutionPolicy(
            executor=executor, jobs=jobs, batch_width=64, chunk_batches=1,
            kernel=kernel,
        ),
        retry=RetryPolicy(shard_timeout=shard_timeout),
        chaos=chaos,
        budget=budget,
        max_patterns=max_patterns,
    )
    return simulate(netlist, faults, source, config=config)


def assert_identical(baseline, result):
    assert result.first_detection == baseline.first_detection
    assert result.n_patterns == baseline.n_patterns
    assert coverage_curve(result) == coverage_curve(baseline)


# ------------------------------------------------------------ backend table


def test_registry_lists_all_backends():
    assert available_executors() == ("process", "serial")


def test_unknown_executor_name_raises():
    # "thread" and "remote" name retired backends: refused like any
    # unknown name.
    netlist = make_random_netlist(8, 20, seed=10)
    faults, _ = collapse_faults(netlist)
    for name in ("quantum", "thread", "remote"):
        with pytest.raises(SimulationError,
                           match=rf"unknown executor '{name}' "
                                 r"\(available: process, serial\)"):
            _run(netlist, faults, executor=name, jobs=2)


def test_retired_backend_from_environment_is_refused(monkeypatch):
    """$REPRO_ENGINE_EXECUTOR naming a retired backend fails the run at
    start, and the error names every backend there is."""
    netlist = make_random_netlist(8, 20, seed=10)
    faults, _ = collapse_faults(netlist)
    for name in ("thread", "remote"):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, name)
        with pytest.raises(SimulationError,
                           match=rf"'{name}' \(available: process, serial\)"):
            _run(netlist, faults, jobs=2)


def test_resolve_explicit_name_wins(monkeypatch):
    monkeypatch.setenv(EXECUTOR_ENV_VAR, "process")
    assert resolve_executor_name("serial") == "serial"


def test_resolve_falls_back_to_environment(monkeypatch):
    monkeypatch.setenv(EXECUTOR_ENV_VAR, "serial")
    assert resolve_executor_name(None) == "serial"


def test_resolve_defaults_to_process(monkeypatch):
    monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)
    assert resolve_executor_name(None) == "process"


def test_serial_rounds_run_past_the_shard_timeout():
    """A serial round runs on the parent thread, so the driver's deadline
    does not apply to it: a delay longer than ``shard_timeout`` completes
    without a timeout or a retry."""
    netlist = make_random_netlist(8, 30, seed=5)
    faults, _ = collapse_faults(netlist)
    baseline = _run(netlist, faults)
    chaos = FaultInjector("delay", shard=0, round_index=0, seconds=0.2)
    result = _run(netlist, faults, executor="serial", jobs=2, chaos=chaos,
                  shard_timeout=0.05)
    assert_identical(baseline, result)
    assert result.executor == "serial"
    assert all(s.timeouts == 0 for s in result.shards)
    assert result.retries == 0


# ------------------------------------------------------------- bit-identity


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_matches_serial_baseline(backend):
    netlist = make_random_netlist(8, 30, seed=5)
    faults, _ = collapse_faults(netlist)
    baseline = _run(netlist, faults)
    result = _run(netlist, faults, executor=backend, jobs=3)
    assert_identical(baseline, result)
    assert result.executor == backend
    assert result.jobs == 3


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_matches_serial_baseline_under_crash_chaos(backend):
    netlist = make_random_netlist(8, 30, seed=6)
    faults, _ = collapse_faults(netlist)
    baseline = _run(netlist, faults)
    chaos = FaultInjector("crash", shard=1, round_index=0)
    result = _run(netlist, faults, executor=backend, jobs=3, chaos=chaos)
    assert_identical(baseline, result)
    assert result.retries >= 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_matches_serial_baseline_under_corrupt_chaos(backend):
    netlist = make_random_netlist(8, 30, seed=7)
    faults, _ = collapse_faults(netlist)
    baseline = _run(netlist, faults)
    chaos = FaultInjector("corrupt", shard=0, round_index=0)
    result = _run(netlist, faults, executor=backend, jobs=2, chaos=chaos)
    assert_identical(baseline, result)
    assert result.retries >= 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_unrelenting_failures_degrade_in_process(backend):
    netlist = make_random_netlist(8, 30, seed=8)
    faults, _ = collapse_faults(netlist)
    baseline = _run(netlist, faults)
    chaos = FaultInjector("crash", shard=0, round_index=0, times=100)
    result = _run(netlist, faults, executor=backend, jobs=2, chaos=chaos)
    assert_identical(baseline, result)
    assert 0 in result.degraded_shards


def test_round_results_name_faults_by_position():
    """A round result carries ints only, each fault named by its position
    in the unit's fault tuple, so no ``Fault`` crosses the pool's pipe;
    mapped back, it is exactly what one ``simulate_batch`` pass found."""
    from repro.engine.cache import GoldenBatches
    from repro.exec.base import WorkUnit
    from repro.exec.worker import round_checksum, run_work_unit
    from repro.faultsim.simulator import FaultSimulator

    netlist = make_random_netlist(8, 30, seed=5)
    faults, _ = collapse_faults(netlist)
    simulator = FaultSimulator(netlist, 64)
    source = RandomPatternSource(len(netlist.primary_inputs), seed=23)
    golden = GoldenBatches(simulator.evaluator, source, 64)
    mask, good = (1 << 64) - 1, golden.golden_batch(0, 64)
    # Reversed, so a fault's position is not its index in the run.
    unit = WorkUnit(shard_id=0, faults=tuple(reversed(faults)), mask=mask,
                    golden=good, pattern_base=0, round_index=0,
                    drop_detected=True)
    result = run_work_unit(simulator, unit, in_process=True)
    assert all(type(i) is int for i in result.detections)
    assert all(type(i) is int for i in result.survivors)
    assert result.checksum == round_checksum(
        result.detections, result.survivors, 64)
    detections = {}
    live = FaultSimulator(netlist, 64).simulate_batch(
        list(unit.faults), good, mask, 0, detections, True)
    assert detections and live
    assert {unit.faults[i]: p for i, p in result.detections.items()} \
        == detections
    assert [unit.faults[i] for i in result.survivors] == live


def test_jobs_one_stays_on_historical_serial_path():
    netlist = make_random_netlist(8, 30, seed=9)
    faults, _ = collapse_faults(netlist)
    result = _run(netlist, faults, executor="process", jobs=1)
    assert result.executor == "serial"
    assert result.jobs == 1


def test_executor_surfaces_in_json():
    netlist = make_random_netlist(8, 20, seed=10)
    faults, _ = collapse_faults(netlist)
    result = _run(netlist, faults, executor="process", jobs=2)
    assert result.to_json()["engine"]["executor"] == "process"


# ---------------------------------------------------------- warm-pool reuse


def test_process_pool_is_reused_across_simulate_calls():
    from repro.exec import process as exec_process

    exec_process._drain_pool_cache()
    netlist = make_random_netlist(8, 30, seed=11)
    faults, _ = collapse_faults(netlist)
    telemetry.reset()
    telemetry.enable()
    try:
        _run(netlist, faults, executor="process", jobs=2)
        assert len(exec_process._POOL_CACHE) == 1
        parked = next(iter(exec_process._POOL_CACHE.values()))
        _run(netlist, faults, executor="process", jobs=2)
        assert next(iter(exec_process._POOL_CACHE.values())) is parked
        counters = telemetry.get_telemetry().metrics.snapshot()["counters"]
        assert counters.get("exec.pool_reuse", 0) >= 1
    finally:
        telemetry.disable()
        telemetry.reset()
        exec_process._drain_pool_cache()


def test_changing_netlist_evicts_parked_pool():
    from repro.exec import process as exec_process

    exec_process._drain_pool_cache()
    first = make_random_netlist(8, 30, seed=12)
    second = make_random_netlist(8, 30, seed=13)
    try:
        faults, _ = collapse_faults(first)
        _run(first, faults, executor="process", jobs=2)
        parked = next(iter(exec_process._POOL_CACHE.values()))
        faults, _ = collapse_faults(second)
        _run(second, faults, executor="process", jobs=2)
        # One-slot cache: the old pool was evicted, a new one was parked.
        assert len(exec_process._POOL_CACHE) == 1
        assert next(iter(exec_process._POOL_CACHE.values())) is not parked
    finally:
        exec_process._drain_pool_cache()


# ----------------------------------------------------- kernel cross-product
#
# The vectorised kernel is an evaluation strategy, exactly like the
# executor choice one axis over: kernel × backend × chaos must all land
# on the same detection tables as the packed serial baseline, on a real
# scenario (the paper's c3a2m multiplier kernel), through the retry and
# degraded paths included.


@pytest.fixture(scope="module")
def c3a2m():
    netlist = c3a2m_kernel()
    faults, _ = collapse_faults(netlist)
    # Subsample to keep the 12-cell matrix quick; identity must hold for
    # any fault list, so a slice is as probing as the full universe.
    return netlist, faults[::3]


@pytest.fixture(scope="module")
def c3a2m_baseline(c3a2m):
    netlist, faults = c3a2m
    return _run(netlist, faults, kernel="packed")


def _require_kernel(kernel):
    if kernel == "vec":
        pytest.importorskip("numpy")


@pytest.mark.parametrize("with_chaos", (False, True), ids=("clean", "chaos"))
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_kernel_backend_chaos_cross_product(c3a2m, c3a2m_baseline, kernel,
                                            backend, with_chaos):
    _require_kernel(kernel)
    netlist, faults = c3a2m
    chaos = (FaultInjector("crash", shard=1, round_index=0)
             if with_chaos else None)
    result = _run(netlist, faults, executor=backend, jobs=3, chaos=chaos,
                  kernel=kernel)
    assert_identical(c3a2m_baseline, result)
    assert result.kernel == kernel
    assert result.kernel_fallback is None
    if with_chaos:
        assert result.retries >= 1


def test_only_multi_shard_rounds_reach_the_pool(c3a2m, c3a2m_baseline,
                                                pool_watch, tele):
    """A ``process`` run submits a round to the pool only while two or more
    of its shards have live faults; a one-shard round runs in the parent.
    On the c3a2m slice shard 0 holds the kernel's undetectable fault, so
    the run has one-shard rounds, and it stays bit-identical to serial."""
    netlist, faults = c3a2m
    result = _run(netlist, faults, executor="process", jobs=2)
    counters = tele.metrics.snapshot()["counters"]
    assert_identical(c3a2m_baseline, result)
    assert result.executor == "process"
    # A shard is active in a round while one of its faults is undetected
    # at the round's first pattern (64 patterns a round, 8 rounds).
    first = c3a2m_baseline.first_detection
    shard_faults = (faults[0::2], faults[1::2])
    multi = [
        index for index in range(8)
        if all(any(f not in first or first[f] >= 64 * index for f in shard)
               for shard in shard_faults)
    ]
    assert 0 < len(multi) < 8
    assert sorted(pool_watch["units"]) == [
        (index, shard, 0) for index in multi for shard in (0, 1)]
    assert counters["exec.pool_rounds"] == len(multi)
    assert counters["engine.rounds"] == 8


@pytest.mark.parametrize("kernel", KERNELS)
def test_degraded_shards_are_kernel_agnostic(c3a2m, c3a2m_baseline, kernel):
    """A shard that exhausts its retries degrades in-process identically
    under either kernel — the recovery path re-runs the same batches."""
    _require_kernel(kernel)
    netlist, faults = c3a2m
    chaos = FaultInjector("crash", shard=0, round_index=0, times=100)
    result = _run(netlist, faults, executor="serial", jobs=2, chaos=chaos,
                  kernel=kernel)
    assert_identical(c3a2m_baseline, result)
    assert 0 in result.degraded_shards


@pytest.mark.parametrize("backend", BACKENDS)
def test_budget_cut_partial_runs_report_identical_undetected_sets(
        c3a2m, backend):
    """A guard budget that cuts the run mid-universe must leave the two
    kernels in the same partial state: same surviving ``undetected`` set,
    same detections — including faults dropped in the very shard round
    the budget cut lands on."""
    pytest.importorskip("numpy")
    netlist, faults = c3a2m
    results = {}
    for kernel in KERNELS:
        results[kernel] = _run(
            netlist, faults, executor=backend, jobs=2, kernel=kernel,
            budget=Budget(max_patterns=192),
        )
    packed, vec = results["packed"], results["vec"]
    assert packed.partial and vec.partial
    assert packed.stop_reason == vec.stop_reason == STOP_PATTERNS
    # The cut lands at a round boundary, strictly inside the run.
    assert 0 < packed.n_patterns < 512
    assert vec.n_patterns == packed.n_patterns
    assert vec.first_detection == packed.first_detection
    assert set(vec.undetected) == set(packed.undetected)
    # Sanity: the cut actually left live faults behind.
    assert packed.undetected


def test_explicit_vec_falls_back_on_unsupported_netlist():
    """kernel="vec" on a netlist the vectorised kernel cannot evaluate
    (a gate beyond the fan-in ceiling) silently falls back to packed —
    with the reason surfaced — rather than erroring."""
    pytest.importorskip("numpy")
    from repro.engine.vec import MAX_VEC_FANIN
    from repro.netlist.gates import GateType
    from repro.netlist.netlist import Netlist

    netlist = Netlist("wide")
    inputs = netlist.new_inputs(MAX_VEC_FANIN + 4, prefix="i")
    netlist.mark_output(netlist.add_gate(GateType.OR, inputs, name="wide"))
    netlist.mark_output(netlist.add_gate(GateType.AND, inputs[:2], name="a"))
    faults, _ = collapse_faults(netlist)

    baseline = _run(netlist, faults, kernel="packed", max_patterns=128)
    for backend in BACKENDS:
        result = _run(netlist, faults, executor=backend, jobs=2,
                      kernel="vec", max_patterns=128)
        assert_identical(baseline, result)
        assert result.kernel == "packed"
        assert "fan-in" in result.kernel_fallback
        assert result.to_json()["engine"]["kernel_fallback"] == \
            result.kernel_fallback


def test_journal_resumes_across_kernels(tmp_path, c3a2m):
    """The kernel never forks the journal key: rounds journaled by a
    packed run replay under a vec resume, the remainder runs vectorised,
    and the merged result equals a straight-through run."""
    pytest.importorskip("numpy")
    from repro.engine import ChaosInterrupt
    from repro.exec import CheckpointPolicy

    netlist, faults = c3a2m
    ckpt = str(tmp_path / "journal")

    def run(kernel, chaos=None, resume=False):
        source = RandomPatternSource(len(netlist.primary_inputs), seed=23)
        config = RunConfig(
            execution=ExecutionPolicy(
                executor="serial", jobs=2, batch_width=64, chunk_batches=1,
                kernel=kernel,
            ),
            checkpoint=CheckpointPolicy(directory=ckpt, resume=resume),
            chaos=chaos,
            max_patterns=512,
        )
        return simulate(netlist, faults, source, config=config)

    reference = _run(netlist, faults, kernel="packed")
    with pytest.raises(ChaosInterrupt):
        run("packed", chaos=FaultInjector(mode="abort", shard=0))
    resumed = run("vec", resume=True)
    assert_identical(reference, resumed)
    assert resumed.rounds_resumed >= 1
    assert resumed.kernel == "vec"


def test_kernel_surfaces_in_json(c3a2m):
    pytest.importorskip("numpy")
    netlist, faults = c3a2m
    result = _run(netlist, faults, executor="process", jobs=2, kernel="vec")
    engine = result.to_json()["engine"]
    assert engine["kernel"] == "vec"
    assert engine["kernel_fallback"] is None
