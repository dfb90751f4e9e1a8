"""Chaos suite: the parallel engine under injected worker failure.

Every test drives :func:`repro.engine.simulate` with a deterministic
:class:`FaultInjector` plan — crash a shard worker mid-round, hang it past
the shard timeout, corrupt its result payload, exhaust its retry budget —
and asserts the merged results are bit-identical to the serial ``jobs=1``
run on the paper's bundled circuits (figure 4, figure 9, c3a2m).  The
checkpoint tests interrupt a run mid-way with ``abort`` chaos and verify
that ``resume=True`` replays the journal instead of re-running completed
shard rounds (observed through ``ShardStats.rounds_resumed``).

Run the whole engine suite under ambient chaos locally with e.g.::

    REPRO_CHAOS=crash:1 PYTHONPATH=src python -m pytest tests/test_engine.py

See ``docs/TESTING.md`` for the full spec grammar.
"""

from __future__ import annotations


import pytest

from repro.engine import (
    ChaosError,
    ChaosInterrupt,
    CheckpointStore,
    FaultInjector,
    GoldenBatches,
    simulate,
)
from repro.engine.chaos import CHAOS_ENV_VAR
from repro.engine.checkpoint import run_key
from repro.errors import SimulationError
from repro.exec import CheckpointPolicy, RetryPolicy, RunConfig
from repro.exec.config import DEFAULT_CHUNK_BATCHES
from repro.faultsim.collapse import collapse_faults
from repro.faultsim.patterns import RandomPatternSource
from repro.faultsim.simulator import FaultSimulator
from tests.test_engine import (
    JOBS,
    assert_identical,
    c3a2m_netlists,
    figure4_netlists,
    figure9_netlists,
)

CIRCUITS = [figure4_netlists, figure9_netlists, c3a2m_netlists]
CIRCUIT_IDS = ["figure4", "figure9", "c3a2m"]


def _kernel_run(netlist, *, jobs, max_patterns=1 << 9,
                chunk_batches=DEFAULT_CHUNK_BATCHES, **fields):
    """One kernel run; ``fields`` are further :class:`RunConfig` fields."""
    faults, _ = collapse_faults(netlist)
    if len(faults) > 120:
        faults = faults[::7]
    source = RandomPatternSource(len(netlist.primary_inputs), seed=7)
    config = RunConfig(
        max_patterns=max_patterns, stop_when_complete=False, **fields,
    ).with_execution(jobs=jobs, chunk_batches=chunk_batches)
    return simulate(netlist, faults, source, config=config)


# --------------------------------------------------------- injector parsing

def test_injector_parse_round_trips():
    injector = FaultInjector.parse("delay:2:round=1:times=3:seconds=0.25")
    assert injector == FaultInjector(
        mode="delay", shard=2, round_index=1, times=3, seconds=0.25
    )
    assert FaultInjector.parse("crash:0") == FaultInjector(mode="crash", shard=0)


def test_injector_parse_rejects_garbage():
    with pytest.raises(SimulationError):
        FaultInjector.parse("meltdown:0")
    with pytest.raises(SimulationError):
        FaultInjector.parse("crash")
    with pytest.raises(SimulationError):
        FaultInjector.parse("crash:0:bogus=1")


def test_injector_from_env(monkeypatch):
    monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)
    assert FaultInjector.from_env() is None
    monkeypatch.setenv(CHAOS_ENV_VAR, "raise:1:times=2")
    injector = FaultInjector.from_env()
    assert injector.mode == "raise" and injector.shard == 1
    assert injector.times == 2


def test_retired_node_chaos_modes_are_refused(monkeypatch):
    """The node modes went with the backend that acted on them: from a
    spec or from ``$REPRO_CHAOS`` they are unknown modes."""
    for mode in ("node_down", "node_hang", "net_drop"):
        with pytest.raises(SimulationError, match="unknown chaos mode"):
            FaultInjector.parse(f"{mode}:0")
    monkeypatch.setenv(CHAOS_ENV_VAR, "net_drop:1")
    with pytest.raises(SimulationError, match="unknown chaos mode"):
        FaultInjector.from_env()


def test_injector_fires_only_on_target():
    injector = FaultInjector(mode="raise", shard=1, round_index=2, times=2)
    assert injector.fires(1, 2, 0) and injector.fires(1, 2, 1)
    assert not injector.fires(1, 2, 2)  # retry budget: attempt 2 succeeds
    assert not injector.fires(0, 2, 0)
    assert not injector.fires(1, 1, 0)


# ----------------------------------------- bit-identical under any failure

@pytest.mark.parametrize("build", CIRCUITS, ids=CIRCUIT_IDS)
@pytest.mark.parametrize("mode", ["crash", "raise", "corrupt"])
def test_single_shard_failure_is_bit_identical_to_serial(build, mode):
    """Acceptance: with chaos crashing any single shard, jobs=N results
    equal serial on the bundled circuits."""
    name, netlists = build()
    assert netlists, f"{name}: no logic kernels"
    netlist = netlists[0]
    serial = _kernel_run(netlist, jobs=1)
    chaotic = _kernel_run(
        netlist, jobs=JOBS,
        chaos=FaultInjector(mode=mode, shard=JOBS - 1),
    )
    assert_identical(serial, chaotic)
    stats = chaotic.shards
    assert sum(s.retries for s in stats) >= 1
    assert sum(s.failures for s in stats) >= 1
    assert all(not s.degraded for s in stats)


@pytest.mark.parametrize("build", CIRCUITS, ids=CIRCUIT_IDS)
def test_hung_shard_times_out_and_retries(build):
    name, netlists = build()
    netlist = netlists[0]
    serial = _kernel_run(netlist, jobs=1)
    chaotic = _kernel_run(
        netlist, jobs=JOBS, retry=RetryPolicy(shard_timeout=0.5),
        chaos=FaultInjector(mode="delay", shard=0, seconds=5.0),
    )
    assert_identical(serial, chaotic)
    stats = chaotic.shards
    assert sum(s.timeouts for s in stats) >= 1
    assert sum(s.retries for s in stats) >= 1


def test_exhausted_retries_degrade_to_in_process_serial():
    """A shard that fails on every attempt is re-run in-process; results
    still match serial and the degradation is visible in the stats."""
    _, netlists = figure4_netlists()
    netlist = netlists[0]
    serial = _kernel_run(netlist, jobs=1)
    chaotic = _kernel_run(
        netlist, jobs=JOBS, retry=RetryPolicy(max_retries=2),
        chaos=FaultInjector(mode="raise", shard=1, times=10),
    )
    assert_identical(serial, chaotic)
    stats = chaotic.shards
    degraded = [s for s in stats if s.degraded]
    assert [s.shard for s in degraded] == [1]
    assert degraded[0].degraded_reason is not None
    assert chaotic.degraded_shards == [1]


def test_corruption_is_detected_not_merged():
    """A corrupted shard payload must never reach the merge: the checksum
    rejects it, the retry succeeds, and results stay exact."""
    _, netlists = figure9_netlists()
    netlist = netlists[0]
    serial = _kernel_run(netlist, jobs=1)
    chaotic = _kernel_run(
        netlist, jobs=2,
        chaos=FaultInjector(mode="corrupt", shard=0),
    )
    assert_identical(serial, chaotic)
    assert sum(s.failures for s in chaotic.shards) == 1


def test_ambient_chaos_env_var(monkeypatch):
    """REPRO_CHAOS drives injection without any code change."""
    _, netlists = figure4_netlists()
    netlist = netlists[0]
    serial = _kernel_run(netlist, jobs=1)
    monkeypatch.setenv(CHAOS_ENV_VAR, "raise:0")
    chaotic = _kernel_run(netlist, jobs=2)
    assert_identical(serial, chaotic)
    assert sum(s.retries for s in chaotic.shards) == 1


# --------------------------------------------------------- checkpoint/resume

def test_interrupted_parallel_run_resumes_from_journal(tmp_path):
    """Acceptance: an interrupted run re-invoked with resume=True completes
    without re-running journaled shard rounds."""
    _, netlists = figure4_netlists()
    netlist = netlists[0]
    ckpt = str(tmp_path / "journal")
    options = dict(jobs=2, chunk_batches=1, max_patterns=1 << 10)

    reference = _kernel_run(netlist, jobs=1, max_patterns=1 << 10)
    with pytest.raises(ChaosInterrupt):
        _kernel_run(
            netlist, chaos=FaultInjector(mode="abort", shard=0),
            checkpoint=CheckpointPolicy(ckpt), **options
        )

    resumed = _kernel_run(
        netlist, checkpoint=CheckpointPolicy(ckpt, resume=True), **options
    )
    assert_identical(reference, resumed)
    stats = resumed.shards
    # Both shards replay their journaled round-0 records without touching
    # a worker; later rounds execute normally.
    assert [s.rounds_resumed for s in stats] == [1, 1]
    assert resumed.rounds_resumed == 2
    assert sum(s.retries for s in stats) == 0


def test_resume_false_clears_stale_journal(tmp_path):
    _, netlists = figure4_netlists()
    netlist = netlists[0]
    ckpt = str(tmp_path / "journal")
    options = dict(jobs=2, chunk_batches=1, max_patterns=1 << 10)
    with pytest.raises(ChaosInterrupt):
        _kernel_run(
            netlist, chaos=FaultInjector(mode="abort", shard=0),
            checkpoint=CheckpointPolicy(ckpt), **options
        )
    fresh = _kernel_run(
        netlist, checkpoint=CheckpointPolicy(ckpt, resume=False), **options
    )
    assert fresh.rounds_resumed == 0


def test_interrupted_serial_run_resumes_from_journal(tmp_path):
    _, netlists = figure9_netlists()
    netlist = netlists[0]
    ckpt = str(tmp_path / "journal")
    # One batch per round: the run's 1 024 patterns are otherwise a single
    # round and the abort after round 1 would never fire.
    options = dict(jobs=1, chunk_batches=1, max_patterns=1 << 10)

    reference = _kernel_run(netlist, jobs=1, max_patterns=1 << 10)
    with pytest.raises(ChaosInterrupt):
        _kernel_run(
            netlist, chaos=FaultInjector(mode="abort", shard=1),
            checkpoint=CheckpointPolicy(ckpt), **options
        )
    resumed = _kernel_run(
        netlist, checkpoint=CheckpointPolicy(ckpt, resume=True), **options
    )
    assert_identical(reference, resumed)
    assert resumed.rounds_resumed >= 2


def test_one_batch_per_record_journal_resumes(tmp_path):
    """A journal holding one batch per record — the layout ``jobs=1`` runs
    wrote before they shared the round loop — still resumes under the same
    run key, bit-identically: every record pins its own round width."""
    _, netlists = figure9_netlists()
    netlist = netlists[0]
    faults, _ = collapse_faults(netlist)
    source = lambda: RandomPatternSource(  # noqa: E731
        len(netlist.primary_inputs), seed=7)
    config = RunConfig(max_patterns=1 << 11, stop_when_complete=False)
    width = config.execution.batch_width
    store = CheckpointStore(tmp_path, run_key(netlist, source(), faults,
                                              config, 1))
    simulator = FaultSimulator(netlist, width)
    golden = GoldenBatches(simulator.evaluator, source(), width)
    index = {fault: i for i, fault in enumerate(faults)}
    live = list(faults)
    for batch in range(6):
        detections = {}
        live = simulator.simulate_batch(
            live, golden.golden_batch(batch), (1 << width) - 1,
            batch * width, detections,
        )
        store.record(0, batch,
                     {index[f]: p for f, p in detections.items()},
                     [index[f] for f in live], width)

    reference = simulate(netlist, faults, source(), config=config)
    resumed = simulate(netlist, faults, source(), config=config.replace(
        checkpoint=CheckpointPolicy(tmp_path, resume=True)))
    assert_identical(reference, resumed)
    assert resumed.rounds_resumed == 6


def test_journal_is_keyed_by_run_parameters(tmp_path):
    """A journal written for one pattern budget must not be replayed into
    a run with a different one — the run key separates them."""
    _, netlists = figure4_netlists()
    netlist = netlists[0]
    ckpt = str(tmp_path / "journal")
    with pytest.raises(ChaosInterrupt):
        _kernel_run(
            netlist, jobs=2, checkpoint=CheckpointPolicy(ckpt),
            chunk_batches=1, max_patterns=1 << 10,
            chaos=FaultInjector(mode="abort", shard=0),
        )
    other = _kernel_run(
        netlist, jobs=2, checkpoint=CheckpointPolicy(ckpt, resume=True),
        chunk_batches=1, max_patterns=1 << 9,
    )
    assert other.rounds_resumed == 0
    reference = _kernel_run(netlist, jobs=1, max_patterns=1 << 9)
    assert_identical(reference, other)


def test_truncated_record_is_skipped_and_rerun(tmp_path):
    """A half-written (truncated) record must be treated as never written:
    loading skips it and the resumed run re-executes that round."""
    _, netlists = figure4_netlists()
    netlist = netlists[0]
    ckpt = tmp_path / "journal"
    options = dict(jobs=2, chunk_batches=1, max_patterns=1 << 10)
    reference = _kernel_run(netlist, jobs=1, max_patterns=1 << 10)
    with pytest.raises(ChaosInterrupt):
        _kernel_run(
            netlist, chaos=FaultInjector(mode="abort", shard=0),
            checkpoint=CheckpointPolicy(str(ckpt)), **options
        )
    records = sorted(ckpt.glob("*/shard*_round*.rec"))
    assert records
    # Truncate one record mid-pickle, as a crash between write and fsync
    # could leave it on a lesser filesystem.
    blob = records[0].read_bytes()
    records[0].write_bytes(blob[: max(1, len(blob) // 2)])
    resumed = _kernel_run(
        netlist, checkpoint=CheckpointPolicy(str(ckpt), resume=True),
        **options
    )
    assert_identical(reference, resumed)
    assert resumed.rounds_resumed == len(records) - 1


def test_stale_tmp_files_are_swept_on_load_and_clear(tmp_path):
    """``*.tmp`` litter from a killed writer is removed, never replayed."""
    from repro.engine.checkpoint import CheckpointStore

    store = CheckpointStore(tmp_path, "a" * 64)
    store.record(0, 0, {1: 5}, [2, 3], 64)
    litter = store.directory / "dead-writer-1234.tmp"
    litter.write_bytes(b"half a pickle")
    records = store.load()
    assert (0, 0) in records
    assert not litter.exists()

    litter.write_bytes(b"more litter")
    store.clear()
    assert not litter.exists()
    assert store.n_records() == 0


def test_chaos_error_is_a_simulation_error():
    assert issubclass(ChaosError, SimulationError)
    assert issubclass(ChaosInterrupt, RuntimeError)


# ---------------------------------------------------- chaos + telemetry on


def test_chaos_with_tracing_enabled_stays_bit_identical():
    """Telemetry must not perturb the engine even while shards are being
    crashed and retried: serial == chaotic-parallel with tracing on, and
    the degraded fallback leaves a span behind."""
    from repro import telemetry

    _, netlists = figure4_netlists()
    netlist = netlists[0]
    serial = _kernel_run(netlist, jobs=1)
    instance = telemetry.get_telemetry()
    instance.reset()
    instance.enable()
    try:
        chaotic = _kernel_run(
            netlist, jobs=JOBS, retry=RetryPolicy(max_retries=1),
            chaos=FaultInjector(mode="crash", shard=0, times=10),
        )
        assert_identical(serial, chaotic)
        degraded = [s.shard for s in chaotic.shards if s.degraded]
        # Shard 0 must degrade; a crash can poison the shared pool and
        # take co-scheduled shards past their budget with it.
        assert 0 in degraded
        names = {r.name for r in instance.tracer.snapshot()}
        assert "engine.shard_round.degraded" in names
        counters = instance.metrics.snapshot()["counters"]
        assert counters["engine.degraded_shards"] == len(degraded)
        assert counters["engine.failures"] >= 1
    finally:
        instance.reset()
        instance.disable()
