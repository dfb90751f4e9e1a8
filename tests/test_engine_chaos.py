"""Chaos suite: the parallel engine under injected worker failure.

Every test drives :func:`repro.engine.simulate` with a deterministic
:class:`FaultInjector` plan — crash a shard worker mid-round, hang it past
the shard timeout, corrupt its result payload, exhaust its retry budget —
and asserts the merged results are bit-identical to the serial ``jobs=1``
run on the paper's bundled circuits (figure 4, figure 9, c3a2m).  A few
pin where a failure is handled: on the process pool for a round with two
or more active shards, in the parent for a round with one.  The
checkpoint tests interrupt a run mid-way with ``abort`` chaos and verify
that ``resume=True`` replays the journal instead of re-running completed
rounds (observed through ``ShardStats.rounds_resumed``).

Run the whole engine suite under ambient chaos locally with e.g.::

    REPRO_CHAOS=crash:1 PYTHONPATH=src python -m pytest tests/test_engine.py

See ``docs/TESTING.md`` for the full spec grammar.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.engine import (
    ChaosError,
    ChaosInterrupt,
    FaultInjector,
    simulate,
)
from repro.engine.chaos import CHAOS_ENV_VAR
from repro.engine.checkpoint import _HEADER, CheckpointStore
from repro.errors import SimulationError
from repro.exec import CheckpointPolicy, RetryPolicy, RunConfig
from repro.exec.config import DEFAULT_CHUNK_BATCHES
from repro.faultsim.collapse import collapse_faults
from repro.faultsim.patterns import RandomPatternSource
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
                chunk_batches=DEFAULT_CHUNK_BATCHES, executor=None,
                **fields):
    """One kernel run; ``fields`` are further :class:`RunConfig` fields."""
    faults, _ = collapse_faults(netlist)
    if len(faults) > 120:
        faults = faults[::7]
    source = RandomPatternSource(len(netlist.primary_inputs), seed=7)
    config = RunConfig(
        max_patterns=max_patterns, stop_when_complete=False, **fields,
    ).with_execution(jobs=jobs, chunk_batches=chunk_batches,
                     executor=executor)
    return simulate(netlist, faults, source, config=config)


@contextlib.contextmanager
def _counting():
    """Telemetry on for the block; the yielded dict gets its counters."""
    from repro import telemetry

    instance = telemetry.get_telemetry()
    instance.reset()
    instance.enable()
    counters = {}
    try:
        yield counters
        counters.update(instance.metrics.snapshot()["counters"])
    finally:
        instance.reset()
        instance.disable()


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
        netlist, jobs=JOBS,
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


# ------------------------------------------------ where a chaotic round runs
#
# figure4 at jobs=2 with one batch a round: round 0 has both shards
# active, and round 1 only shard 0, whose undetectable fault outlives
# the run.  A process run sends round 0 to the pool and runs round 1 in
# the parent, so chaos aimed at round 1 fails and retries there.


def _figure4_process_run(**fields):
    """A figure4 process run at jobs=2, checked against the serial run."""
    _, netlists = figure4_netlists()
    serial = _kernel_run(netlists[0], jobs=1, chunk_batches=1)
    chaotic = _kernel_run(netlists[0], jobs=2, chunk_batches=1,
                          executor="process", **fields)
    assert_identical(serial, chaotic)
    assert chaotic.executor == "process"
    return chaotic


@pytest.mark.parametrize("mode", ["crash", "raise", "corrupt"])
def test_one_shard_round_retries_in_the_parent(pool_watch, mode):
    chaotic = _figure4_process_run(
        chaos=FaultInjector(mode=mode, shard=0, round_index=1),
    )
    # Round 1 never reached the pool: it failed and retried in the parent.
    assert {unit[0] for unit in pool_watch["units"]} == {0}
    assert pool_watch["restarts"] == 0
    shard = chaotic.shards[0]
    assert (shard.failures, shard.retries, shard.timeouts) == (1, 1, 0)
    assert not chaotic.degraded_shards


def test_one_shard_round_runs_past_the_shard_timeout(pool_watch):
    """The timeout contract: a one-shard round runs on the parent thread,
    which nothing preempts, so a delay past ``shard_timeout`` completes
    and counts no timeout and no retry."""
    chaotic = _figure4_process_run(
        retry=RetryPolicy(shard_timeout=0.1),
        chaos=FaultInjector(mode="delay", shard=0, round_index=1,
                            seconds=0.3),
    )
    assert {unit[0] for unit in pool_watch["units"]} == {0}
    assert chaotic.wall_time >= 0.3
    assert sum(s.timeouts for s in chaotic.shards) == 0
    assert chaotic.retries == 0


@pytest.mark.parametrize("mode", ["crash", "delay"])
def test_round_zero_chaos_restarts_the_pool(pool_watch, mode):
    """Round 0 has both shards active, so it runs on the pool: a crashed
    or hung worker there costs a pool restart and a retry on the pool,
    and a hung one counts a timeout."""
    retry = RetryPolicy(shard_timeout=0.5 if mode == "delay" else None)
    chaotic = _figure4_process_run(
        retry=retry, chaos=FaultInjector(mode=mode, shard=0, seconds=5.0),
    )
    assert (0, 0, 1) in pool_watch["units"]
    assert pool_watch["restarts"] >= 1
    timeouts = sum(s.timeouts for s in chaotic.shards)
    assert timeouts >= 1 if mode == "delay" else timeouts == 0


def test_broken_pool_on_submit_is_a_failed_attempt(monkeypatch):
    """A worker that dies while a wave is still being submitted breaks
    the pool under the next ``submit``: that shard's attempt fails and
    retries on a rebuilt pool like any other failure, instead of the
    error escaping ``simulate``."""
    from concurrent.futures.process import BrokenProcessPool

    from repro.exec.process import ProcessExecutor

    submit_round = ProcessExecutor.submit_round

    def breaking_submit(self, unit):
        if (unit.shard_id, unit.round_index, unit.attempt) == (2, 0, 0):
            raise BrokenProcessPool("a worker died mid-wave")
        return submit_round(self, unit)

    monkeypatch.setattr(ProcessExecutor, "submit_round", breaking_submit)
    _, netlists = figure4_netlists()
    serial = _kernel_run(netlists[0], jobs=1)
    chaotic = _kernel_run(netlists[0], jobs=3, executor="process")
    assert_identical(serial, chaotic)
    assert chaotic.executor == "process"
    assert chaotic.retries >= 1
    shard = chaotic.shards[2]
    assert (shard.failures, shard.retries) == (1, 1)
    assert not chaotic.degraded_shards


# --------------------------------------------------------- checkpoint/resume

def test_interrupted_parallel_run_resumes_from_journal(tmp_path):
    """Acceptance: an interrupted run re-invoked with resume=True completes
    without re-running journaled rounds."""
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
    loading stops before it and the resumed run re-executes that round."""
    _, netlists = figure4_netlists()
    netlist = netlists[0]
    ckpt = tmp_path / "journal"
    options = dict(jobs=2, chunk_batches=1, max_patterns=1 << 10)
    reference = _kernel_run(netlist, jobs=1, max_patterns=1 << 10)
    with pytest.raises(ChaosInterrupt):
        _kernel_run(
            netlist, chaos=FaultInjector(mode="abort", shard=1),
            checkpoint=CheckpointPolicy(str(ckpt)), **options
        )
    (journal,) = ckpt.glob("*.journal")
    assert sorted(CheckpointStore(ckpt, journal.stem).load()) == [0, 1]
    # Cut round 1's record in half, as a crash between write and fsync
    # could leave it on a lesser filesystem.
    blob = journal.read_bytes()
    round0 = _HEADER.size + _HEADER.unpack_from(blob)[0]
    journal.write_bytes(blob[: round0 + (len(blob) - round0) // 2])
    resumed = _kernel_run(
        netlist, checkpoint=CheckpointPolicy(str(ckpt), resume=True),
        **options
    )
    assert_identical(reference, resumed)
    # Round 0 replays on both shards; round 1 runs again.
    assert resumed.rounds_resumed == 2


def test_torn_tail_is_cut_before_the_resumed_run_appends(tmp_path):
    """A killed writer's torn tail is never replayed and is cut (and
    counted) on resume, so the rounds the resumed run appends stay
    reachable; a fresh start drops the run's journal."""
    _, netlists = figure4_netlists()
    netlist = netlists[0]
    ckpt = tmp_path / "journal"
    options = dict(jobs=2, chunk_batches=1, max_patterns=1 << 10)
    with pytest.raises(ChaosInterrupt):
        _kernel_run(
            netlist, chaos=FaultInjector(mode="abort", shard=0),
            checkpoint=CheckpointPolicy(str(ckpt)), **options
        )
    (journal,) = ckpt.glob("*.journal")
    store = CheckpointStore(ckpt, journal.stem)
    with open(journal, "ab") as handle:
        handle.write(b"half a record")
    assert sorted(store.load()) == [0]
    with _counting() as counters:
        resumed = _kernel_run(
            netlist, checkpoint=CheckpointPolicy(str(ckpt), resume=True),
            **options
        )
    assert counters["engine.swallowed_errors"] == 1
    assert resumed.rounds_resumed == 2
    assert sorted(store.load()) == [0, 1, 2, 3]
    assert store.torn_at is None

    with pytest.raises(ChaosInterrupt):
        _kernel_run(
            netlist, chaos=FaultInjector(mode="abort", shard=0),
            checkpoint=CheckpointPolicy(str(ckpt)), **options
        )
    assert sorted(store.load()) == [0]


def test_records_that_do_not_fit_their_round_are_rerun(tmp_path):
    """A journaled round replays only if its record ends where the round
    ends and names this run's faults inside the round; any other record
    under the run's key is counted and its round runs again."""
    _, netlists = figure9_netlists()
    netlist = netlists[0]
    ckpt = tmp_path / "journal"
    options = dict(jobs=1, chunk_batches=1, max_patterns=1 << 10)
    reference = _kernel_run(netlist, jobs=1, max_patterns=1 << 10)
    n_faults = len(reference.faults)
    undetected = [index for index, fault in enumerate(reference.faults)
                  if fault not in reference.first_detection]
    assert len(undetected) >= 2
    with pytest.raises(ChaosInterrupt):
        _kernel_run(
            netlist, chaos=FaultInjector(mode="abort", shard=0),
            checkpoint=CheckpointPolicy(str(ckpt)), **options
        )
    (journal,) = ckpt.glob("*.journal")
    store = CheckpointStore(ckpt, journal.stem)
    # Rounds 1-3 cover patterns [256, 512), [512, 768) and [768, 1024).
    store.record(1, 513, {undetected[0]: 300})        # a wrong end
    store.record(2, 768, {n_faults: 600})              # no such fault
    store.record(3, 1024, {undetected[1]: 100})       # outside its round
    with _counting() as counters:
        resumed = _kernel_run(
            netlist, checkpoint=CheckpointPolicy(str(ckpt), resume=True),
            **options
        )
    assert_identical(reference, resumed)
    assert resumed.rounds_resumed == 1
    assert counters["engine.swallowed_errors"] == 3
    # The rerun rounds' records come later in the file, so they win.
    again = _kernel_run(
        netlist, checkpoint=CheckpointPolicy(str(ckpt), resume=True),
        **options
    )
    assert_identical(reference, again)
    assert again.rounds_resumed == 4


@pytest.mark.parametrize("written, resumed_at", [(2, 1), (1, 2)])
def test_journal_resumes_across_shard_counts(tmp_path, written, resumed_at):
    """The shard count is execution strategy: a journal written at one
    shard count resumes at another, bit-identically."""
    _, netlists = figure4_netlists()
    netlist = netlists[0]
    ckpt = str(tmp_path / "journal")
    options = dict(chunk_batches=1, max_patterns=1 << 10)
    reference = _kernel_run(netlist, jobs=1, max_patterns=1 << 10)
    with pytest.raises(ChaosInterrupt):
        _kernel_run(
            netlist, jobs=written, chaos=FaultInjector(mode="abort", shard=2),
            checkpoint=CheckpointPolicy(ckpt), **options
        )
    resumed = _kernel_run(
        netlist, jobs=resumed_at,
        checkpoint=CheckpointPolicy(ckpt, resume=True), **options
    )
    assert_identical(reference, resumed)
    assert resumed.rounds_resumed > 0
    assert resumed.jobs == resumed_at


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
            netlist, jobs=JOBS,
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
