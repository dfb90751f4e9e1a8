"""Engine integration tests for :mod:`repro.guard`.

The contract under test (see ``docs/ROBUSTNESS.md``): a tripped budget or
cancel token stops a run cleanly at a shard-round boundary with a
``partial=True`` result and a structured ``stop_reason`` — never an
exception — the checkpoint journal survives, and ``resume=True`` later
completes the run bit-identically to one that was never interrupted.  The
``sigterm`` / ``oom`` chaos modes make cancellation and memory pressure
deterministic, so every path here is reproducible in CI.
"""

from __future__ import annotations

from typing import Optional

import pytest

from repro import telemetry
from repro.engine import FaultInjector, simulate
from repro.exec import CheckpointPolicy, RunConfig
from repro.faultsim.collapse import collapse_faults
from repro.faultsim.patterns import RandomPatternSource
from repro.guard import (
    STOP_CANCELLED,
    STOP_DEADLINE,
    STOP_MEMORY,
    STOP_PATTERNS,
    STOP_SIGTERM,
    Budget,
    CancelToken,
)
from repro.library.scenarios import c3a2m_kernel
from tests.conftest import make_random_netlist
from tests.test_engine import JOBS, assert_identical

try:  # pragma: no cover - optional in minimal environments
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

MAX_PATTERNS = 1 << 9
BATCH = 128


def _run(netlist, faults, *, jobs: Optional[int] = None,
         executor: Optional[str] = None,
         max_patterns: int = MAX_PATTERNS, chunk_batches: int = 1,
         **fields):
    """One guarded run; ``fields`` are further :class:`RunConfig` fields.

    One batch per round (the default) keeps round boundaries at
    BATCH-pattern strides, so budget cuts land mid-run rather than
    beyond it.  ``executor`` pins the backend; ``None`` resolves it as
    any run does.
    """
    source = RandomPatternSource(len(netlist.primary_inputs), seed=11)
    config = RunConfig(
        max_patterns=max_patterns, stop_when_complete=False,
        drop_detected=False, **fields,
    ).with_execution(jobs=jobs, executor=executor, batch_width=BATCH,
                     chunk_batches=chunk_batches)
    return simulate(netlist, faults, source, config=config)


@pytest.fixture(scope="module")
def circuit():
    netlist = make_random_netlist(10, 90, seed=21)
    faults, _ = collapse_faults(netlist)
    return netlist, faults[::3]


# ---------------------------------------------------------------- deadlines


@pytest.mark.parametrize("jobs", [None, JOBS], ids=["serial", "parallel"])
def test_zero_deadline_stops_immediately(circuit, jobs):
    netlist, faults = circuit
    result = _run(netlist, faults, jobs=jobs, budget=Budget(deadline=0))
    assert result.partial
    assert result.stop_reason == STOP_DEADLINE
    assert result.n_patterns == 0
    assert not result.first_detection
    assert {s.stop_reason for s in result.shards} == {STOP_DEADLINE}
    payload = result.to_json()
    assert payload["partial"] is True
    assert payload["stop_reason"] == STOP_DEADLINE


@pytest.mark.parametrize("jobs", [None, JOBS], ids=["serial", "parallel"])
def test_generous_deadline_changes_nothing(circuit, jobs):
    netlist, faults = circuit
    reference = _run(netlist, faults, jobs=jobs)
    guarded = _run(netlist, faults, jobs=jobs, budget=Budget(deadline=3600))
    assert not guarded.partial
    assert guarded.stop_reason is None
    assert_identical(reference, guarded)


# ------------------------------------------------------------- pattern caps


@pytest.mark.parametrize("jobs", [None, JOBS], ids=["serial", "parallel"])
def test_pattern_budget_stops_at_round_boundary(circuit, jobs):
    netlist, faults = circuit
    cap = MAX_PATTERNS // 2
    result = _run(netlist, faults, jobs=jobs,
                  budget=Budget(max_patterns=cap))
    assert result.partial
    assert result.stop_reason == STOP_PATTERNS
    assert result.n_patterns == cap
    # The truncated run is an exact prefix of the full run.
    full = _run(netlist, faults, jobs=jobs)
    prefix = {f: i for f, i in full.first_detection.items() if i < cap}
    assert result.first_detection == prefix
    assert result.coverage() <= full.coverage()


@pytest.fixture(scope="module")
def c3a2m():
    netlist = c3a2m_kernel()
    faults, _ = collapse_faults(netlist)
    return netlist, faults


@pytest.mark.parametrize("executor", ["serial", "process"])
@pytest.mark.parametrize("cap,applied", [(1000, 0), (3000, 2048)])
def test_pattern_budget_agrees_across_shard_counts(c3a2m, cap, applied,
                                                    executor):
    """Under default chunking (4 batches of 256 per round) a pattern cap
    stops ``jobs=1`` at the same round boundary as ``jobs=2``."""
    netlist, faults = c3a2m

    def run(jobs, backend=None):
        config = RunConfig(budget=Budget(max_patterns=cap)).with_execution(
            jobs=jobs, executor=backend)
        source = RandomPatternSource(len(netlist.primary_inputs), seed=5)
        return simulate(netlist, faults, source, config=config)

    one = run(1)
    two = run(2, executor)
    assert one.n_patterns == two.n_patterns == applied
    assert one.stop_reason == two.stop_reason == STOP_PATTERNS
    assert one.first_detection == two.first_detection


def test_pattern_budget_cut_resumes_bit_identically(circuit, tmp_path):
    netlist, faults = circuit
    reference = _run(netlist, faults, jobs=JOBS)
    cut = _run(netlist, faults, jobs=JOBS,
               budget=Budget(max_patterns=MAX_PATTERNS // 2),
               checkpoint=CheckpointPolicy(tmp_path))
    assert cut.partial
    # The budget is deliberately not part of the journal key: the same
    # run resumed *without* it completes from the cut point.
    resumed = _run(netlist, faults, jobs=JOBS,
                   checkpoint=CheckpointPolicy(tmp_path, resume=True))
    assert not resumed.partial
    assert resumed.rounds_resumed > 0
    assert_identical(reference, resumed)


# ------------------------------------------------------------- cancellation


@pytest.mark.parametrize("jobs", [None, JOBS], ids=["serial", "parallel"])
def test_pretripped_token_stops_before_work(circuit, jobs):
    netlist, faults = circuit
    token = CancelToken()
    token.trip()
    result = _run(netlist, faults, jobs=jobs, cancel=token)
    assert result.partial
    assert result.stop_reason == STOP_CANCELLED
    assert result.n_patterns == 0


def test_chaos_sigterm_partial_then_resume(circuit, tmp_path):
    netlist, faults = circuit
    reference = _run(netlist, faults, jobs=JOBS)
    cut = _run(netlist, faults, jobs=JOBS,
               chaos=FaultInjector.parse("sigterm:1"),
               checkpoint=CheckpointPolicy(tmp_path))
    assert cut.partial
    assert cut.stop_reason == STOP_SIGTERM
    assert 0 < cut.n_patterns < MAX_PATTERNS
    assert cut.to_json()["partial"] is True
    resumed = _run(netlist, faults, jobs=JOBS,
                   checkpoint=CheckpointPolicy(tmp_path, resume=True))
    assert not resumed.partial
    assert resumed.rounds_resumed > 0
    assert_identical(reference, resumed)


# ------------------------------------------------------------------- memory


def test_chaos_oom_ladder_degrades_but_stays_bit_identical(circuit):
    netlist, faults = circuit
    reference = _run(netlist, faults, jobs=JOBS)
    # Only a parallel backend has a serial rung to degrade to; pin one so
    # the ladder is the same under any ambient REPRO_ENGINE_EXECUTOR.
    pressured = _run(netlist, faults, jobs=JOBS, executor="process",
                     chunk_batches=2,
                     chaos=FaultInjector.parse("oom:0:times=5"))
    # Chaos pressure adapts (halve, then serial) but never stops: the run
    # completes and the merged results cannot drift.
    assert not pressured.partial
    assert pressured.stop_reason is None
    assert pressured.memory_adaptations > 0
    assert pressured.degraded_shards
    assert_identical(reference, pressured)


def test_in_process_run_has_no_serial_rung(circuit):
    """A one-shard run already executes in the parent: memory pressure
    halves its rounds, but never degrades it onto a second simulator."""
    netlist, faults = circuit
    reference = _run(netlist, faults)
    pressured = _run(netlist, faults, chunk_batches=2,
                     chaos=FaultInjector.parse("oom:0:times=5"))
    assert not pressured.partial
    assert pressured.memory_adaptations == 1
    assert not pressured.degraded_shards
    assert_identical(reference, pressured)


@pytest.mark.parametrize("jobs", [None, JOBS], ids=["serial", "parallel"])
def test_tiny_rss_limit_stops_with_memory_reason(circuit, jobs):
    netlist, faults = circuit
    result = _run(netlist, faults, jobs=jobs,
                  budget=Budget(max_rss=1, max_patterns=None))
    assert result.partial
    assert result.stop_reason == STOP_MEMORY
    assert result.n_patterns < MAX_PATTERNS


def test_huge_rss_limit_changes_nothing(circuit):
    netlist, faults = circuit
    reference = _run(netlist, faults, jobs=JOBS)
    guarded = _run(netlist, faults, jobs=JOBS, budget=Budget(max_rss="1g"))
    assert not guarded.partial
    assert_identical(reference, guarded)


# ---------------------------------------------------------------- telemetry


def test_guard_stop_publishes_metrics(circuit):
    netlist, faults = circuit
    telemetry.enable()
    try:
        telemetry.get_telemetry().metrics.reset()
        result = _run(netlist, faults, jobs=JOBS,
                      budget=Budget(max_patterns=MAX_PATTERNS // 2))
        counters = telemetry.get_telemetry().metrics.snapshot()["counters"]
        assert counters.get("guard.stops") == 1
        assert counters.get(f"guard.stop.{STOP_PATTERNS}") == 1
        assert counters.get("engine.partial_runs") == 1
        assert result.partial
    finally:
        telemetry.disable()


def test_oom_adaptations_publish_metrics(circuit):
    netlist, faults = circuit
    telemetry.enable()
    try:
        telemetry.get_telemetry().metrics.reset()
        _run(netlist, faults, jobs=JOBS, executor="process", chunk_batches=2,
             chaos=FaultInjector.parse("oom:0:times=5"))
        counters = telemetry.get_telemetry().metrics.snapshot()["counters"]
        assert counters.get("guard.memory_pressure", 0) > 0
        assert counters.get("guard.halve_chunk", 0) >= 1
        assert counters.get("guard.degrade_serial", 0) >= 1
        assert counters.get("guard.memory_adaptations", 0) > 0
    finally:
        telemetry.disable()


# ------------------------------------------------------- property: any cut


if HAVE_HYPOTHESIS:

    @settings(max_examples=8, deadline=None)
    @given(cut_round=st.integers(min_value=0, max_value=2))
    def test_any_cut_point_is_partial_prefix_and_resumable(cut_round, tmp_path_factory):
        netlist = make_random_netlist(8, 50, seed=5)
        faults, _ = collapse_faults(netlist)
        faults = faults[::4]
        tmp_path = tmp_path_factory.mktemp("guard-cut")
        reference = _run(netlist, faults, jobs=2)
        cut = _run(netlist, faults, jobs=2,
                   chaos=FaultInjector.parse(f"sigterm:{cut_round}"),
                   checkpoint=CheckpointPolicy(tmp_path))
        assert cut.partial and cut.stop_reason == STOP_SIGTERM
        assert cut.n_patterns <= reference.n_patterns
        assert cut.coverage() <= reference.coverage()
        prefix = {f: i for f, i in reference.first_detection.items()
                  if i < cut.n_patterns}
        assert cut.first_detection == prefix
        resumed = _run(netlist, faults, jobs=2,
                       checkpoint=CheckpointPolicy(tmp_path, resume=True))
        assert not resumed.partial
        assert_identical(reference, resumed)
