"""Run-key cache semantics: what hits, what misses, and the golden key.

The service cache is keyed by the engine's checkpoint run key, so the
contract under test is exactly the bit-identity contract: execution
strategy (kernel, executor, governance) never changes the key; anything
semantic (seed, pattern budget, batch geometry, stop/drop flags, shard
count) always does.  A golden-key regression pins the key for a fixed
submission against the directory the checkpoint journal actually uses.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.serve import BistService, JobRequest
from tests.serve_utils import thread_server

#: The run key of the default ``mac4`` submission below.  This value is
#: fully deterministic (netlist builder, seeded pattern stream, collapsed
#: fault universe, canonical config fields) — if it moves, either the
#: engine's run-key recipe changed (update ``GOLDEN_KEY`` deliberately,
#: old journals and cache entries are invalidated) or something
#: non-semantic leaked into the key (a bug).
GOLDEN_REQUEST = {"design": "mac4", "max_patterns": 256}
GOLDEN_KEY = \
    "4593af1b0de2f492de77962799d6aebf66858c61716791b7dd2506272a6877cd"


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    return BistService(tmp_path_factory.mktemp("serve-state"))


def key_for(service, **fields):
    doc = dict(GOLDEN_REQUEST)
    doc.update(fields)
    _, key = service._prepare(JobRequest.from_json(doc))
    return key


def test_identical_submissions_share_a_key(service):
    assert key_for(service) == key_for(service)


@pytest.mark.parametrize("fields", [
    {"kernel": "packed"},
    {"kernel": "vec"},
    {"executor": "serial"},
    {"deadline": 30},                 # governance never moves results
    {"tenant": "alice"},              # tenancy is routing, not semantics
    {"include_faults": True},         # serialization shape, not semantics
])
def test_execution_strategy_is_excluded_from_the_key(service, fields):
    assert key_for(service, **fields) == key_for(service)


@pytest.mark.parametrize("fields", [
    {"seed": 7},
    {"max_patterns": 512},
    {"batch_width": 32},
    {"chunk_batches": 2},
    {"stop_when_complete": False},
    {"drop_detected": False},
    {"jobs": 2},                      # shard count shapes the round grid
    {"design": "c3a2m"},
])
def test_semantic_changes_move_the_key(service, fields):
    assert key_for(service, **fields) != key_for(service)


def test_cache_key_is_the_checkpoint_run_key(tmp_path):
    """Golden regression: the cache key IS the journal's directory name.

    Run the exact work ``_prepare`` hands a worker and assert the engine
    journals under ``<journal root>/<key[:32]>`` — the property every
    drain/resume story depends on.
    """
    from repro.engine import simulate

    service = BistService(tmp_path / "state")
    work, key = service._prepare(JobRequest.from_json(GOLDEN_REQUEST))
    netlist, faults, source, config, budget = work
    result = simulate(netlist, faults, source, config=config)
    assert not result.partial
    journal_dir = service.journal_root / key[:32]
    assert journal_dir.is_dir()
    assert list(journal_dir.glob("shard*_round*.rec"))


def test_golden_run_key(service):
    """Pin the key itself so silent recipe drift cannot pass unnoticed."""
    key = key_for(service)
    assert len(key) == 64 and int(key, 16) >= 0
    assert key == GOLDEN_KEY


# ------------------------------------------------------- end-to-end behaviour

@pytest.fixture()
def client(tmp_path):
    telemetry.reset()
    telemetry.enable()
    with thread_server(tmp_path / "state", workers=1) as (_, client):
        yield client
    telemetry.reset()
    telemetry.disable()


def _counters():
    return telemetry.get_telemetry().metrics.snapshot()["counters"]


def test_http_resubmission_hits_the_cache(client):
    first = client.submit(GOLDEN_REQUEST)
    client.wait(first["id"])
    second = client.submit(GOLDEN_REQUEST)
    assert second["cached"] is True
    assert second["state"] == "done"
    assert second["run_key"] == first["run_key"]
    status, a = client.result(first["id"])
    status_b, b = client.result(second["id"])
    assert (status, status_b) == (200, 200)
    assert a == b
    counters = _counters()
    assert counters["cache.hit"] == 1
    assert counters["cache.miss"] == 1
    # A cached job reports an empty progress curve: nothing ran.
    status, doc = client.request("GET", f"/v1/jobs/{second['id']}")
    assert status == 200 and doc["progress"] == []


def test_partial_results_are_never_cached(client):
    # deadline=0 expires before the first round: the run completes as a
    # governed partial result...
    throttled = dict(GOLDEN_REQUEST, deadline=0, max_patterns=1 << 14)
    first = client.submit(throttled)
    client.wait(first["id"])
    status, result = client.result(first["id"])
    assert status == 200 and result["partial"] is True
    # ...which must not be pinned: the identical resubmission re-runs
    # (deadline is excluded from the key, so the key *does* match).
    second = client.submit(throttled)
    assert second["cached"] is False
    assert second["run_key"] == first["run_key"]
    client.wait(second["id"])
    # Once an ungoverned run completes the measurement, it is cached and
    # later submissions of the same key are served from it.
    complete = client.submit(dict(GOLDEN_REQUEST, max_patterns=1 << 14))
    client.wait(complete["id"])
    status, full = client.result(complete["id"])
    assert status == 200 and full["partial"] is False
    again = client.submit(dict(GOLDEN_REQUEST, max_patterns=1 << 14))
    assert again["cached"] is True
