"""The static-testability route and the journal LRU sweep.

``GET /v1/designs/{name}/testability`` answers from a per-design profile
memo (window-free analysis paid once per process; ``?patterns=`` windows
are query-time), reusing the design registry's 404 contract.  The sweep
bounds ``<state dir>/journal`` to the newest ``--max-journal-entries``
completed run-key directories — unbounded by default.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from tests.serve_utils import thread_server


@pytest.fixture
def enabled_telemetry():
    telemetry.reset()
    telemetry.enable()
    try:
        yield telemetry.get_telemetry()
    finally:
        telemetry.get_telemetry().disable()
        telemetry.reset()


def counters():
    return telemetry.get_telemetry().metrics.snapshot()["counters"]


# -------------------------------------------------------------- route


def test_testability_route_profiles_a_design(tmp_path, enabled_telemetry):
    with thread_server(tmp_path / "state") as (_, client):
        status, doc = client.request(
            "GET", "/v1/designs/figure9/testability?patterns=512")
        assert status == 200
        assert doc["kind"] == "testability-profile"
        assert doc["design"] == "figure9"
        assert doc["window"] == 512
        assert doc["n_faults"] == 296
        assert 0.9 < doc["predicted_coverage"] < 1.0
        assert doc["n_undetectable"] > 0
        assert doc["resistant"]
        # A different window re-answers from the same memoized profile;
        # fewer patterns can only predict less coverage.
        status, shorter = client.request(
            "GET", "/v1/designs/figure9/testability?patterns=64")
        assert status == 200
        assert shorter["window"] == 64
        assert shorter["predicted_coverage"] <= doc["predicted_coverage"]
    snapshot = counters()
    assert snapshot["analysis.cache_miss"] == 1
    assert snapshot["analysis.cache_hit"] == 1


def test_testability_unknown_design_is_404(tmp_path):
    with thread_server(tmp_path / "state") as (_, client):
        status, doc = client.request("GET", "/v1/designs/nope/testability")
        assert status == 404
        assert doc["error"] == "unknown-design"
        assert "figure9" in doc["available"]


def test_testability_rejects_bad_query_and_method(tmp_path):
    with thread_server(tmp_path / "state") as (_, client):
        status, doc = client.request(
            "GET", "/v1/designs/figure9/testability?patterns=lots")
        assert status == 400
        assert doc["error"] == "bad-query"
        status, doc = client.request(
            "POST", "/v1/designs/figure9/testability", {})
        assert status == 405


# -------------------------------------------------------- journal sweep


def _journal_entries(state_dir):
    journal = state_dir / "journal"
    return sorted(p.name for p in journal.glob("*.journal"))


def test_journal_sweep_bounds_completed_entries(tmp_path, enabled_telemetry):
    state = tmp_path / "state"
    with thread_server(state, workers=1,
                       max_journal_entries=1) as (_, client):
        for seed in (1, 2, 3):  # distinct seeds -> distinct run keys
            job = client.submit({"design": "mac4", "max_patterns": 128,
                                 "seed": seed})
            client.wait(job["id"])
        assert len(_journal_entries(state)) == 1
    assert counters()["serve.journal_evictions"] >= 2


def test_journal_unbounded_by_default(tmp_path):
    state = tmp_path / "state"
    with thread_server(state, workers=1) as (_, client):
        for seed in (1, 2):
            job = client.submit({"design": "mac4", "max_patterns": 128,
                                 "seed": seed})
            client.wait(job["id"])
        assert len(_journal_entries(state)) == 2
