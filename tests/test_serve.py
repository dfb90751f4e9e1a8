"""The BIST service: validation, queue quotas, HTTP API, cached E2E.

Three layers, cheapest first: pure-unit coverage of the request schema,
result cache and tenant-quota queue; an in-thread server exercising every
route and error mapping over real HTTP; and one subprocess end-to-end
test submitting the ``c3a2m`` library design twice — the first run must
be bit-identical to a direct :func:`repro.engine.simulate` call, the
second must come from the run-key cache with ``cache_hit == 1`` on
``/metrics`` and at least 10x lower latency.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro import telemetry
from repro.serve import (
    ApiError,
    Job,
    JobQueue,
    JobRequest,
    ResultCache,
)
from tests.serve_utils import ServeClient, spawn_server, thread_server

CYCLE_BENCH = "INPUT(a)\nOUTPUT(y)\ny = AND(a, y)\n"


# ------------------------------------------------------------- request schema

def make_request(**fields):
    doc = {"design": "mac4"}
    doc.update(fields)
    return JobRequest.from_json(doc)


def test_request_defaults():
    request = make_request()
    assert request.design == "mac4"
    assert request.tenant == "default"
    assert request.seed == 1994
    assert request.stop_when_complete and request.drop_detected
    assert request.target == "mac4"


def test_request_rejects_unknown_fields():
    with pytest.raises(ApiError) as excinfo:
        make_request(bogus=1)
    assert excinfo.value.status == 400
    assert "bogus" in str(excinfo.value)


@pytest.mark.parametrize("doc", [
    {},                                        # neither target
    {"design": "mac4", "bench": "x"},          # both targets
    {"design": 7},                             # wrong type
    {"design": "mac4", "seed": "one"},         # non-int
    {"design": "mac4", "max_patterns": 0},     # below minimum
    {"design": "mac4", "deadline": -1},        # negative deadline
    {"design": "mac4", "kernel": "warp"},      # unknown kernel
    {"design": "mac4", "executor": "warp"},    # unknown executor
    {"design": "mac4", "tenant": ""},          # empty tenant
    {"design": "mac4", "jobs": True},          # bool is not an int
    [1, 2],                                    # not an object
    {"design": "mac4", "executor": "thread"},  # retired backend
    {"design": "mac4", "executor": "remote"},  # retired backend
])
def test_request_validation_rejects(doc):
    with pytest.raises(ApiError) as excinfo:
        JobRequest.from_json(doc)
    assert excinfo.value.status == 400


def test_bench_target_is_content_addressed():
    a = JobRequest.from_json({"bench": CYCLE_BENCH})
    b = JobRequest.from_json({"bench": CYCLE_BENCH})
    c = JobRequest.from_json({"bench": CYCLE_BENCH + "\n"})
    assert a.target == b.target != c.target
    assert a.target.startswith("bench-")


# --------------------------------------------------------------- result cache

@pytest.fixture()
def metrics():
    telemetry.reset()
    telemetry.enable()
    yield telemetry.get_telemetry().metrics
    telemetry.reset()
    telemetry.disable()


def test_cache_hit_miss_counters(metrics):
    cache = ResultCache(4)
    assert cache.get("k1") is None
    assert cache.put("k1", {"coverage": 1.0, "partial": False})
    assert cache.get("k1") == {"coverage": 1.0, "partial": False}
    counters = metrics.snapshot()["counters"]
    assert counters["cache.hit"] == 1
    assert counters["cache.miss"] == 1


def test_cache_refuses_partial_and_unkeyed(metrics):
    cache = ResultCache(4)
    assert not cache.put("k1", {"partial": True})
    assert not cache.put(None, {"partial": False})
    assert cache.get("k1") is None
    assert cache.get(None) is None


def test_cache_lru_eviction(metrics):
    cache = ResultCache(2)
    cache.put("a", {"n": 1})
    cache.put("b", {"n": 2})
    assert cache.get("a") is not None   # refresh a; b is now oldest
    cache.put("c", {"n": 3})
    assert cache.get("b") is None       # evicted
    assert cache.get("a") is not None
    assert cache.get("c") is not None
    assert len(cache) == 2


# ------------------------------------------------------------------ job queue

def _job(job_id: str, tenant: str) -> Job:
    return Job(job_id, JobRequest.from_json(
        {"design": "mac4", "tenant": tenant}), run_key=None)


def test_queue_tenant_quota_skips_saturated_tenant():
    async def scenario():
        queue = JobQueue(tenant_quota=1)
        queue.submit(_job("a1", "alice"))
        queue.submit(_job("a2", "alice"))
        queue.submit(_job("b1", "bob"))
        first = await queue.acquire()
        # alice is at quota: her second job is skipped in favour of bob's.
        second = await queue.acquire()
        assert (first.id, second.id) == ("a1", "b1")
        await queue.release(first)
        third = await queue.acquire()
        assert third.id == "a2"
        await queue.release(second)
        await queue.release(third)

    asyncio.run(scenario())


def test_queue_full_raises_429():
    async def scenario():
        queue = JobQueue(max_queued=1)
        queue.submit(_job("a1", "alice"))
        with pytest.raises(ApiError) as excinfo:
            queue.submit(_job("a2", "alice"))
        assert excinfo.value.status == 429

    asyncio.run(scenario())


def test_queue_close_cancels_pending_and_unblocks_workers():
    async def scenario():
        queue = JobQueue()
        queue.submit(_job("a1", "alice"))
        cancelled = await queue.close()
        assert [job.id for job in cancelled] == ["a1"]
        assert cancelled[0].state == "cancelled"
        assert await queue.acquire() is None
        with pytest.raises(ApiError) as excinfo:
            queue.submit(_job("a2", "alice"))
        assert excinfo.value.status == 503

    asyncio.run(scenario())


# ------------------------------------------------------- in-thread HTTP layer

@pytest.fixture()
def server(tmp_path, metrics):
    with thread_server(tmp_path / "state", workers=2) as (thread, client):
        yield client


def test_healthz_and_unknown_routes(server):
    status, doc = server.request("GET", "/healthz")
    assert status == 200 and doc["status"] == "ok"
    status, doc = server.request("GET", "/nope")
    assert status == 404 and doc["error"] == "not-found"
    status, doc = server.request("POST", "/healthz")
    assert status == 405 and doc["error"] == "method-not-allowed"
    status, doc = server.request("GET", "/v1/jobs/job-99999")
    assert status == 404 and doc["error"] == "unknown-job"


def test_submit_poll_result_roundtrip(server):
    doc = server.submit({"design": "mac4", "max_patterns": 256})
    assert doc["state"] in ("queued", "running", "done")
    assert doc["run_key"]
    done = server.wait(doc["id"])
    assert done["state"] == "done"
    assert done["error"] is None
    status, result = server.result(doc["id"])
    assert status == 200
    assert result["kind"] == "faultsim"
    assert result["circuit"] == "mac4"
    assert result["n_patterns"] <= 256
    assert result["partial"] is False
    assert result["run_key"] == doc["run_key"]
    # Fault tables are stripped unless asked for.
    assert "first_detection" not in result
    status, full = server.result(doc["id"], include_faults=True)
    assert status == 200 and len(full["first_detection"]) > 0


def test_result_pending_is_409(server):
    # A big pattern budget keeps the worker busy long enough that the
    # immediate result query almost always lands before the job is done.
    doc = server.submit({"design": "c3a2m", "max_patterns": 1 << 16,
                         "stop_when_complete": False})
    status, body = server.result(doc["id"])
    if status == 409:  # racy by nature: the worker may already be done
        assert body["error"] == "pending"
        assert body["state"] in ("queued", "running")
    server.wait(doc["id"], timeout=120)
    status, _ = server.result(doc["id"])
    assert status == 200


def test_unknown_design_is_404_with_catalog(server):
    status, doc = server.request("POST", "/v1/jobs", {"design": "nope"})
    assert status == 404
    assert doc["error"] == "unknown-design"
    assert "c3a2m" in doc["available"]


def test_lint_failure_is_422_with_findings(server):
    status, doc = server.request("POST", "/v1/jobs", {"bench": CYCLE_BENCH})
    assert status == 422
    assert doc["error"] == "lint"
    rules = {finding["rule"] for finding in doc["findings"]}
    assert "NL001" in rules  # the combinational cycle
    for finding in doc["findings"]:
        assert {"rule", "severity", "location", "message"} <= set(finding)


def test_lint_payload_matches_cli_shape(server):
    """Server 422 body == LintError.payload() == selftest --json error doc."""
    from repro.errors import LintError
    from repro.lint.runner import preflight_netlist
    from repro.netlist import bench_io

    status, doc = server.request("POST", "/v1/jobs", {"bench": CYCLE_BENCH})
    assert status == 422
    netlist = bench_io.loads(CYCLE_BENCH, name=JobRequest.from_json(
        {"bench": CYCLE_BENCH}).target, validate=False)
    with pytest.raises(LintError) as excinfo:
        preflight_netlist(netlist)
    assert doc == excinfo.value.payload()


def test_malformed_submissions(server):
    status, doc = server.request("POST", "/v1/jobs",
                                 {"design": "mac4", "frobnicate": 1})
    assert status == 400 and "frobnicate" in doc["message"]
    status, body = server.raw("POST", "/v1/jobs", b"{not json")
    assert status == 400
    status, doc = server.request("POST", "/v1/jobs", {"bench": "y = AND(("})
    assert status == 400 and doc["error"] == "bad-netlist"


def test_progress_curve_counts_patterns_applied_through_each_round(server):
    """Each point of the progress curve carries the patterns applied
    through its round, and a fault that later rounds detect again (no
    fault dropping) counts once."""
    doc = server.submit({"design": "mac4", "max_patterns": 1024,
                         "chunk_batches": 1, "drop_detected": False})
    done = server.wait(doc["id"])
    assert done["state"] == "done"
    curve = done["progress"]
    assert [point["round"] for point in curve] == [0, 1, 2, 3]
    assert [point["patterns"] for point in curve] == [256, 512, 768, 1024]
    status, result = server.result(doc["id"], include_faults=True)
    assert status == 200
    assert curve[-1]["detected"] == len(result["first_detection"])


def test_job_listing(server):
    doc = server.submit({"design": "mac4", "max_patterns": 128})
    server.wait(doc["id"])
    status, listing = server.request("GET", "/v1/jobs")
    assert status == 200
    assert doc["id"] in {job["id"] for job in listing["jobs"]}


def test_metrics_endpoint_is_valid_prometheus(server):
    from repro.telemetry.export import parse_prometheus_text

    doc = server.submit({"design": "mac4", "max_patterns": 128})
    server.wait(doc["id"])
    status, text = server.request("GET", "/metrics")
    assert status == 200
    samples = parse_prometheus_text(text)
    assert samples["serve_jobs_submitted"] >= 1
    assert "cache_miss" in samples


def test_deadline_maps_to_budget_partial_result(server):
    # A zero-second deadline expires before the first round: the job still
    # completes (never 500s), but reports a partial, deadline-stopped run.
    doc = server.submit({"design": "mac4", "deadline": 0,
                         "max_patterns": 4096})
    done = server.wait(doc["id"])
    assert done["state"] == "done"
    status, result = server.result(doc["id"])
    assert status == 200
    assert result["partial"] is True
    assert result["stop_reason"] == "deadline"
    assert result["guard"]["budget"]["deadline"] == 0


def test_engine_jobs_run_on_at_most_workers_threads(tmp_path, metrics,
                                                    monkeypatch):
    """Engine runs stay on the service's own pool of ``--workers`` threads
    (not the default executor, which submissions share), and the pool is
    gone once the service has drained."""
    from repro.serve import BistService

    threads = set()
    execute = BistService._execute

    def recording_execute(self, job):
        threads.add(threading.get_ident())
        return execute(self, job)

    monkeypatch.setattr(BistService, "_execute", recording_execute)
    with thread_server(tmp_path / "state", workers=2) as (_, client):
        # Distinct seeds: every job misses the result cache and runs.
        docs = [client.submit({"design": "mac4", "max_patterns": 64,
                               "seed": seed}) for seed in range(1, 25)]
        for doc in docs:
            assert client.wait(doc["id"])["state"] == "done"
    assert 1 <= len(threads) <= 2
    assert not [t for t in threading.enumerate()
                if t.name.startswith("serve-engine")]


# --------------------------------------------------------- subprocess E2E

def _direct_reference(max_patterns: int):
    """What the engine says when called directly, shaped like the API."""
    from repro.cli_args import result_payload
    from repro.engine import simulate
    from repro.exec.config import RunConfig
    from repro.faultsim.collapse import collapse_faults
    from repro.faultsim.patterns import RandomPatternSource
    from repro.library.scenarios import c3a2m_kernel

    netlist = c3a2m_kernel()
    faults, _ = collapse_faults(netlist)
    result = simulate(
        netlist, faults,
        RandomPatternSource(len(netlist.primary_inputs), seed=1994),
        config=RunConfig(max_patterns=max_patterns, check=False),
    )
    return result_payload(result, include_faults=True)


def test_e2e_c3a2m_twice_cached_and_bit_identical(tmp_path):
    # Big enough that the first (simulating) run dwarfs the fixed HTTP
    # cost, so the >=10x cached-latency assertion has a wide margin.
    # After its first batch c3a2m has one live (undetectable) fault, so
    # the run costs ~3 us per pattern: 2^19 patterns take ~1.5 s against
    # a 10-20 ms cache hit on a 2-CPU host.
    max_patterns = 1 << 19
    submission = {"design": "c3a2m", "max_patterns": max_patterns,
                  "include_faults": True}
    process, port = spawn_server(tmp_path / "state", "--workers", "1")
    client = ServeClient("127.0.0.1", port)
    try:
        start = time.monotonic()
        first = client.submit(submission)
        assert first["cached"] is False
        client.wait(first["id"], timeout=120)
        status, first_result = client.result(first["id"])
        first_latency = time.monotonic() - start
        assert status == 200

        start = time.monotonic()
        second = client.submit(submission)
        status, second_result = client.result(second["id"])
        second_latency = time.monotonic() - start
        assert status == 200
        assert second["cached"] is True and second["state"] == "done"
        assert second["run_key"] == first["run_key"]

        # The cached response is the first response, byte for byte.
        assert second_result == first_result

        # The service hit the cache exactly once so far.
        status, metrics_body = client.request("GET", "/metrics")
        assert status == 200
        from repro.telemetry.export import parse_prometheus_text

        samples = parse_prometheus_text(metrics_body)
        assert samples["cache_hit"] == 1

        # Cached answers are >= 10x faster than simulating.  One cached
        # round-trip is a few ms, so a scheduler hiccup can skew a single
        # sample — take the best of a few (they are all cache hits).
        cached_latencies = [second_latency]
        for _ in range(3):
            start = time.monotonic()
            again = client.submit(submission)
            status, _body = client.result(again["id"])
            cached_latencies.append(time.monotonic() - start)
            assert status == 200 and again["cached"] is True
        assert first_latency >= 10 * min(cached_latencies), (
            f"cached={min(cached_latencies):.4f}s vs "
            f"first={first_latency:.4f}s"
        )
    finally:
        client.close()
        process.terminate()
        process.wait(timeout=30)

    # First run is bit-identical to calling the engine directly: same
    # payload once the surfaces' own context (circuit/seed/run_key/guard)
    # and the volatile engine block (wall time) are set aside.
    reference = _direct_reference(max_patterns)
    volatile = ("engine", "guard", "circuit", "seed", "run_key")
    served = {key: value for key, value in first_result.items()
              if key not in volatile}
    expected = {key: value for key, value in reference.items()
                if key not in volatile}
    assert served == expected
    assert served["first_detection"] == reference["first_detection"]
