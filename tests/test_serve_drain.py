"""SIGTERM drain contract for the service, over real HTTP.

A real ``python -m repro serve`` subprocess runs a deliberately long job
(geometry borrowed from ``tests/test_guard_signals.py``: enough rounds
that a signal lands mid-run).  The assertions are the service analogue of
the engine's guard contract: SIGTERM makes new submissions 503, the
in-flight job stops at a shard-round boundary and serves a
``partial=True`` result during the grace window, the process exits 143
without a traceback — and a restarted service on the same state directory
resumes the interrupted measurement from the journal, bit-identically to
a run that was never interrupted.
"""

from __future__ import annotations

import json
import pathlib
import signal
import time

import pytest

from repro.cli_args import render_json, result_payload
from repro.serve import JobRequest
from tests.serve_utils import ServeClient, spawn_server

# Run geometry: ~2s of simulation on this machine — a wide window for the
# signal, a short wait for the suite.  Shared by the submission and the
# in-process reference run (every run-key ingredient must agree).
N_INPUTS = 12
N_GATES = 170
NET_SEED = 33
SRC_SEED = 17
MAX_PATTERNS = 1 << 14
BATCH_WIDTH = 64
JOBS = 2
CHUNK_BATCHES = 1


def _bench_text() -> str:
    from repro.netlist import bench_io
    from tests.conftest import make_random_netlist

    return bench_io.dumps(make_random_netlist(N_INPUTS, N_GATES,
                                              seed=NET_SEED))


def _submission(text: str) -> dict:
    return {
        "bench": text,
        "seed": SRC_SEED,
        "max_patterns": MAX_PATTERNS,
        "batch_width": BATCH_WIDTH,
        "chunk_batches": CHUNK_BATCHES,
        "jobs": JOBS,
        "stop_when_complete": False,
        "drop_detected": False,
        "include_faults": True,
    }


def _wait_for_journal(journal_root, process, timeout: float = 60.0) -> None:
    """Block until the job has journaled at least one round."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if any(path.stat().st_size
               for path in pathlib.Path(journal_root).glob("*.journal")):
            return
        if process.poll() is not None:
            out, err = process.communicate()
            pytest.fail(f"server died before the signal could be delivered "
                        f"(rc={process.returncode}):\n{out}\n{err}")
        time.sleep(0.02)
    pytest.fail("no checkpoint record appeared within the timeout")


def _reference_payload(text: str, target: str) -> dict:
    """The uninterrupted in-process run, shaped like the API response.

    The reference parses the *same bench text* the service received —
    ``dumps``/``loads`` does not round-trip the structural fingerprint,
    so rebuilding the netlist from the generator would compute a
    different run key and prove nothing.
    """
    from repro.engine import simulate
    from repro.exec.config import ExecutionPolicy, RunConfig
    from repro.faultsim.collapse import collapse_faults
    from repro.faultsim.patterns import RandomPatternSource
    from repro.netlist import bench_io

    netlist = bench_io.loads(text, name=target, validate=False)
    faults, _ = collapse_faults(netlist)
    result = simulate(
        netlist, faults,
        RandomPatternSource(N_INPUTS, seed=SRC_SEED),
        config=RunConfig(
            execution=ExecutionPolicy(jobs=JOBS, batch_width=BATCH_WIDTH,
                                      chunk_batches=CHUNK_BATCHES),
            max_patterns=MAX_PATTERNS,
            stop_when_complete=False,
            drop_detected=False,
            check=False,
        ),
    )
    payload = result_payload(result, include_faults=True)
    # Normalise through the canonical serializer exactly like the wire
    # does (JSON object keys become strings, tuples become lists).
    return json.loads(render_json(payload))


VOLATILE_KEYS = ("engine", "guard", "circuit", "seed", "run_key")


def _semantic(payload: dict) -> dict:
    return {key: value for key, value in payload.items()
            if key not in VOLATILE_KEYS}


def test_sigterm_drains_and_restart_resumes_bit_identically(tmp_path):
    state = tmp_path / "state"
    text = _bench_text()
    submission = _submission(text)
    target = JobRequest.from_json(submission).target

    # --- phase 1: interrupt a live job with a real SIGTERM ---------------
    process, port = spawn_server(state, "--workers", "1",
                                 "--drain-grace", "5")
    client = ServeClient("127.0.0.1", port)
    try:
        job = client.submit(submission)
        assert job["cached"] is False
        _wait_for_journal(state / "journal", process)
        process.send_signal(signal.SIGTERM)

        # Wait for the event loop to take the signal (health flips to
        # draining), then assert new submissions are refused.
        deadline = time.monotonic() + 10
        while True:
            status, health = client.request("GET", "/healthz")
            if status == 503 and health["status"] == "draining":
                break
            assert time.monotonic() < deadline, (status, health)
            time.sleep(0.02)
        status, doc = client.request("POST", "/v1/jobs", submission)
        assert status == 503, doc
        assert doc["error"] == "draining"

        # The in-flight job stops at a round boundary and its partial
        # result is collectable during the grace window.
        done = client.wait(job["id"], timeout=30)
        assert done["state"] == "done"
        status, partial = client.result(job["id"], include_faults=True)
        assert status == 200
        assert partial["partial"] is True
        assert partial["stop_reason"] == "sigterm"
        assert 0 < partial["n_patterns"] < MAX_PATTERNS
        # The journal is the resume contract; the status endpoint's
        # progress curve is read straight from it.
        status, mid = client.request("GET", f"/v1/jobs/{job['id']}")
        assert status == 200 and len(mid["progress"]) > 0
    finally:
        client.close()
        if process.poll() is None:
            out, err = process.communicate(timeout=30)
        else:  # pragma: no cover - cleanup on failure
            out, err = process.communicate()
    assert process.returncode == 143, (out, err)
    assert "Traceback" not in err, err
    assert "draining: sigterm" in out
    assert "drained" in out

    # --- phase 2: a restarted service resumes from the same journal ------
    process2, port2 = spawn_server(state, "--workers", "1",
                                   "--drain-grace", "0")
    client2 = ServeClient("127.0.0.1", port2)
    try:
        job2 = client2.submit(submission)
        assert job2["cached"] is False        # fresh process, empty cache
        assert job2["run_key"] == job["run_key"]
        client2.wait(job2["id"], timeout=120)
        status, resumed = client2.result(job2["id"], include_faults=True)
        assert status == 200
        assert resumed["partial"] is False
        assert resumed["engine"]["rounds_resumed"] > 0
        assert resumed["n_patterns"] > partial["n_patterns"]
    finally:
        client2.close()
        process2.terminate()
        out2, err2 = process2.communicate(timeout=30)
    assert process2.returncode == 143, (out2, err2)

    # Bit-identical to a run that was never interrupted: same detections,
    # same survivors, same coverage — only run metadata may differ.
    reference = _reference_payload(text, target)
    assert _semantic(resumed) == _semantic(reference)
    assert resumed["first_detection"] == reference["first_detection"]
