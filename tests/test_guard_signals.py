"""Real-signal contract tests: SIGTERM/SIGINT against a live engine run.

These spawn an actual subprocess running :func:`repro.engine.simulate`
under :func:`repro.guard.signal_scope`, wait until its checkpoint journal
proves it is mid-run, deliver a real signal with ``os.kill``, and assert
the guard contract from the outside: prompt exit (seconds, not a hung
pool), the conventional exit code (143/130), a ``partial=True`` JSON
result on stdout, a surviving journal — and an in-process ``resume=True``
run that completes the measurement bit-identically to a run that was
never interrupted.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.engine import simulate
from repro.exec import CheckpointPolicy, RunConfig
from repro.faultsim.collapse import collapse_faults
from repro.faultsim.patterns import RandomPatternSource
from tests.conftest import make_random_netlist
from tests.test_engine import assert_identical

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Shared run geometry: the subprocess and the in-process resume run must
# agree on every run_key ingredient or the journal will not be replayed.
N_INPUTS = 12
N_GATES = 170
NET_SEED = 33
SRC_SEED = 17
FAULT_STRIDE = 2
MAX_PATTERNS = 1 << 13
BATCH_WIDTH = 64
JOBS = 2
CHUNK_BATCHES = 1

CHILD_SCRIPT = f"""
import json, sys
from repro.engine import simulate
from repro.exec import CheckpointPolicy, RunConfig
from repro.faultsim.collapse import collapse_faults
from repro.faultsim.patterns import RandomPatternSource
from repro.guard import CancelToken, exit_code, signal_scope
from tests.conftest import make_random_netlist

netlist = make_random_netlist({N_INPUTS}, {N_GATES}, seed={NET_SEED})
faults, _ = collapse_faults(netlist)
faults = faults[::{FAULT_STRIDE}]
source = RandomPatternSource({N_INPUTS}, seed={SRC_SEED})
token = CancelToken()
config = RunConfig(
    checkpoint=CheckpointPolicy(sys.argv[1]), cancel=token,
    max_patterns={MAX_PATTERNS}, stop_when_complete=False,
    drop_detected=False,
).with_execution(jobs={JOBS}, batch_width={BATCH_WIDTH},
                 chunk_batches={CHUNK_BATCHES})
with signal_scope(token):
    result = simulate(netlist, faults, source, config=config)
print(json.dumps({{
    "partial": result.partial,
    "stop_reason": result.stop_reason,
    "n_patterns": result.n_patterns,
    "n_detected": len(result.first_detection),
}}))
sys.stdout.flush()
raise SystemExit(exit_code(token))
"""


def _spawn(checkpoint_dir) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH="src")
    env.pop("REPRO_CHAOS", None)  # ambient chaos would pollute the contract
    return subprocess.Popen(
        [sys.executable, "-c", CHILD_SCRIPT, str(checkpoint_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=str(REPO_ROOT), env=env,
    )


def _wait_for_journal(checkpoint_dir, process, timeout: float = 60.0) -> None:
    """Block until the run has journaled at least one round."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if any(path.stat().st_size
               for path in pathlib.Path(checkpoint_dir).glob("*.journal")):
            return
        if process.poll() is not None:
            out, err = process.communicate()
            pytest.fail(
                f"run finished before the signal could be delivered "
                f"(rc={process.returncode}):\n{out}\n{err}"
            )
        time.sleep(0.02)
    pytest.fail("no checkpoint record appeared within the timeout")


def _reference():
    netlist = make_random_netlist(N_INPUTS, N_GATES, seed=NET_SEED)
    faults, _ = collapse_faults(netlist)
    return netlist, faults[::FAULT_STRIDE]


def _simulate_inprocess(netlist, faults, **fields):
    """The child's run in-process; ``fields`` are further RunConfig fields."""
    config = RunConfig(
        max_patterns=MAX_PATTERNS, stop_when_complete=False,
        drop_detected=False, **fields,
    ).with_execution(jobs=JOBS, batch_width=BATCH_WIDTH,
                     chunk_batches=CHUNK_BATCHES)
    return simulate(
        netlist, faults, RandomPatternSource(N_INPUTS, seed=SRC_SEED),
        config=config,
    )


def _signal_run(tmp_path, signum: int, expected_code: int):
    checkpoint_dir = tmp_path / "ckpt"
    checkpoint_dir.mkdir()
    process = _spawn(checkpoint_dir)
    try:
        _wait_for_journal(checkpoint_dir, process)
        killed_at = time.monotonic()
        process.send_signal(signum)
        out, err = process.communicate(timeout=30)
        drained_in = time.monotonic() - killed_at
    finally:
        if process.poll() is None:  # pragma: no cover - cleanup on failure
            process.kill()
            process.communicate()
    assert process.returncode == expected_code, (out, err)
    # The drain is one in-flight round, not a hung pool teardown.
    assert drained_in <= 5.0
    assert "Traceback" not in err
    payload = json.loads(out)
    assert payload["partial"] is True
    assert payload["stop_reason"] == {
        signal.SIGTERM: "sigterm", signal.SIGINT: "sigint",
    }[signum]
    assert 0 < payload["n_patterns"] < MAX_PATTERNS
    journals = list(checkpoint_dir.glob("*.journal"))
    assert journals, "the interrupted run left no journal"
    return payload


def test_sigterm_exits_143_with_partial_json_and_valid_checkpoint(tmp_path):
    payload = _signal_run(tmp_path, signal.SIGTERM, expected_code=143)

    # The journal the killed process left behind resumes bit-identically.
    netlist, faults = _reference()
    uninterrupted = _simulate_inprocess(netlist, faults)
    resumed = _simulate_inprocess(
        netlist, faults,
        checkpoint=CheckpointPolicy(tmp_path / "ckpt", resume=True),
    )
    assert not resumed.partial
    assert resumed.rounds_resumed > 0
    assert resumed.n_patterns > payload["n_patterns"]
    assert_identical(uninterrupted, resumed)


def test_sigint_exits_130_with_partial_json(tmp_path):
    _signal_run(tmp_path, signal.SIGINT, expected_code=130)
