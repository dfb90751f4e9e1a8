"""Remote-executor suite: distributed runs that survive node death.

The acceptance story, end to end: a run sharded over localhost worker
agents is bit-identical to the serial baseline — when everything works,
when a peer is killed by deterministic chaos (``node_down`` /
``node_hang`` / ``net_drop``), when a peer is killed for real with
``os.kill`` mid-run, and when *every* peer dies and the run degrades
through the local process fallback.  Re-dispatch is visible in
:class:`~repro.exec.base.NodeStats`; exhausted peer sets never raise; a
coordinator stopped mid-run leaves a journal a later run resumes from.

The suites below use two kinds of peers: in-process
:class:`~repro.exec.agent.WorkerAgent` threads for protocol-level tests,
and real ``python -m repro worker`` subprocesses wherever an agent must
be killable (``node_down`` sends ``os._exit`` to the agent process).
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import telemetry
from repro.engine import FaultInjector, simulate
from repro.exec import (
    CheckpointPolicy,
    ExecutionPolicy,
    ExecutorStartError,
    RetryPolicy,
    RunConfig,
    set_default_peers,
)
from repro.exec.agent import WorkerAgent
from repro.exec.remote import (
    HEARTBEAT_ENV_VAR,
    PEERS_ENV_VAR,
    START_GRACE_ENV_VAR,
    TIMEOUT_ENV_VAR,
    parse_peers,
)
from repro.exec.wire import ConnectionClosed, read_frame, send_frame
from repro.exec.worker import make_simulator, run_work_unit
from repro.faultsim.collapse import collapse_faults
from repro.faultsim.coverage import coverage_curve
from repro.faultsim.patterns import RandomPatternSource
from repro.guard.budget import STOP_PATTERNS, Budget
from repro.guard.cancel import CancelToken
from repro.library.scenarios import c3a2m_kernel, figure4_kernel
from tests.conftest import make_random_netlist

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ------------------------------------------------------------------ fixtures


def _spawn_worker(*extra: str) -> "subprocess.Popen[str]":
    env = dict(os.environ, PYTHONPATH="src")
    env.pop("REPRO_CHAOS", None)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--listen", "127.0.0.1:0", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=REPO_ROOT, env=env,
    )
    assert process.stdout is not None
    line = process.stdout.readline().strip()
    assert line.startswith("worker listening on "), line
    process.address = line.rsplit(" ", 1)[-1]  # type: ignore[attr-defined]
    return process


@pytest.fixture
def two_workers(monkeypatch):
    """Two real worker-agent subprocesses, registered as the peer set."""
    monkeypatch.setenv(HEARTBEAT_ENV_VAR, "0.2")
    workers = [_spawn_worker() for _ in range(2)]
    set_default_peers(",".join(w.address for w in workers))
    try:
        yield workers
    finally:
        set_default_peers(None)
        for worker in workers:
            if worker.poll() is None:
                worker.terminate()
            worker.wait(timeout=10)
            worker.stdout.close()
            worker.stderr.close()


@pytest.fixture
def agent_peer(monkeypatch):
    """One in-process agent (cannot host hard-kill chaos) as the peer set."""
    monkeypatch.setenv(HEARTBEAT_ENV_VAR, "0.2")
    agent = WorkerAgent("127.0.0.1", 0)
    host, port = agent.start()
    thread = threading.Thread(target=agent.serve_forever, daemon=True)
    thread.start()
    set_default_peers(f"{host}:{port}")
    try:
        yield agent
    finally:
        set_default_peers(None)
        agent.shutdown()
        thread.join(timeout=5)


def _run(netlist, faults, *, executor=None, jobs=None, chaos=None,
         max_retries=2, budget=None, cancel=None, checkpoint=None,
         max_patterns=512, batch_width=64, shard_timeout=None):
    source = RandomPatternSource(len(netlist.primary_inputs), seed=23)
    config = RunConfig(
        execution=ExecutionPolicy(
            executor=executor, jobs=jobs, batch_width=batch_width,
            chunk_batches=1,
        ),
        retry=RetryPolicy(max_retries=max_retries, backoff=0.0,
                          shard_timeout=shard_timeout),
        chaos=chaos,
        budget=budget,
        cancel=cancel,
        checkpoint=checkpoint or CheckpointPolicy(),
        max_patterns=max_patterns,
        stop_when_complete=False,
    )
    return simulate(netlist, faults, source, config=config)


def assert_identical(baseline, result):
    assert result.first_detection == baseline.first_detection
    assert result.n_patterns == baseline.n_patterns
    assert coverage_curve(result) == coverage_curve(baseline)


def _scenario_faults(netlist):
    faults, _ = collapse_faults(netlist)
    if len(faults) > 120:
        faults = faults[::7]
    return faults


# -------------------------------------------------------------- equivalence


def test_remote_matches_serial_baseline(two_workers):
    netlist = make_random_netlist(8, 30, seed=5)
    faults, _ = collapse_faults(netlist)
    baseline = _run(netlist, faults)
    result = _run(netlist, faults, executor="remote", jobs=3)
    assert_identical(baseline, result)
    assert result.executor == "remote"
    nodes = result.nodes
    assert [n.node for n in nodes] == [0, 1]
    assert all(n.alive for n in nodes)
    assert sum(n.dispatched for n in nodes) > 0
    assert result.to_json()["engine"]["nodes"][0]["address"] == nodes[0].address


@pytest.mark.parametrize(
    "build", [figure4_kernel, c3a2m_kernel], ids=["figure4", "c3a2m"]
)
@pytest.mark.parametrize("mode", ["node_down", "net_drop"])
def test_node_chaos_is_bit_identical_to_serial(two_workers, build, mode):
    """Acceptance: node death / partition chaos on the bundled circuits
    leaves results bit-identical to an uninterrupted serial run."""
    netlist = build()
    faults = _scenario_faults(netlist)
    baseline = _run(netlist, faults)
    chaos = FaultInjector(mode, shard=0, round_index=0)
    result = _run(netlist, faults, executor="remote", jobs=3, chaos=chaos)
    assert_identical(baseline, result)
    nodes = {n.node: n for n in result.nodes}
    if mode == "node_down":
        assert not nodes[0].alive
        assert "not re-established" in nodes[0].degraded_reason
    else:  # net_drop: transient — the node is reconnected and survives
        assert nodes[0].alive
    # The sabotaged dispatch was re-dispatched somewhere that worked.
    assert sum(n.redispatched for n in result.nodes) >= 1


def test_node_chaos_fires_once_on_first_unit_at_or_after_its_round():
    """A node-chaos plan targets the first unit its node dispatches at or
    after the plan's round — another node may drain that round itself —
    and no other unit of the run; re-dispatches of that unit obey
    ``times``."""
    from types import SimpleNamespace

    from repro.exec.base import WorkUnit
    from repro.exec.remote import RemoteExecutor

    chaos = FaultInjector("net_drop", shard=0, round_index=1, times=2)
    executor = RemoteExecutor()
    node0, node1 = SimpleNamespace(index=0), SimpleNamespace(index=1)

    def unit(shard, round_index, attempt=0):
        return WorkUnit(
            shard_id=shard, faults=(), golden_batches=(), pattern_base=0,
            round_index=round_index, drop_detected=True, attempt=attempt,
            chaos=chaos,
        )

    assert executor._node_chaos(node0, unit(0, 0)) is None  # before round 1
    assert executor._node_chaos(node1, unit(1, 1)) is None  # another node
    # Node 0 took no round-1 unit: its first round-2 unit is the target.
    assert executor._node_chaos(node0, unit(2, 2)) == "net_drop"
    assert executor._node_chaos(node1, unit(2, 2, attempt=1)) is None
    assert executor._node_chaos(node0, unit(2, 2, attempt=1)) == "net_drop"
    assert executor._node_chaos(node0, unit(2, 2, attempt=2)) is None
    assert executor._node_chaos(node0, unit(0, 3)) is None  # once per run


@pytest.mark.parametrize("source", ["env", "retry-policy"])
def test_node_hang_times_out_and_redispatches(two_workers, monkeypatch,
                                              source):
    """A wedged peer trips the coordinator's internal dispatch timeout,
    set by $REPRO_REMOTE_TIMEOUT or by the run's RetryPolicy.  The driver
    arms the RetryPolicy deadline too, but a remote round handle ignores
    it: the coordinator owns the deadline."""
    shard_timeout = None
    if source == "env":
        monkeypatch.setenv(TIMEOUT_ENV_VAR, "0.6")
    else:
        shard_timeout = 0.6
    netlist = figure4_kernel()
    faults = _scenario_faults(netlist)
    baseline = _run(netlist, faults)
    chaos = FaultInjector("node_hang", shard=0, round_index=0, seconds=30.0)
    result = _run(netlist, faults, executor="remote", jobs=3, chaos=chaos,
                  shard_timeout=shard_timeout)
    assert_identical(baseline, result)
    assert sum(n.redispatched for n in result.nodes) >= 1
    # No driver-level timeout accounting: the hang never reached it.
    assert all(s.timeouts == 0 for s in result.shards)


def test_worker_chaos_modes_still_equal_serial(two_workers):
    """Worker-level chaos (raise/corrupt) rides the driver's retry ladder
    unchanged when the worker happens to be remote."""
    netlist = make_random_netlist(8, 30, seed=6)
    faults, _ = collapse_faults(netlist)
    baseline = _run(netlist, faults)
    for mode in ("raise", "corrupt"):
        chaos = FaultInjector(mode, shard=0, round_index=0)
        result = _run(netlist, faults, executor="remote", jobs=2, chaos=chaos)
        assert_identical(baseline, result)
        assert result.retries >= 1


# ------------------------------------------------------------ real node kill


def _kill_after_dispatches(victims, threshold):
    """SIGKILL ``victims`` once ``exec.remote.dispatched`` reaches
    ``threshold`` — a progress-keyed trigger (a wall-clock timer would
    race a fast run and fire after it already finished)."""
    metrics = telemetry.get_telemetry().metrics

    def watch() -> None:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            counters = metrics.snapshot()["counters"]
            if counters.get("exec.remote.dispatched", 0) >= threshold:
                break
            time.sleep(0.005)
        for victim in victims:
            if victim.poll() is None:
                os.kill(victim.pid, signal.SIGKILL)

    thread = threading.Thread(target=watch, daemon=True)
    thread.start()
    return thread


def test_real_kill_one_worker_mid_run(two_workers):
    """Acceptance: one of two workers SIGKILLed mid-run; the run completes
    bit-identical to serial with the re-dispatch visible in NodeStats."""
    netlist = c3a2m_kernel()
    faults = _scenario_faults(netlist)
    baseline = _run(netlist, faults, max_patterns=2048, batch_width=16)
    telemetry.enable()
    telemetry.get_telemetry().reset()
    victim = two_workers[0]
    watcher = _kill_after_dispatches([victim], threshold=4)
    try:
        result = _run(
            netlist, faults, executor="remote", jobs=4,
            max_patterns=2048, batch_width=16,
        )
    finally:
        watcher.join(timeout=35)
        telemetry.disable()
    assert victim.poll() is not None, "victim survived the kill"
    assert_identical(baseline, result)
    nodes = {n.node: n for n in result.nodes}
    assert not nodes[0].alive
    assert sum(n.redispatched for n in result.nodes) >= 1


def test_killing_every_worker_degrades_to_local_process(two_workers):
    """Acceptance: exhausting the whole peer set degrades to the local
    process backend (synthetic node -1) without an exception."""
    netlist = c3a2m_kernel()
    faults = _scenario_faults(netlist)
    baseline = _run(netlist, faults, max_patterns=2048, batch_width=16)
    telemetry.enable()
    telemetry.get_telemetry().reset()
    watcher = _kill_after_dispatches(list(two_workers), threshold=4)
    try:
        result = _run(
            netlist, faults, executor="remote", jobs=4,
            max_patterns=2048, batch_width=16,
        )
    finally:
        watcher.join(timeout=35)
        telemetry.disable()
    assert_identical(baseline, result)
    nodes = {n.node: n for n in result.nodes}
    assert not nodes[0].alive and not nodes[1].alive
    assert -1 in nodes, "local process fallback never engaged"
    assert nodes[-1].dispatched >= 1
    assert "exhausted" in nodes[-1].degraded_reason


def test_unrelenting_crash_chaos_walks_the_whole_ladder(two_workers):
    """crash chaos past every budget: remote peers die (os._exit in the
    agent), the process fallback's workers die, and the driver's final
    in-parent rung still completes bit-identically."""
    netlist = make_random_netlist(8, 30, seed=8)
    faults, _ = collapse_faults(netlist)
    baseline = _run(netlist, faults, max_patterns=256)
    chaos = FaultInjector("crash", shard=0, round_index=0, times=100)
    result = _run(
        netlist, faults, executor="remote", jobs=2, chaos=chaos,
        max_retries=1, max_patterns=256,
    )
    assert_identical(baseline, result)
    assert 0 in result.degraded_shards
    nodes = {n.node: n for n in result.nodes}
    assert -1 in nodes, "ladder skipped the process fallback rung"


# --------------------------------------------------------- start-time errors


def test_no_reachable_peers_is_a_start_error(monkeypatch):
    monkeypatch.setenv(START_GRACE_ENV_VAR, "0")
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()  # a port that was free a moment ago: nobody listens
    set_default_peers(f"127.0.0.1:{port}")
    try:
        netlist = make_random_netlist(8, 30, seed=5)
        faults, _ = collapse_faults(netlist)
        with pytest.raises(ExecutorStartError, match="could not reach"):
            _run(netlist, faults, executor="remote", jobs=2)
    finally:
        set_default_peers(None)


def test_no_peers_configured_is_a_start_error(monkeypatch):
    monkeypatch.delenv(PEERS_ENV_VAR, raising=False)
    set_default_peers(None)
    netlist = make_random_netlist(8, 30, seed=5)
    faults, _ = collapse_faults(netlist)
    with pytest.raises(ExecutorStartError, match="no peers"):
        _run(netlist, faults, executor="remote", jobs=2)


def test_parse_peers_rejects_garbage():
    from repro.errors import SimulationError

    assert parse_peers("a:1, b:2,") == (("a", 1), ("b", 2))
    with pytest.raises(SimulationError):
        parse_peers("nocolon")
    with pytest.raises(SimulationError):
        parse_peers("host:notaport")


# ------------------------------------------------- checkpoint resume + cancel


def test_partial_remote_run_resumes_from_journal(two_workers, tmp_path):
    """Acceptance: a remote run stopped mid-way (after surviving a node
    death) leaves a journal; the resumed run replays it and finishes
    bit-identical to the uninterrupted serial reference."""
    netlist = figure4_kernel()
    faults = _scenario_faults(netlist)
    reference = _run(netlist, faults, max_patterns=512, batch_width=32)
    checkpoint = CheckpointPolicy(directory=tmp_path, resume=True)
    chaos = FaultInjector("node_down", shard=0, round_index=0)
    partial = _run(
        netlist, faults, executor="remote", jobs=3, chaos=chaos,
        budget=Budget(max_patterns=128), checkpoint=checkpoint,
        max_patterns=512, batch_width=32,
    )
    assert partial.partial and partial.stop_reason == STOP_PATTERNS
    assert sum(n.redispatched for n in partial.nodes) >= 1
    resumed = _run(
        netlist, faults, executor="remote", jobs=3, checkpoint=checkpoint,
        max_patterns=512, batch_width=32,
    )
    assert_identical(reference, resumed)
    assert resumed.rounds_resumed > 0


def test_cancel_token_is_forwarded_to_peers(agent_peer):
    """A tripped CancelToken stops the run partial-safe AND reaches the
    peers as cancel frames (the SIGTERM drain contract)."""
    telemetry.enable()
    telemetry.get_telemetry().reset()
    netlist = make_random_netlist(8, 30, seed=5)
    faults, _ = collapse_faults(netlist)
    cancel = CancelToken()
    cancel.trip("cancelled")
    result = _run(
        netlist, faults, executor="remote", jobs=2, cancel=cancel,
    )
    assert result.partial
    metrics = telemetry.get_telemetry().metrics

    def forwarded() -> int:
        return metrics.snapshot()["counters"].get(
            "exec.remote.cancel_forwarded", 0
        )

    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline and not forwarded():
        time.sleep(0.05)
    assert forwarded() >= 1
    telemetry.disable()


# ------------------------------------------------------------ agent protocol


def _connect(agent: WorkerAgent) -> socket.socket:
    host, port = agent.address
    sock = socket.create_connection((host, port), timeout=5)
    sock.settimeout(5)
    return sock


def _init_payload(netlist, batch_width=64):
    import pickle

    return pickle.dumps((netlist, batch_width, False, "packed"))


def test_agent_answers_ping_and_bye(agent_peer):
    sock = _connect(agent_peer)
    try:
        send_frame(sock, {"type": "ping"})
        assert read_frame(sock) == {"type": "pong"}
        send_frame(sock, {"type": "cancel"})
        assert read_frame(sock) == {"type": "cancel-ack"}
        send_frame(sock, {"type": "bye"})
    finally:
        sock.close()


def test_agent_runs_units_identically_to_local(agent_peer):
    from repro.engine.cache import GoldenBatches
    from repro.exec.base import WorkUnit
    from repro.netlist.evaluate import Evaluator

    netlist = make_random_netlist(6, 20, seed=11)
    faults, _ = collapse_faults(netlist)
    source = RandomPatternSource(len(netlist.primary_inputs), seed=23)
    golden = GoldenBatches(Evaluator(netlist), source, 16)
    mask = (1 << 16) - 1
    unit = WorkUnit(
        shard_id=0, faults=tuple(faults),
        golden_batches=((mask, golden.golden_batch(0)),),
        pattern_base=0, round_index=0, drop_detected=True,
    )
    local = run_work_unit(
        make_simulator(netlist, 16, "packed"), unit, in_process=True
    )
    sock = _connect(agent_peer)
    try:
        send_frame(sock, {"type": "init",
                          "payload": _init_payload(netlist, 16)})
        assert read_frame(sock) == {"type": "ready"}
        send_frame(sock, {"type": "run", "unit": unit})
        reply = read_frame(sock)
    finally:
        sock.close()
    assert reply["type"] == "result"
    remote = reply["result"]
    assert remote.checksum == local.checksum
    assert remote.detections == local.detections
    assert remote.survivors == local.survivors


def test_agent_rejects_run_before_init(agent_peer):
    sock = _connect(agent_peer)
    try:
        send_frame(sock, {"type": "run", "unit": None})
        reply = read_frame(sock)
        assert reply["type"] == "error"
        assert "init" in reply["message"]
    finally:
        sock.close()


def test_agent_drops_unknown_messages(agent_peer):
    sock = _connect(agent_peer)
    try:
        send_frame(sock, {"type": "frobnicate"})
        with pytest.raises(ConnectionClosed):
            read_frame(sock)
    finally:
        sock.close()


# ------------------------------------------------------------- worker CLI


def test_worker_cli_announces_and_exits_143_on_sigterm():
    worker = _spawn_worker()
    try:
        host, port_text = worker.address.rsplit(":", 1)
        with socket.create_connection((host, int(port_text)), timeout=5) as s:
            s.settimeout(5)
            send_frame(s, {"type": "ping"})
            assert read_frame(s) == {"type": "pong"}
    finally:
        worker.terminate()
        assert worker.wait(timeout=10) == 143
        worker.stdout.close()
        worker.stderr.close()


def _pingable(address: str, timeout: float = 1.0) -> bool:
    host, port_text = address.rsplit(":", 1)
    try:
        with socket.create_connection((host, int(port_text)),
                                      timeout=timeout) as sock:
            sock.settimeout(timeout)
            send_frame(sock, {"type": "ping"})
            return read_frame(sock) == {"type": "pong"}
    except OSError:
        return False


def test_worker_respawn_supervises_across_hard_death():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    address = f"127.0.0.1:{port}"
    env = dict(os.environ, PYTHONPATH="src")
    supervisor = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--listen", address, "--respawn", "--quiet"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=REPO_ROOT, env=env,
    )
    try:
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline and not _pingable(address):
            time.sleep(0.1)
        assert _pingable(address), "supervised worker never came up"
        # Kill the child the hard way (the node_down chaos vector) ...
        with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
            send_frame(s, {"type": "exit"})
            time.sleep(0.1)
        # ... and the supervisor must bring a fresh one back on the port.
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline and not _pingable(address):
            time.sleep(0.1)
        assert _pingable(address), "worker was not respawned after death"
    finally:
        supervisor.terminate()
        assert supervisor.wait(timeout=10) == 143
        supervisor.stdout.close()
        supervisor.stderr.close()
