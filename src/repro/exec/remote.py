"""The remote backend: socket-sharded execution that survives node death.

A :class:`RemoteExecutor` ships each shard round's
:class:`~repro.exec.base.WorkUnit` over a framed socket
(:mod:`repro.exec.wire`) to one of a set of peer worker agents
(:mod:`repro.exec.agent`, started with ``python -m repro worker``).  The
agents run the same :func:`~repro.exec.worker.run_work_unit` primitive as
every local backend, so remote results are bit-identical to serial by
construction; the driver's end-to-end round checksum still verifies every
payload on top of the wire-level digest.

Fault-tolerance ladder (each rung bounded, none raises mid-run):

1. **Re-dispatch.**  A dispatch that fails — connection lost, worker
   error mid-frame, dispatch timeout — requeues the unit with exponential
   backoff onto the surviving peers (at-least-once delivery is safe: a
   unit is a pure function of its inputs, so re-executing one a peer may
   already have finished changes nothing).  A node that stops answering
   fresh-connection heartbeats, or cannot be reconnected after a failure,
   is declared dead and receives no further work.
2. **Local fallback.**  A unit past its dispatch budget — or any unit
   once *every* peer is dead — runs on a lazily-started local ``process``
   backend, accounted as the synthetic node ``-1``.
3. **The driver's ladder.**  If even the fallback fails, the failure
   surfaces to the :class:`~repro.exec.driver.RoundDriver` exactly like a
   local worker crash: retry waves, ``restart()`` (which re-probes dead
   peers, so respawned agents rejoin), and ultimately the in-parent
   degraded rung.

Hang detection is *internal* (see the timeout contract in
:mod:`repro.exec.base`): every dispatch carries a socket timeout derived
from the run's ``RetryPolicy.shard_timeout`` (via
:meth:`RemoteExecutor.configure`, falling back to
``$REPRO_REMOTE_TIMEOUT``), so a round handle ignores the driver's
deadline and waits for the coordinator to settle the unit.

Peers come from :func:`set_default_peers` (the CLI's ``--peers``) or
``$REPRO_PEERS`` (``host:port,host:port``).  ``start()`` raises
:class:`~repro.exec.base.ExecutorStartError` when no peer is reachable
within a short grace window — the serve layer maps that to a structured
503.  Governance: the run's :class:`~repro.guard.cancel.CancelToken`
(``ExecutionContext.cancel``) is watched and forwarded to every live peer
as a ``cancel`` frame, so SIGTERM on the coordinator drains peers cleanly.

Deterministic node-level chaos (``node_down:R`` / ``node_hang:R`` /
``net_drop:R``) is honoured at the dispatch sites below, which is what
makes this whole ladder provable in CI.  See ``docs/DISTRIBUTED.md``.
"""

from __future__ import annotations

import os
import pickle
import queue
import socket
import threading
import time
from dataclasses import replace
from typing import Any, List, Optional, Tuple

from repro import telemetry
from repro.errors import SimulationError
from repro.exec.base import (
    ExecutionContext,
    Executor,
    ExecutorStartError,
    NodeStats,
    RoundHandle,
    RoundResult,
    WorkUnit,
)
from repro.exec.wire import FrameError, read_frame, send_frame

#: Environment variable naming the peer set (``host:port,host:port``).
PEERS_ENV_VAR = "REPRO_PEERS"

#: Per-dispatch timeout when the run's RetryPolicy carries none.
TIMEOUT_ENV_VAR = "REPRO_REMOTE_TIMEOUT"
DEFAULT_DISPATCH_TIMEOUT = 120.0

#: Heartbeat interval in seconds (<= 0 disables heartbeats).
HEARTBEAT_ENV_VAR = "REPRO_REMOTE_HEARTBEAT"
DEFAULT_HEARTBEAT_SECONDS = 1.0

#: Consecutive missed heartbeats before a node is declared dead.
HEARTBEAT_MISS_LIMIT = 3

#: How long ``start()`` keeps retrying unreachable peers before giving up.
START_GRACE_ENV_VAR = "REPRO_REMOTE_START_GRACE"
DEFAULT_START_GRACE_SECONDS = 5.0

_CONNECT_TIMEOUT = 2.0
_QUEUE_POLL_SECONDS = 0.2

# ------------------------------------------------------------------- peers

_DEFAULT_PEERS: Optional[Tuple[Tuple[str, int], ...]] = None


def parse_peers(spec: str) -> Tuple[Tuple[str, int], ...]:
    """``"host:port,host:port"`` -> ((host, port), ...)."""
    peers: List[Tuple[str, int]] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        host, sep, port = token.rpartition(":")
        if not sep or not host:
            raise SimulationError(
                f"peer {token!r} must look like host:port"
            )
        try:
            peers.append((host, int(port)))
        except ValueError:
            raise SimulationError(f"peer port {port!r} is not an int")
    return tuple(peers)


def set_default_peers(peers: Optional[str]) -> None:
    """Pin the process-wide peer set (the CLI's ``--peers`` flag).

    ``None`` (or an empty string) clears the pin, falling back to
    ``$REPRO_PEERS``.
    """
    global _DEFAULT_PEERS
    _DEFAULT_PEERS = parse_peers(peers) if peers else None


def resolve_peers() -> Tuple[Tuple[str, int], ...]:
    """The effective peer set: ``set_default_peers`` -> ``$REPRO_PEERS``."""
    if _DEFAULT_PEERS is not None:
        return _DEFAULT_PEERS
    return parse_peers(os.environ.get(PEERS_ENV_VAR, ""))


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        raise SimulationError(f"${name} value {raw!r} is not a number")


# ----------------------------------------------------------------- plumbing


class _RemoteHandle(RoundHandle):
    """A round outcome settled by a dispatcher/transfer thread."""

    def __init__(self) -> None:
        self._done = threading.Event()
        self._result: Optional[RoundResult] = None
        self._error: Optional[BaseException] = None

    def fulfill(self, result: RoundResult) -> None:
        self._result = result
        self._done.set()

    def fail(self, error: BaseException) -> None:
        self._error = error
        self._done.set()

    def result(self, timeout: Optional[float] = None) -> RoundResult:
        # ``timeout`` is ignored: the coordinator owns its deadlines (per-
        # dispatch socket timeouts), and every unit it accepts is settled
        # — by a peer, the local fallback or a failure.  A driver deadline
        # at the same shard_timeout would race them.
        self._done.wait()
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


class _PendingUnit:
    """One unit awaiting (re-)dispatch, with its dispatch budget."""

    __slots__ = ("unit", "handle", "dispatches")

    def __init__(self, unit: WorkUnit, handle: _RemoteHandle):
        self.unit = unit
        self.handle = handle
        self.dispatches = 0


class _Node:
    """One peer: address, live work connection, accounting."""

    def __init__(self, index: int, host: str, port: int):
        self.index = index
        self.host = host
        self.port = port
        self.sock: Optional[socket.socket] = None
        self.lock = threading.Lock()
        self.misses = 0
        self.stats = NodeStats(node=index, address=f"{host}:{port}")
        self.thread: Optional[threading.Thread] = None

    @property
    def alive(self) -> bool:
        return self.stats.alive

    def close(self) -> None:
        sock, self.sock = self.sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass


class RemoteExecutor(Executor):
    """Socket-sharded execution over a registry of peer worker agents."""

    name = "remote"

    def __init__(self) -> None:
        self._context: Optional[ExecutionContext] = None
        self._payload: Optional[bytes] = None
        self._nodes: List[_Node] = []
        self._queue: "queue.Queue[_PendingUnit]" = queue.Queue()
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._fallback: Optional[Executor] = None
        self._fallback_stats: Optional[NodeStats] = None
        self._heartbeat_thread: Optional[threading.Thread] = None
        self._cancel_thread: Optional[threading.Thread] = None
        self._dispatch_timeout = DEFAULT_DISPATCH_TIMEOUT
        # (shard, round) of the unit node chaos fired on; one per run.
        self._chaos_unit: Optional[Tuple[int, int]] = None
        self._backoff = 0.05
        self._max_dispatches = 3  # overwritten by configure()

    # ---------------------------------------------------------- configure

    def configure(self, retry: Any) -> None:
        # One --shard-timeout governs every rung: the driver would have
        # armed its deadline from the same policy on a local backend.
        if retry.shard_timeout is not None:
            self._dispatch_timeout = retry.shard_timeout
        else:
            self._dispatch_timeout = _env_float(
                TIMEOUT_ENV_VAR, DEFAULT_DISPATCH_TIMEOUT
            )
        self._backoff = retry.backoff
        self._max_dispatches = retry.max_retries + 1

    # -------------------------------------------------------------- start

    def start(self, context: ExecutionContext) -> None:
        if self._context is not None:
            return
        peers = resolve_peers()
        if not peers:
            raise ExecutorStartError(
                "remote executor has no peers: start worker agents with "
                "'python -m repro worker --listen HOST:PORT' and name them "
                f"via --peers or ${PEERS_ENV_VAR}"
            )
        self._context = context
        # Same 4-tuple the process backend ships its workers.
        self._payload = pickle.dumps(
            (context.netlist, context.batch_width,
             context.telemetry_enabled, context.kernel)
        )
        self._nodes = [
            _Node(index, host, port)
            for index, (host, port) in enumerate(peers)
        ]
        grace = _env_float(START_GRACE_ENV_VAR, DEFAULT_START_GRACE_SECONDS)
        deadline = time.monotonic() + grace
        while True:
            connected = 0
            for node in self._nodes:
                if node.sock is not None:
                    connected += 1
                    continue
                try:
                    node.sock = self._connect(node)
                    connected += 1
                except (OSError, FrameError):
                    continue
            if connected or time.monotonic() >= deadline:
                break
            time.sleep(0.1)
        if not connected:
            addresses = ", ".join(n.stats.address for n in self._nodes)
            self._context = None
            raise ExecutorStartError(
                f"remote executor could not reach any peer ({addresses}) "
                f"within {grace:.1f}s"
            )
        for node in self._nodes:
            if node.sock is None:
                node.stats.alive = False
                node.stats.degraded_reason = "unreachable at start"
            else:
                self._start_dispatcher(node)
        self._start_heartbeat()
        self._start_cancel_watcher()

    def _connect(self, node: _Node) -> socket.socket:
        """Fresh work connection: connect, init, await ready."""
        assert self._payload is not None
        sock = socket.create_connection(
            (node.host, node.port), timeout=_CONNECT_TIMEOUT
        )
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(self._dispatch_timeout)
            send_frame(sock, {"type": "init", "payload": self._payload})
            reply = read_frame(sock)
            if not isinstance(reply, dict) or reply.get("type") != "ready":
                raise FrameError(f"peer {node.stats.address} did not ready up")
        except BaseException:
            sock.close()
            raise
        return sock

    def _start_dispatcher(self, node: _Node) -> None:
        node.thread = threading.Thread(
            target=self._dispatch_loop, args=(node,),
            name=f"remote-dispatch-{node.index}", daemon=True,
        )
        node.thread.start()

    def _start_heartbeat(self) -> None:
        interval = _env_float(HEARTBEAT_ENV_VAR, DEFAULT_HEARTBEAT_SECONDS)
        if interval <= 0 or self._heartbeat_thread is not None:
            return
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, args=(interval,),
            name="remote-heartbeat", daemon=True,
        )
        self._heartbeat_thread.start()

    def _start_cancel_watcher(self) -> None:
        cancel = self._context.cancel if self._context else None
        if cancel is None or self._cancel_thread is not None:
            return
        self._cancel_thread = threading.Thread(
            target=self._cancel_loop, args=(cancel,),
            name="remote-cancel", daemon=True,
        )
        self._cancel_thread.start()

    # ------------------------------------------------------------ dispatch

    def submit_round(self, unit: WorkUnit) -> RoundHandle:
        assert self._context is not None, "executor used before start()"
        handle = _RemoteHandle()
        item = _PendingUnit(unit, handle)
        if any(node.alive for node in self._nodes):
            self._queue.put(item)
        else:
            # The whole peer set is gone; don't even queue.
            self._submit_fallback(item)
        return handle

    def _dispatch_loop(self, node: _Node) -> None:
        while not self._stop.is_set() and node.alive:
            try:
                item = self._queue.get(timeout=_QUEUE_POLL_SECONDS)
            except queue.Empty:
                continue
            if item.handle._done.is_set():  # cancelled/settled elsewhere
                continue
            self._dispatch(node, item)

    def _node_chaos(self, node: _Node, unit: WorkUnit) -> Optional[str]:
        """The node-chaos action for dispatching ``unit`` to ``node``.

        The plan fires on the first unit its node dispatches at or after
        its round, and on no other unit of the run; re-dispatches of that
        unit still obey ``attempt < times`` (``FaultInjector.node_action``).
        """
        # Duck-typed: repro.exec must stay importable without
        # repro.engine, so the injector is never imported here.
        node_action = getattr(unit.chaos, "node_action", None)
        if node_action is None:
            return None
        key = (unit.shard_id, unit.round_index)
        with self._lock:
            if self._chaos_unit not in (None, key):
                return None
            action = node_action(node.index, unit.round_index, unit.attempt)
            if action is not None:
                self._chaos_unit = key
        return action

    def _dispatch(self, node: _Node, item: _PendingUnit) -> None:
        unit = item.unit
        chaos = unit.chaos
        action = self._node_chaos(node, unit)
        first = item.dispatches == 0
        item.dispatches += 1
        node.stats.dispatched += 1
        telemetry.count("exec.remote.dispatched")
        if not first:
            node.stats.redispatched += 1
            telemetry.count("exec.remote.redispatched")
        try:
            with node.lock:
                if node.sock is None:
                    node.sock = self._connect(node)
                sock = node.sock
                # Sockets opened during start() predate configure() (the
                # driver is built after the executor starts), so the
                # effective per-dispatch deadline is applied here.
                sock.settimeout(self._dispatch_timeout)
                if action == "node_down":
                    # Kill the agent the way an OOM would, *then* try to
                    # use it — the very next read fails like a real death.
                    send_frame(sock, {"type": "exit"})
                elif action == "node_hang":
                    send_frame(
                        sock, {"type": "hang", "seconds": chaos.seconds}
                    )
                send_frame(sock, {"type": "run", "unit": unit})
                if action == "net_drop":
                    # Sever the link right after the unit left: the agent
                    # may still execute it, which is safe (idempotent).
                    node.close()
                    raise FrameError(
                        "chaos: net_drop severed the connection "
                        f"to node {node.index}"
                    )
                reply = read_frame(sock)
        except (FrameError, OSError) as error:
            timed_out = isinstance(error, socket.timeout)
            self._node_failed(node, item, error, timed_out=timed_out)
            return
        if isinstance(reply, dict) and reply.get("type") == "result":
            item.handle.fulfill(reply["result"])
        elif isinstance(reply, dict) and reply.get("type") == "error":
            # A clean worker-side failure (chaos `raise`, simulation
            # error): the node is healthy, so hand the failure to the
            # driver's retry ladder rather than redispatching blindly.
            item.handle.fail(SimulationError(
                f"node {node.index} ({node.stats.address}): "
                f"{reply.get('message')}"
            ))
        else:
            self._node_failed(
                node, item,
                FrameError(f"node {node.index} sent an unexpected reply"),
                timed_out=False,
            )

    def _node_failed(
        self,
        node: _Node,
        item: _PendingUnit,
        error: Exception,
        *,
        timed_out: bool,
    ) -> None:
        """One dispatch went wrong: probe the node, requeue the unit."""
        with node.lock:
            node.close()
            if node.alive:
                # A hung or partitioned node may still host a healthy
                # agent (it answers fresh connections even while one
                # thread is wedged); a dead process won't.  One probe
                # decides which.
                try:
                    node.sock = self._connect(node)
                    node.misses = 0
                except (OSError, FrameError):
                    self._declare_dead(
                        node,
                        "dispatch timed out and the peer could not be "
                        "reconnected" if timed_out else
                        f"connection lost and not re-established: {error}",
                    )
        self._requeue(item, error)

    def _declare_dead(self, node: _Node, reason: str) -> None:
        if not node.stats.alive:
            return
        node.stats.alive = False
        node.stats.degraded_reason = reason
        node.close()
        telemetry.count("exec.remote.node_deaths")
        if not any(n.alive for n in self._nodes):
            self._drain_queue_to_fallback()

    def _requeue(self, item: _PendingUnit, error: Exception) -> None:
        if item.dispatches >= self._max_dispatches:
            self._submit_fallback(item)
            return
        if not any(node.alive for node in self._nodes):
            self._submit_fallback(item)
            return
        # A fresh attempt lets a times-bounded chaos plan stand down,
        # mirroring the driver's retry-wave attempt bump.
        item.unit = replace(item.unit, attempt=item.unit.attempt + 1)
        if self._backoff > 0:
            time.sleep(self._backoff * (2 ** max(item.dispatches - 1, 0)))
        self._queue.put(item)

    def _drain_queue_to_fallback(self) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if not item.handle._done.is_set():
                self._submit_fallback(item)

    # ------------------------------------------------------------ fallback

    def _fallback_executor(self) -> Executor:
        with self._lock:
            if self._fallback is None:
                from repro.exec.process import ProcessExecutor

                assert self._context is not None
                fallback = ProcessExecutor()
                fallback.start(self._context)
                self._fallback = fallback
                self._fallback_stats = NodeStats(
                    node=-1,
                    address="process://localhost",
                    degraded_reason=(
                        "peer set exhausted; degraded to the local "
                        "process backend"
                    ),
                )
                telemetry.count("exec.remote.degraded_local")
            return self._fallback

    def _submit_fallback(self, item: _PendingUnit) -> None:
        try:
            fallback = self._fallback_executor()
            inner = fallback.submit_round(item.unit)
        except Exception as error:  # noqa: BLE001 - surfaced via the handle
            item.handle.fail(error)
            return
        assert self._fallback_stats is not None
        stats = self._fallback_stats
        stats.dispatched += 1
        if item.dispatches > 0:
            stats.redispatched += 1
            telemetry.count("exec.remote.redispatched")
        telemetry.count("exec.remote.dispatched")

        def transfer() -> None:
            try:
                item.handle.fulfill(inner.result(self._dispatch_timeout))
            except BaseException as error:  # noqa: BLE001 - handed to driver
                item.handle.fail(error)

        threading.Thread(
            target=transfer, name="remote-fallback-transfer", daemon=True
        ).start()

    # ---------------------------------------------------------- heartbeats

    def _heartbeat_loop(self, interval: float) -> None:
        while not self._stop.wait(interval):
            for node in self._nodes:
                if not node.alive or self._stop.is_set():
                    continue
                if self._ping(node, timeout=max(interval, 0.5)):
                    node.misses = 0
                    continue
                node.misses += 1
                node.stats.heartbeat_misses += 1
                telemetry.count("exec.remote.heartbeat_misses")
                if node.misses >= HEARTBEAT_MISS_LIMIT:
                    self._declare_dead(
                        node,
                        f"missed {node.misses} consecutive heartbeats",
                    )

    def _ping(self, node: _Node, timeout: float) -> bool:
        # Fresh short-lived connection: the agent answers even while its
        # work connection is busy, so a miss means process death or a
        # total wedge, never mere load.
        try:
            with socket.create_connection(
                (node.host, node.port), timeout=timeout
            ) as sock:
                sock.settimeout(timeout)
                send_frame(sock, {"type": "ping"})
                reply = read_frame(sock)
                return isinstance(reply, dict) and reply.get("type") == "pong"
        except (OSError, FrameError):
            return False

    # ------------------------------------------------------------- cancel

    def _cancel_loop(self, cancel: Any) -> None:
        while not self._stop.is_set():
            if cancel.wait(_QUEUE_POLL_SECONDS):
                break
        # Forward even when teardown won the race to set _stop: a tripped
        # token means peers may still be holding queued units, and the
        # frame is harmless on an idle agent.
        if not cancel.cancelled:
            return
        for node in self._nodes:
            if not node.alive:
                continue
            try:
                with socket.create_connection(
                    (node.host, node.port), timeout=_CONNECT_TIMEOUT
                ) as sock:
                    sock.settimeout(_CONNECT_TIMEOUT)
                    send_frame(sock, {"type": "cancel"})
                    read_frame(sock)  # cancel-ack, best effort
                telemetry.count("exec.remote.cancel_forwarded")
            except (OSError, FrameError):
                continue

    # ------------------------------------------------------------ recovery

    def restart(self) -> None:
        """Driver-level rebuild: re-probe dead peers, heal the fallback.

        A respawned worker agent (``python -m repro worker --respawn``)
        rejoins the run here — the driver calls restart() before every
        retry wave that had failures.
        """
        for node in self._nodes:
            if node.alive:
                continue
            try:
                with node.lock:
                    node.sock = self._connect(node)
            except (OSError, FrameError):
                continue
            node.stats.alive = True
            node.stats.degraded_reason = None
            node.misses = 0
            self._start_dispatcher(node)
        if self._fallback is not None:
            self._fallback.restart()

    # ------------------------------------------------------------ teardown

    def node_stats(self) -> Tuple[NodeStats, ...]:
        stats = [node.stats for node in self._nodes]
        if self._fallback_stats is not None:
            stats.append(self._fallback_stats)
        return tuple(stats)

    def worker_pids(self) -> Tuple[int, ...]:
        # Remote PIDs are another host's business; only the local
        # fallback's workers count toward this coordinator's RSS.
        return self._fallback.worker_pids() if self._fallback else ()

    def stop(self) -> None:
        self._stop.set()
        for node in self._nodes:
            with node.lock:
                if node.sock is not None:
                    try:
                        send_frame(node.sock, {"type": "bye"})
                    except (OSError, FrameError):
                        pass
                node.close()
            if node.thread is not None:
                node.thread.join(timeout=1.0)
                node.thread = None
        for thread in (self._heartbeat_thread, self._cancel_thread):
            if thread is not None:
                thread.join(timeout=1.0)
        self._heartbeat_thread = None
        self._cancel_thread = None
        if self._fallback is not None:
            self._fallback.stop()

    def release(self) -> None:
        self.stop()
        if self._fallback is not None:
            self._fallback.release()
            self._fallback = None


__all__ = [
    "PEERS_ENV_VAR",
    "RemoteExecutor",
    "parse_peers",
    "resolve_peers",
    "set_default_peers",
]
