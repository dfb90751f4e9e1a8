"""The process-pool backend: true CPU parallelism with crash isolation.

Wraps a restartable worker pool: a
:class:`concurrent.futures.ProcessPoolExecutor` (fork context where
available) whose workers each hold a pickled copy of the netlist, rebuilt
from scratch whenever a dead or hung worker poisons it.  The
:class:`~repro.exec.driver.RoundDriver` holds one
:class:`ProcessExecutor` for a ``process`` run and waits on the futures
that :meth:`ProcessExecutor.submit_round` returns.

**Warm-pool reuse across ``simulate()`` calls.**  Spinning a pool up —
forking workers, unpickling the netlist per worker — costs more than an
entire run on small kernels (see ``BENCH_engine.json``).  On ``stop()`` a
healthy pool is parked in a module-level cache keyed by its init payload
digest and worker count; the next run with the same netlist geometry
adopts it instead of paying the spin-up again (a Table-2 sweep hits this
on every seed repetition).  The cache holds one pool; a run with a
different key evicts (and terminates) the parked one.  ``release()`` —
the guard's memory ladder and interpreter exit — always tears workers
down for real, so RSS actually drops.
"""

from __future__ import annotations

import atexit
import hashlib
import multiprocessing
import pickle
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Dict, Optional, Tuple

from repro import telemetry
from repro.exec.base import ExecutionContext, RoundResult, WorkUnit
from repro.exec.worker import execute_unit, init_worker

def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


class _WorkerPool:
    """A restartable process pool.

    ``ProcessPoolExecutor`` is poisoned by a dead worker (BrokenProcessPool)
    and cannot cancel a hung one, so the recovery path for *any* shard
    failure is the same: abandon the executor, terminate its processes and
    build a fresh one lazily on the next submit.
    """

    def __init__(self, max_workers: int, init_payload: bytes):
        self._max_workers = max_workers
        self._init_payload = init_payload
        self._executor: Optional[ProcessPoolExecutor] = None

    def submit(self, fn, *args) -> Future:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self._max_workers,
                mp_context=_mp_context(),
                initializer=init_worker,
                initargs=(self._init_payload,),
            )
        return self._executor.submit(fn, *args)

    def worker_pids(self) -> Tuple[int, ...]:
        """PIDs of the live worker processes (for RSS sampling)."""
        if self._executor is None:
            return ()
        processes = getattr(self._executor, "_processes", {}) or {}
        return tuple(
            process.pid for process in list(processes.values())
            if process is not None and process.pid is not None
        )

    def shutdown(self) -> None:
        executor, self._executor = self._executor, None
        if executor is None:
            return
        # Snapshot worker processes before shutdown: hung workers would
        # otherwise linger until their (possibly unbounded) task finishes.
        processes = list(getattr(executor, "_processes", {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.terminate()
            except (OSError, ValueError, AttributeError):
                # Already exited/closed (or reaped by the executor between
                # our snapshot and the terminate); nothing left to kill.
                telemetry.count("engine.swallowed_errors")


# One parked pool, keyed by (init payload digest, worker count).  A single
# slot is deliberate: the dominant reuse pattern is the same netlist run
# repeatedly (seed sweeps, benchmark repetitions), and one slot cannot
# accumulate idle worker processes across many distinct circuits.
_POOL_CACHE: Dict[Tuple[str, int], _WorkerPool] = {}


def _drain_pool_cache() -> None:
    """Terminate every parked pool (interpreter exit, tests)."""
    while _POOL_CACHE:
        _, pool = _POOL_CACHE.popitem()
        pool.shutdown()


atexit.register(_drain_pool_cache)


class ProcessExecutor:
    """Sharded execution over a warm, restartable process pool.

    Life cycle: ``start(context)`` once per run, ``submit_round`` for
    every (shard, round, attempt), ``restart()`` whenever a dead or hung
    worker poisons the pool, and ``stop()`` (park the pool for the next
    run) or ``release()`` (free its workers now) at the end.
    """

    def __init__(self) -> None:
        self._pool: Optional[_WorkerPool] = None
        self._cache_key: Optional[Tuple[str, int]] = None

    def start(self, context: ExecutionContext) -> None:
        if self._pool is not None:
            return
        # The kernel is part of the payload (and therefore the warm-pool
        # cache key): a parked pool of packed workers must never serve a
        # vec run, and vice versa.
        payload = pickle.dumps(
            (context.netlist, context.artifacts.fingerprint,
             context.batch_width, context.telemetry_enabled, context.kernel)
        )
        key = (hashlib.sha256(payload).hexdigest(), context.max_workers)
        parked = _POOL_CACHE.pop(key, None)
        if parked is not None:
            telemetry.count("exec.pool_reuse")
            self._pool = parked
        else:
            # A parked pool for a *different* run is dead weight — evict it
            # rather than hold idle workers for a netlist that may never
            # come back.
            _drain_pool_cache()
            self._pool = _WorkerPool(context.max_workers, payload)
        self._cache_key = key

    def submit_round(self, unit: WorkUnit) -> "Future[RoundResult]":
        """Schedule one shard round; never blocks on the work itself.

        The future honours the driver's deadline: a hung worker raises
        :class:`concurrent.futures.TimeoutError` from ``result(timeout)``,
        and :meth:`restart` terminates it with its pool.
        """
        assert self._pool is not None, "executor used before start()"
        return self._pool.submit(execute_unit, unit)

    def restart(self) -> None:
        """Terminate the workers; the next submit builds a fresh pool."""
        if self._pool is not None:
            self._pool.shutdown()

    def worker_pids(self) -> Tuple[int, ...]:
        return self._pool.worker_pids() if self._pool is not None else ()

    def stop(self) -> None:
        """End of run: park the pool for the next run with the same key."""
        pool, self._pool = self._pool, None
        key, self._cache_key = self._cache_key, None
        if pool is None or key is None:
            return
        evicted = _POOL_CACHE.pop(key, None)
        if evicted is not None and evicted is not pool:
            evicted.shutdown()
        _POOL_CACHE[key] = pool

    def release(self) -> None:
        """Free every worker now; the memory ladder needs RSS to drop."""
        pool, self._pool = self._pool, None
        self._cache_key = None
        if pool is not None:
            pool.shutdown()
