"""The BIST service: routes, workers, drain — BIST-as-a-service.

One :class:`BistService` owns the whole runtime: an HTTP front end
(:mod:`repro.serve.http`), a quota-aware :class:`~repro.serve.jobs.
JobQueue`, N worker tasks driving :func:`repro.engine.simulate` on their
own N-thread pool, and a :class:`~repro.serve.cache.ResultCache` keyed by the
checkpoint run key.  The service is a thin orchestration shell by design:
simulation semantics, governance, journaling and serialization all come
from the existing layers (``engine`` / ``guard`` / ``checkpoint`` /
``cli_args``), so a job run through the service is the same run a library
caller or the CLI would get.

Drain contract (exercised by ``tests/test_serve_drain.py``): SIGTERM (or
:meth:`BistService.begin_drain`) trips one shared
:class:`~repro.guard.CancelToken`.  New submissions are refused with 503;
queued jobs are marked cancelled; running engine calls stop at their next
shard-round boundary, flush their checkpoint journal, and complete with
``partial=True`` results.  The HTTP endpoint stays up for a grace window
so clients can collect those partial results, then the process exits with
the conventional signal code (143 for SIGTERM) via
:func:`repro.guard.exit_code`.  Because jobs journal under
``<state dir>/journal`` with ``resume=True``, a restarted service resumes
an interrupted job's resubmission bit-identically.
"""

from __future__ import annotations

import asyncio
import functools
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import telemetry
from repro.cli_args import result_payload
from repro.engine.checkpoint import CheckpointStore, resolve_run_key
from repro.errors import LintError, ReproError
from repro.guard import (
    STOP_SIGINT,
    STOP_SIGTERM,
    Budget,
    CancelToken,
    exit_code,
    guard_summary,
)
from repro.serve.cache import DEFAULT_CACHE_SIZE, ResultCache
from repro.serve.http import (
    Request,
    Response,
    bound_port,
    json_response,
    start_http_server,
    text_response,
)
from repro.serve.jobs import (
    DEFAULT_MAX_QUEUED,
    DEFAULT_TENANT_QUOTA,
    STATE_DONE,
    Job,
    JobQueue,
)
from repro.serve.protocol import ApiError, JobRequest

#: Seconds the HTTP endpoint stays up after the last job drains, so
#: clients can still collect partial results and final status.
DEFAULT_DRAIN_GRACE = 2.0

#: Worker tasks (each drives one blocking engine run at a time).
DEFAULT_WORKERS = 2


def _design_builders() -> Dict[str, Callable[[], Any]]:
    from repro.library import scenarios

    return {
        "c3a2m": scenarios.c3a2m_kernel,
        "mac4": scenarios.mac4_kernel,
        "figure4": scenarios.figure4_kernel,
        "figure9": scenarios.figure9_kernel,
        "synth20k": scenarios.synth20k_kernel,
    }


class DesignRegistry:
    """Library designs the API accepts by name, built and collapsed once.

    Builders are deterministic, so memoizing the netlist *and* its
    collapsed fault universe makes repeat submissions of the same design
    pay construction cost once per process.  Thread-safe because
    preparation runs in the submit thread pool.
    """

    def __init__(self) -> None:
        self._builders = _design_builders()
        self._built: Dict[str, Tuple[Any, List[Any]]] = {}
        self._lock = threading.Lock()

    def names(self) -> List[str]:
        return sorted(self._builders)

    def resolve(self, name: str) -> Tuple[Any, List[Any]]:
        """``(netlist, collapsed faults)`` for a design name, or 404."""
        if name not in self._builders:
            raise ApiError(
                404, "unknown-design",
                f"unknown design {name!r}",
                extra={"available": self.names()},
            )
        with self._lock:
            if name not in self._built:
                from repro.faultsim.collapse import collapse_faults

                netlist = self._builders[name]()
                faults, _ = collapse_faults(netlist)
                self._built[name] = (netlist, faults)
            return self._built[name]


class BistService:
    """The service runtime: routes, queue, workers, cache, drain."""

    def __init__(
        self,
        state_dir: Any,
        *,
        workers: int = DEFAULT_WORKERS,
        tenant_quota: int = DEFAULT_TENANT_QUOTA,
        max_queued: int = DEFAULT_MAX_QUEUED,
        cache_size: int = DEFAULT_CACHE_SIZE,
        drain_grace: float = DEFAULT_DRAIN_GRACE,
        max_journal_entries: Optional[int] = None,
    ):
        self.state_dir = Path(state_dir)
        self.journal_root = self.state_dir / "journal"
        self.journal_root.mkdir(parents=True, exist_ok=True)
        self.n_workers = max(1, workers)
        self.drain_grace = max(0.0, drain_grace)
        self.max_journal_entries = max_journal_entries
        self.designs = DesignRegistry()
        self._profiles: Dict[str, Any] = {}
        self._profile_lock = threading.Lock()
        self.cache = ResultCache(cache_size)
        self.queue = JobQueue(tenant_quota=tenant_quota,
                              max_queued=max_queued)
        self.jobs: Dict[str, Job] = {}
        self.cancel = CancelToken()
        self.draining = False
        self.port: Optional[int] = None
        self.started_at = time.time()
        self._job_counter = 0
        self._drain_event: Optional[asyncio.Event] = None

    # ------------------------------------------------------------ lifecycle

    def begin_drain(self, reason: str = STOP_SIGTERM,
                    signum: Optional[int] = None) -> None:
        """Start the drain (idempotent; callable from a signal handler)."""
        if self.draining:
            return
        self.draining = True
        self.cancel.trip(reason, signum=signum)
        telemetry.count("serve.drain")
        if self._drain_event is not None:
            self._drain_event.set()

    async def run(self, host: str, port: int,
                  announce: Optional[Callable[[str], None]] = None,
                  install_signals: bool = True,
                  ready: Optional[threading.Event] = None) -> int:
        """Serve until drained; returns the process exit code (0/130/143)."""
        loop = asyncio.get_running_loop()
        self._drain_event = asyncio.Event()
        if self.cancel.cancelled:  # drained before the loop even started
            self._drain_event.set()
        server = await start_http_server(host, port, self.handle)
        self.port = bound_port(server)
        if install_signals:
            try:
                loop.add_signal_handler(
                    signal.SIGTERM,
                    functools.partial(self.begin_drain, STOP_SIGTERM,
                                      signal.SIGTERM))
                loop.add_signal_handler(
                    signal.SIGINT,
                    functools.partial(self.begin_drain, STOP_SIGINT,
                                      signal.SIGINT))
            except (NotImplementedError, RuntimeError):
                # Non-main thread (or an exotic loop): the token still
                # works when tripped in code via begin_drain().
                pass
        # Engine runs get threads of their own, one per worker task, so a
        # job never hops between the default executor's threads, which
        # serve submissions.
        with ThreadPoolExecutor(max_workers=self.n_workers,
                                thread_name_prefix="serve-engine") as engine_pool:
            workers = [asyncio.ensure_future(self._worker_loop(engine_pool))
                       for _ in range(self.n_workers)]
            if announce is not None:
                announce(f"serving on http://{host}:{self.port}")
            if ready is not None:
                ready.set()
            await self._drain_event.wait()
            if announce is not None:
                announce(f"draining: {self.cancel.reason}")
            await self.queue.close()
            await asyncio.gather(*workers)
        # In-flight work has stopped; keep answering status/result queries
        # for the grace window so clients can collect partial results.
        await asyncio.sleep(self.drain_grace)
        server.close()
        await server.wait_closed()
        if announce is not None:
            announce("drained")
        return exit_code(self.cancel)

    # -------------------------------------------------------------- workers

    async def _worker_loop(self, engine_pool: ThreadPoolExecutor) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self.queue.acquire()
            if job is None:
                return
            try:
                payload = await loop.run_in_executor(
                    engine_pool, self._execute, job)
                job.result = payload
                job.state = STATE_DONE
                job.finished_at = time.time()
                self.cache.put(job.run_key, payload)
                self._sweep_journal()
                telemetry.count("serve.jobs_completed")
            except ApiError as error:
                job.fail(error)
                telemetry.count("serve.jobs_failed")
            except ReproError as error:
                job.fail(ApiError(500, "simulation", str(error)))
                telemetry.count("serve.jobs_failed")
            except Exception as error:  # noqa: BLE001 - worker boundary
                job.fail(ApiError(
                    500, "internal", f"{type(error).__name__}: {error}"))
                telemetry.count("serve.jobs_failed")
            finally:
                await self.queue.release(job)

    def _sweep_journal(self) -> None:
        """Bound the on-disk journal to the newest run-key entries (LRU).

        Off by default (``max_journal_entries=None``): the journal then
        grows one ``<run key>`` directory per distinct submission, which
        a long-lived service on a small state volume cannot afford.  With
        a limit set, completed entries beyond it are removed oldest-first
        by mtime; entries belonging to unfinished jobs are never touched
        (a running engine is writing there, and a queued resubmission
        still wants the resume replay).  Evicting a *completed* entry
        only costs a re-run on resubmission after the result cache has
        also dropped the key — the durability/space trade the operator
        opted into.
        """
        limit = self.max_journal_entries
        if limit is None:
            return
        import shutil

        protected = {
            job.run_key[:32] for job in self.jobs.values()
            if job.run_key is not None and not job.finished
        }
        try:
            entries = [path for path in self.journal_root.iterdir()
                       if path.is_dir() and path.name not in protected]
        except OSError:  # pragma: no cover - state dir vanished underfoot
            return

        def mtime(path: Path) -> float:
            try:
                return path.stat().st_mtime
            except OSError:  # pragma: no cover - concurrent removal
                return 0.0

        entries.sort(key=mtime)
        for stale in entries[: max(0, len(entries) - max(0, limit))]:
            shutil.rmtree(stale, ignore_errors=True)
            telemetry.count("serve.journal_evictions")

    def _execute(self, job: Job) -> Dict[str, Any]:
        """Run one job's engine call (engine pool; blocking is fine here)."""
        from repro.engine import simulate

        netlist, faults, source, config, budget = job.work
        with telemetry.span("serve.job", job=job.id,
                            target=job.request.target):
            result = simulate(netlist, faults, source, config=config)
        return result_payload(
            result,
            context={
                "circuit": job.request.target,
                "seed": job.request.seed,
                "run_key": job.run_key,
            },
            guard=guard_summary(
                budget, self.cancel,
                stop_reason=result.stop_reason,
                partial=result.partial,
            ),
            include_faults=True,
        )

    # ------------------------------------------------------------ submission

    def _prepare(self, request: JobRequest):
        """Resolve a submission to runnable work (thread pool).

        Returns ``(work tuple, run key)``; raises :class:`ApiError` for
        anything the client got wrong — 404 unknown design, 400 unparsable
        bench text, 422 lint findings.
        """
        if request.design is not None:
            netlist, faults = self.designs.resolve(request.design)
        else:
            from repro.faultsim.collapse import collapse_faults
            from repro.netlist import bench_io

            try:
                # validate=False: structurally broken uploads (cycles,
                # floating outputs) must reach the lint pre-flight, whose
                # Finding documents are the 422 contract — not die in the
                # parser's first structural check with an opaque 400.
                netlist = bench_io.loads(str(request.bench),
                                         name=request.target,
                                         validate=False)
            except ReproError as error:
                raise ApiError(400, "bad-netlist",
                               f"bench text did not parse: {error}") \
                    from error
            from repro.lint.runner import preflight_netlist

            # Pre-flight *before* fault collapse: a 422 must carry the
            # lint findings, not whatever collapse trips over first.
            preflight_netlist(netlist, name=request.target)
            faults, _ = collapse_faults(netlist)
        from repro.faultsim.patterns import RandomPatternSource

        source = RandomPatternSource(len(netlist.primary_inputs),
                                     seed=request.seed)
        budget = (Budget(deadline=request.deadline).arm()
                  if request.deadline is not None else None)
        config = request.run_config(self.journal_root, budget, self.cancel)
        key = resolve_run_key(netlist, source, faults, config)
        return (netlist, faults, source, config, budget), key

    async def _submit(self, request: Request) -> Response:
        if self.draining:
            raise ApiError(503, "draining",
                           "service is draining; not accepting new jobs")
        job_request = JobRequest.from_json(request.json())
        loop = asyncio.get_running_loop()
        work, key = await loop.run_in_executor(
            None, self._prepare, job_request)
        self._job_counter += 1
        job = Job(f"job-{self._job_counter:05d}", job_request, key)
        self.jobs[job.id] = job
        cached = self.cache.get(key)
        if cached is not None:
            job.cached = True
            job.state = STATE_DONE
            job.started_at = job.submitted_at
            job.finished_at = time.time()
            job.result = cached
            telemetry.count("serve.jobs_completed")
        else:
            job.work = work
            self.queue.submit(job)
        telemetry.count("serve.jobs_submitted")
        return json_response(202, job.status_json())

    # --------------------------------------------------------------- queries

    def _get_job(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise ApiError(404, "unknown-job", f"no such job: {job_id}")
        return job

    def _progress(self, job: Job) -> List[Dict[str, Any]]:
        """The coverage curve so far, read from the checkpoint journal.

        One point per completed engine round: patterns applied through
        that round and cumulative detections across all shards.  Empty
        for cached jobs (nothing ran) and before the first round lands.
        """
        if job.run_key is None or job.cached:
            return []
        store = CheckpointStore(self.journal_root, job.run_key)
        # sweep=False: this is a concurrent *read* of a journal the engine
        # may be writing right now; the stale-tmp sweep would race the
        # writer's atomic rename.
        records = store.load(sweep=False)
        if not records:
            return []
        rounds: Dict[int, Dict[str, int]] = {}
        for (_, round_index), record in records.items():
            point = rounds.setdefault(round_index,
                                      {"patterns": 0, "detected": 0})
            point["patterns"] = max(point["patterns"],
                                    int(record["patterns"]))
            point["detected"] += len(record["detections"])
        curve: List[Dict[str, Any]] = []
        detected = 0
        for round_index in sorted(rounds):
            point = rounds[round_index]
            detected += point["detected"]
            curve.append({
                "round": round_index,
                "patterns": point["patterns"],
                "detected": detected,
            })
        return curve

    async def _job_status(self, job_id: str) -> Response:
        job = self._get_job(job_id)
        payload = job.status_json()
        payload["progress"] = self._progress(job)
        return json_response(200, payload)

    async def _job_result(self, job_id: str,
                          query: Dict[str, str]) -> Response:
        job = self._get_job(job_id)
        if job.state == STATE_DONE and job.result is not None:
            payload = job.result
            include_faults = query.get("include_faults", "") \
                not in ("", "0", "false")
            if not (job.request.include_faults or include_faults):
                payload = {name: value for name, value in payload.items()
                           if name not in ("first_detection", "undetected")}
            return json_response(200, payload)
        if job.finished:  # failed or cancelled: replay the stored error
            return json_response(job.error_status,
                                 job.error or {"error": "unknown"})
        raise ApiError(409, "pending",
                       f"job {job_id} is {job.state}; result not ready",
                       extra={"state": job.state})

    def _testability_payload(self, name: str,
                             patterns: int) -> Dict[str, Any]:
        """The static testability document for one library design.

        The window-free :class:`~repro.analysis.random_testability.
        TestabilityProfile` is memoized per design (same pattern as the
        run-key result cache: deterministic input, pay the analysis once
        per process); every windowed question in the response is answered
        at query time, so ``?patterns=`` changes the document without
        invalidating the memo.
        """
        from repro.analysis import DEFAULT_WINDOW, analyze_netlist

        netlist, faults = self.designs.resolve(name)
        with self._profile_lock:
            profile = self._profiles.get(name)
            if profile is None:
                telemetry.count("analysis.cache_miss")
                profile = analyze_netlist(netlist, faults)
                self._profiles[name] = profile
            else:
                telemetry.count("analysis.cache_hit")
        window = patterns if patterns > 0 else DEFAULT_WINDOW
        payload = profile.to_json(window=window)
        payload["design"] = name
        return payload

    async def _design_testability(self, name: str,
                                  query: Dict[str, str]) -> Response:
        try:
            patterns = int(query.get("patterns", "0") or "0")
        except ValueError as error:
            raise ApiError(400, "bad-query",
                           "patterns must be an integer") from error
        loop = asyncio.get_running_loop()
        payload = await loop.run_in_executor(
            None, self._testability_payload, name, patterns)
        return json_response(200, payload)

    async def _health(self) -> Response:
        status = 503 if self.draining else 200
        return json_response(status, {
            "status": "draining" if self.draining else "ok",
            "jobs": len(self.jobs),
            "queued": len(self.queue),
            "running": self.queue.n_running,
            "cache": self.cache.stats(),
            "uptime": time.time() - self.started_at,
        })

    # --------------------------------------------------------------- routing

    async def handle(self, request: Request) -> Response:
        try:
            return await self._route(request)
        except LintError as error:
            # The typed lint-failure contract: HTTP 422 carrying the full
            # Finding list — the same document `repro-bist selftest --json`
            # prints for the same netlist (LintError.payload()).
            telemetry.count("serve.lint_rejections")
            return json_response(422, error.payload())

    async def _route(self, request: Request) -> Response:
        route = (request.method, request.path)
        if request.path == "/healthz":
            self._expect(request, "GET")
            return await self._health()
        if request.path == "/metrics":
            self._expect(request, "GET")
            from repro.telemetry.export import metrics_text

            return text_response(
                200, metrics_text(),
                content_type="text/plain; version=0.0.4; charset=utf-8")
        if request.path == "/v1/jobs":
            if request.method == "POST":
                return await self._submit(request)
            self._expect(request, "GET")
            return json_response(200, {
                "jobs": [job.status_json()
                         for job in self.jobs.values()],
            })
        if request.path.startswith("/v1/jobs/"):
            rest = request.path[len("/v1/jobs/"):]
            if rest.endswith("/result"):
                self._expect(request, "GET")
                return await self._job_result(rest[:-len("/result")],
                                              request.query)
            if "/" not in rest:
                self._expect(request, "GET")
                return await self._job_status(rest)
        if request.path.startswith("/v1/designs/") and \
                request.path.endswith("/testability"):
            self._expect(request, "GET")
            name = request.path[len("/v1/designs/"):-len("/testability")]
            return await self._design_testability(name, request.query)
        raise ApiError(404, "not-found",
                       f"no route for {route[0]} {route[1]}")

    @staticmethod
    def _expect(request: Request, method: str) -> None:
        if request.method != method:
            raise ApiError(405, "method-not-allowed",
                           f"{request.path} only supports {method}")


# ----------------------------------------------------------------- embedding

class ServerThread:
    """An in-process service on a background thread (tests, benchmarks).

    ``start()`` returns once the port is bound; ``drain()`` requests the
    same shutdown SIGTERM would; ``join()`` collects the exit code.
    """

    def __init__(self, service: BistService,
                 host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.host = host
        self._requested_port = port
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.exit_code: Optional[int] = None
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serve", daemon=True)

    @property
    def port(self) -> int:
        port = self.service.port
        if port is None:
            raise RuntimeError("server not started")
        return port

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server failed to start within 30s")
        return self

    def _run(self) -> None:
        async def _amain() -> int:
            self._loop = asyncio.get_running_loop()
            return await self.service.run(
                self.host, self._requested_port,
                install_signals=False, ready=self._ready)

        try:
            self.exit_code = asyncio.run(_amain())
        finally:
            self._ready.set()  # unblock start() even on a crashed loop

    def drain(self) -> None:
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.service.begin_drain)
        else:
            self.service.begin_drain()

    def join(self, timeout: float = 30) -> Optional[int]:
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("server thread did not exit")
        return self.exit_code
