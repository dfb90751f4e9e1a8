"""The ``serve-mix`` workload: an open-loop request mix against ``repro serve``.

Independent users arrive as a Poisson process; each request is timed from
the moment it was due, so a stall shows up in every request it delays, and
the generator reports how late it ran.  One process generates the load
over two keep-alive connections, one thread each.

The mix, in shuffled blocks of twenty so every stretch keeps the shares:

* 45% ``hit``    — resubmit a key primed during set-up, then fetch its result;
* 30% ``fresh``  — a new seed on a design drawn uniformly from c3a2m,
  mac4, figure4 and figure9 (in shuffled blocks of four, so the designs
  keep equal shares), 4096 patterns: a cache miss that runs the engine
  and journals every round;
* 15% ``status`` — read the newest fresh job, whose journal is being written;
* 10% ``reject`` — 404, 422 and 400 in rotation.

The shares, the rate and the job sizes are assumptions: the repository
holds no record of real traffic.

The phase's one cost sample is the service's CPU time per request: the
service process's CPU time from the start of the phase until the last
fresh job finished, less its host-speed sampler's, over the requests
sent.
Per-job times are not steady enough to stand for the service's cost:
under open-loop load a slow stretch makes jobs overlap, and overlapping
jobs take more CPU time each (up to 15% more, for a job overlapped
throughout), so the median job grew faster than the host slowed.  The
total counts that overlap once, as the cost it is, and averages over
every request of the mix.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.telemetry.export import parse_prometheus_text

from hostspeed import HostSpeed
from stats import percentile

from workloads import (
    Phase,
    Workload,
    build_design,
    payload_digest,
    reference_digest,
)

SUITE_DIR = Path(__file__).resolve().parent

#: (kind, requests per block of twenty)
MIX = (("hit", 9), ("fresh", 6), ("status", 3), ("reject", 2))

DESIGNS = ("c3a2m", "mac4", "figure4", "figure9")

#: The rejection rotation: (method, path, body, expected status).
REJECTS = (
    ("POST", "/v1/jobs", {"design": "no-such-design"}, 404),
    ("POST", "/v1/jobs", {"bench": "INPUT(a)\nOUTPUT(y)\ny = AND(a, y)\n"}, 422),
    ("POST", "/v1/jobs", {"design": "mac4", "bogus": 1}, 400),
)

#: Every tenth fresh job's full fault table is checked against a reference.
FRESH_CHECK_EVERY = 10

#: Seconds to wait for the last fresh jobs after the final arrival.
DRAIN_TIMEOUT = 60.0

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

FINISHED = ("done", "failed", "cancelled")


class Fresh(NamedTuple):
    """A submitted fresh job and when it was due (wall clock)."""

    job_id: str
    due_wall: float
    design: str
    seed: int


class Client:
    """One keep-alive HTTP connection speaking the service's JSON API."""

    def __init__(self, port: int):
        self._connection = http.client.HTTPConnection("127.0.0.1", port,
                                                      timeout=30)

    def request(self, method: str, path: str,
                body: Optional[Any] = None) -> Tuple[int, Any]:
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        self._connection.request(method, path, body=payload, headers=headers)
        response = self._connection.getresponse()
        data = response.read()
        if response.getheader("Content-Type", "").startswith("application/json"):
            return response.status, json.loads(data)
        return response.status, data.decode()

    def close(self) -> None:
        self._connection.close()


class Server:
    """A ``repro serve`` subprocess on an ephemeral loopback port.

    It runs under ``serve_boot.py``.  Once it has stopped, ``speed``
    holds the service's host-speed samples.
    """

    def __init__(self, state_dir: Path, span_dump: Optional[Path] = None):
        self.speed = HostSpeed()
        self.out_file = state_dir.with_name(state_dir.name + "-boot.json")
        command = [sys.executable, str(SUITE_DIR / "serve_boot.py"),
                   str(self.out_file)]
        if span_dump is not None:
            command += ["--spans", str(span_dump)]
        command += ["serve", "--port", "0", "--state-dir", str(state_dir),
                    "--workers", "2", "--drain-grace", "0",
                    "--cache-size", "4096"]
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                        text=True)
        assert self.process.stdout is not None
        line = self.process.stdout.readline().strip()
        if not line.startswith("serving on http://"):
            self.stop()
            raise RuntimeError(f"server did not announce its port: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def cpu_s(self) -> float:
        """CPU time (user + system) the service process has used so far."""
        with open(f"/proc/{self.process.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        if self.out_file.is_file():
            doc = json.loads(self.out_file.read_text())
            self.speed.samples = [tuple(sample) for sample in doc["speed"]]


class ServeMix(Workload):
    """The service front door under a steady open-loop mix."""

    name = "serve-mix"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        super().__init__(seed, smoke, workdir)
        self.rate = 20.0 if smoke else 40.0
        self.patterns = 1024 if smoke else 4096
        n_primed = 4 if smoke else 32
        self.primed_docs = [
            {"design": DESIGNS[i % len(DESIGNS)],
             "seed": seed_value, "max_patterns": self.patterns}
            for i, seed_value in enumerate(self.draw_seeds(n_primed))
        ]
        self.server: Optional[Server] = None
        self.servers_started = 0
        #: phases run on the current server, each with its window and the
        #: service's CPU seconds in it
        self.pending: List[Tuple[Phase, float, float, float]] = []

    # ---------------------------------------------------------- lifecycle

    def start_server(self, span_dump: Optional[Path] = None) -> None:
        self.servers_started += 1
        state = self.workdir / f"serve-{os.getpid()}-{self.servers_started}"
        self.server = Server(state, span_dump)
        self.prime()

    def setup(self) -> None:
        self.start_server()

    def close(self) -> None:
        """Stop the server, then cost its phases with its sampler's
        samples, which it writes when it stops."""
        if self.server is None:
            return
        server, self.server = self.server, None
        server.stop()
        for phase, start, end, cpu_s in self.pending:
            phase.speed = server.speed
            sampler_s = sum(cost for stamp, cost in server.speed.samples
                            if start <= stamp <= end)
            phase.add(start, end, latency_ms=(cpu_s - sampler_s)
                      / max(1, phase.attempted) * 1e3)
        self.pending = []

    def prime(self) -> None:
        """Submit every primed key and wait for all of them to finish."""
        assert self.server is not None
        client = Client(self.server.port)
        try:
            ids = []
            for doc in self.primed_docs:
                status, body = client.request("POST", "/v1/jobs", doc)
                if status != 202:
                    raise RuntimeError(f"priming {doc}: HTTP {status} {body}")
                ids.append(body["id"])
            docs = wait_finished(client, ids, DRAIN_TIMEOUT)
            self.primed = []
            for job_id in ids:
                status, summary = client.request(
                    "GET", f"/v1/jobs/{job_id}/result")
                if docs.get(job_id, {}).get("state") != "done" or status != 200:
                    raise RuntimeError(f"primed job {job_id} did not finish")
                self.primed.append((job_id, summary))
        finally:
            client.close()

    # ------------------------------------------------------- the schedule

    def schedule(self, seconds: float) -> List[Tuple[float, str, Any]]:
        """Poisson arrivals over ``seconds``: (offset, kind, argument)."""
        block = [kind for kind, share in MIX for _ in range(share)]
        arrivals: List[Tuple[float, str, Any]] = []
        offset = self.rng.expovariate(self.rate)
        kinds: List[str] = []
        designs: List[str] = []
        rejects = 0
        while offset < seconds:
            if not kinds:
                kinds = list(block)
                self.rng.shuffle(kinds)
            kind = kinds.pop()
            if kind == "hit":
                argument: Any = self.rng.randrange(len(self.primed_docs))
            elif kind == "fresh":
                if not designs:
                    designs = list(DESIGNS)
                    self.rng.shuffle(designs)
                argument = (designs.pop(), self.draw_seeds(1)[0])
            elif kind == "reject":
                argument, rejects = rejects, rejects + 1
            else:
                argument = None
            arrivals.append((offset, kind, argument))
            offset += self.rng.expovariate(self.rate)
        return arrivals

    # --------------------------------------------------------- one phase

    def run_phase(self, seconds: float, tracer) -> Phase:
        assert self.server is not None
        port = self.server.port
        arrivals = self.schedule(seconds)
        phase = Phase(attempted=len(arrivals))
        samples: Dict[str, List[float]] = {
            key: [] for key in ("hit", "status", "reject", "submit", "late")}
        fresh: List[Fresh] = []
        lock = threading.Lock()
        cursor = [0]
        cpu_start = self.server.cpu_s()
        origin = time.perf_counter()
        wall_origin = time.time()

        def send(client: Client, offset: float, kind: str, argument: Any) -> None:
            due = origin + offset
            if kind == "hit":
                job_id, summary = self.primed[argument]
                sent = time.perf_counter()
                status, body = client.request("POST", "/v1/jobs",
                                              self.primed_docs[argument])
                submitted = time.perf_counter()
                if status != 202 or not body.get("cached"):
                    raise RuntimeError(f"hit: HTTP {status} {body}")
                status, result = client.request(
                    "GET", f"/v1/jobs/{body['id']}/result")
                if status != 200 or result["n_patterns"] != summary["n_patterns"] \
                        or result["n_detected"] != summary["n_detected"]:
                    raise RuntimeError(f"hit: result HTTP {status} differs "
                                       f"from primed job {job_id}")
                with lock:
                    samples["submit"].append((submitted - sent) * 1e3)
                    samples["hit"].append((time.perf_counter() - due) * 1e3)
            elif kind == "fresh":
                design, seed = argument
                doc = {"design": design, "seed": seed,
                       "max_patterns": self.patterns}
                sent = time.perf_counter()
                status, body = client.request("POST", "/v1/jobs", doc)
                submitted = time.perf_counter()
                if status != 202 or body.get("cached"):
                    raise RuntimeError(f"fresh: HTTP {status} {body}")
                with lock:
                    samples["submit"].append((submitted - sent) * 1e3)
                    fresh.append(Fresh(body["id"], wall_origin + offset,
                                       design, seed))
            elif kind == "status":
                with lock:
                    job_id = fresh[-1].job_id if fresh else self.primed[0][0]
                status, body = client.request("GET", f"/v1/jobs/{job_id}")
                if status != 200:
                    raise RuntimeError(f"status: HTTP {status}")
                with lock:
                    samples["status"].append((time.perf_counter() - due) * 1e3)
            else:
                method, path, body, expected = REJECTS[argument % len(REJECTS)]
                status, _ = client.request(method, path, body)
                if status != expected:
                    raise RuntimeError(f"reject: HTTP {status}, wanted {expected}")
                with lock:
                    samples["reject"].append((time.perf_counter() - due) * 1e3)

        def generator() -> None:
            client = Client(port)
            try:
                while True:
                    with lock:
                        index = cursor[0]
                        cursor[0] += 1
                    if index >= len(arrivals):
                        return
                    offset, kind, argument = arrivals[index]
                    delay = origin + offset - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    with lock:
                        samples["late"].append(
                            max(0.0, time.perf_counter() - origin - offset) * 1e3)
                    try:
                        with tracer.span(f"client.{kind}"):
                            send(client, offset, kind, argument)
                    except (OSError, http.client.HTTPException, RuntimeError,
                            KeyError, ValueError) as error:
                        with lock:
                            phase.fail(f"{kind} at {offset:.3f}s: {error}")
                        client.close()
                        client = Client(port)
            finally:
                client.close()

        threads = [threading.Thread(target=generator) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        client = Client(port)
        try:
            docs = wait_finished(client, [job.job_id for job in fresh],
                                 DRAIN_TIMEOUT)
            end = time.perf_counter()
            self.pending.append((phase, origin, end,
                                 self.server.cpu_s() - cpu_start))
            self.collect(phase, client, fresh, docs, samples, arrivals,
                         wall_origin)
        finally:
            client.close()
        phase.window = (origin, end)
        return phase

    def collect(self, phase: Phase, client: Client, fresh: List["Fresh"],
                docs: Dict[str, Dict], samples: Dict[str, List[float]],
                arrivals, wall_origin: float) -> None:
        """Job latencies, server-side timings, the scrape, and the checks."""
        latency, queue_wait, execute = [], [], []
        for index, job in enumerate(fresh):
            doc = docs.get(job.job_id)
            if doc is None or doc["state"] != "done":
                phase.fail(f"fresh job {job.job_id} ended "
                           f"{doc['state'] if doc else 'unfinished'}")
                continue
            latency.append((doc["finished_at"] - job.due_wall) * 1e3)
            queue_wait.append((doc["started_at"] - doc["submitted_at"]) * 1e3)
            execute.append((doc["finished_at"] - doc["started_at"]) * 1e3)
            if index % FRESH_CHECK_EVERY == 0:
                self.check_result(phase, client, job.job_id, job.design,
                                  job.seed)
        for (job_id, _), doc in zip(self.primed, self.primed_docs):
            self.check_result(phase, client, job_id, doc["design"], doc["seed"])
        status, text = client.request("GET", "/metrics")
        scraped = parse_prometheus_text(text) if status == 200 else {}
        hits = scraped.get("cache_hit", 0.0)
        misses = scraped.get("cache_miss", 0.0)
        finished = [docs[job.job_id]["finished_at"] for job in fresh
                    if job.job_id in docs and docs[job.job_id]["finished_at"]]
        last_due = wall_origin + arrivals[-1][0] if arrivals else wall_origin
        phase.extras.update({
            "serve.submit_p50_ms": percentile(samples["submit"], 0.50),
            "serve.submit_p95_ms": percentile(samples["submit"], 0.95),
            "serve.queue_wait_p50_ms": percentile(queue_wait, 0.50),
            "serve.queue_wait_p95_ms": percentile(queue_wait, 0.95),
            "serve.exec_p50_ms": percentile(execute, 0.50),
            "serve.exec_p95_ms": percentile(execute, 0.95),
            "serve.status_p90_ms": percentile(samples["status"], 0.90),
            "serve.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "serve.jobs_failed": scraped.get("serve_jobs_failed", 0.0),
            "serve.job_p50_ms": percentile(latency, 0.50),
            "serve.job_p95_ms": percentile(latency, 0.95),
            "serve.hit_p50_ms": percentile(samples["hit"], 0.50),
            "serve.hit_p95_ms": percentile(samples["hit"], 0.95),
            "serve.reject_p90_ms": percentile(samples["reject"], 0.90),
            "serve.drain_s": max(0.0, max(finished, default=last_due) - last_due),
            "loadgen.late_p95_ms": percentile(samples["late"], 0.95),
            "loadgen.sent": float(len(samples["late"])),
        })

    def check_result(self, phase: Phase, client: Client, job_id: str,
                     design: str, seed: int) -> None:
        status, payload = client.request(
            "GET", f"/v1/jobs/{job_id}/result?include_faults=1")
        if status != 200:
            phase.fail(f"result of {job_id}: HTTP {status}")
            return
        self.record(phase,
                    self.case_id(design, seed, self.patterns) + "#full",
                    payload_digest(payload),
                    lambda: reference_digest(
                        *build_design(f"{design}_kernel"), seed, self.patterns))

    def run_traced(self, seconds: float, tracer):
        """Untraced half on the plain server, then a traced server.

        The traced server runs under ``serve_boot.py``, which installs the
        same layer wrappers inside the service process and dumps its spans
        on exit; they merge onto this process's timeline for the table.
        """
        tracer.enabled = False
        plain = self.run_phase(seconds / 2, tracer)
        self.close()
        dump = self.workdir / f"server-spans-{os.getpid()}.json"
        setup_start = time.perf_counter()
        self.start_server(span_dump=dump)
        setup_end = time.perf_counter()
        tracer.enabled = True
        traced = self.run_phase(seconds / 2, tracer)
        tracer.enabled = False
        self.close()
        tracer.absorb(str(dump))
        return plain, traced, (setup_start, setup_end)

    def ratio_case(self):
        netlist, faults = build_design("c3a2m_kernel")
        return netlist, faults, self.primed_docs[0]["seed"], self.patterns


def wait_finished(client: Client, job_ids: List[str],
                  timeout: float) -> Dict[str, Dict[str, Any]]:
    """Poll the job list until every job has finished; their status docs.

    One ``GET /v1/jobs`` per sweep: the list carries every job's status
    without the journal-backed progress curve, so polling stays cheap.
    """
    wanted = set(job_ids)
    docs: Dict[str, Dict[str, Any]] = {}
    deadline = time.monotonic() + timeout
    while True:
        status, body = client.request("GET", "/v1/jobs")
        if status == 200:
            docs = {doc["id"]: doc for doc in body["jobs"]
                    if doc["id"] in wanted and doc["state"] in FINISHED}
        if len(docs) == len(wanted) or time.monotonic() > deadline:
            return docs
        time.sleep(0.02)
