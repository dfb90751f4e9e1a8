"""repro.telemetry: tracer nesting, metrics semantics, exporters, manifests,
multiprocess span merging, and the off-by-default contract."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro import telemetry
from repro.engine import FaultInjector, simulate
from repro.exec import RunConfig
from repro.faultsim.collapse import collapse_faults
from repro.faultsim.patterns import RandomPatternSource
from repro.telemetry import export
from repro.telemetry.manifest import RunManifest, config_fingerprint
from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.telemetry.trace import NOOP_SPAN, Tracer
from tests.conftest import make_random_netlist


# ---------------------------------------------------------------- the tracer


def test_nested_spans_record_parent_ids_in_order(tele):
    with telemetry.span("outer", level=0) as outer:
        with telemetry.span("middle") as middle:
            with telemetry.span("inner"):
                pass
        outer.set_attribute("post", True)
    records = tele.tracer.snapshot()
    assert [r.name for r in records] == ["inner", "middle", "outer"]
    inner, middle_rec, outer_rec = records
    assert outer_rec.parent_id is None
    assert middle_rec.parent_id == outer_rec.span_id
    assert inner.parent_id == middle_rec.span_id
    assert outer_rec.attributes == {"level": 0, "post": True}
    # The parent's window contains the child's.
    assert outer_rec.ts <= middle_rec.ts <= inner.ts
    assert outer_rec.duration >= middle_rec.duration >= inner.duration >= 0.0


def test_sibling_spans_share_a_parent(tele):
    with telemetry.span("parent"):
        with telemetry.span("first"):
            pass
        with telemetry.span("second"):
            pass
    records = {r.name: r for r in tele.tracer.snapshot()}
    assert records["first"].parent_id == records["parent"].span_id
    assert records["second"].parent_id == records["parent"].span_id


def test_traced_decorator_spans_the_callable(tele):
    @telemetry.traced("decorated.work", flavor="test")
    def work(x):
        return x + 1

    assert work(1) == 2
    (record,) = tele.tracer.snapshot()
    assert record.name == "decorated.work"
    assert record.attributes == {"flavor": "test"}


def test_tracer_buffer_bound_counts_drops():
    tracer = Tracer(max_records=2)
    tracer.enabled = True
    for _ in range(4):
        with tracer.span("s"):
            pass
    assert len(tracer.snapshot()) == 2
    assert tracer.dropped == 2


def test_drain_and_absorb_round_trip(tele):
    with telemetry.span("shipped"):
        pass
    records = tele.tracer.drain()
    assert tele.tracer.snapshot() == []
    tele.tracer.absorb(records)
    assert [r.name for r in tele.tracer.snapshot()] == ["shipped"]


# -------------------------------------------------------- disabled no-op path


def test_disabled_telemetry_is_inert():
    instance = telemetry.get_telemetry()
    assert not instance.enabled  # the suite-wide default
    assert telemetry.span("anything", k=1) is NOOP_SPAN
    with telemetry.span("nested") as span:
        span.set_attribute("ignored", True)
        with telemetry.span("inner"):
            pass
    telemetry.count("nothing")
    telemetry.gauge_set("nothing", 1)
    telemetry.observe("nothing", 1.0)
    assert instance.tracer.snapshot() == []
    snap = instance.metrics.snapshot()
    assert snap == {"counters": {}, "gauges": {}, "histograms": {}}


def test_disabled_simulate_records_nothing():
    netlist = make_random_netlist(5, 20, seed=11)
    instance = telemetry.get_telemetry()
    instance.reset()
    simulate(
        netlist, None, RandomPatternSource(5, seed=2),
        config=RunConfig(max_patterns=32).with_execution(
            jobs=1, batch_width=16,
        ),
    )
    assert instance.tracer.snapshot() == []
    assert instance.metrics.snapshot()["counters"] == {}


# ------------------------------------------------------------------- metrics


def test_counter_rejects_negative_increment():
    registry = MetricsRegistry()
    counter = registry.counter("c")
    counter.inc(2)
    counter.inc(0)
    with pytest.raises(ValueError):
        counter.inc(-1)
    assert counter.value == 2


def test_registry_rejects_cross_type_name_reuse():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ValueError):
        registry.gauge("x")
    with pytest.raises(ValueError):
        registry.histogram("x")


def test_histogram_rejects_unsorted_boundaries():
    with pytest.raises(ValueError):
        Histogram("h", boundaries=(1.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        Histogram("h", boundaries=(2.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("h", boundaries=())


def test_histogram_bucket_edges_use_le_semantics():
    histogram = Histogram("h", boundaries=(1.0, 10.0, 100.0))
    for value in (0.5, 1.0, 1.5, 10.0, 99.9, 100.0, 100.1):
        histogram.observe(value)
    # le semantics: a value equal to a boundary counts in that bucket.
    assert histogram.cumulative_buckets() == [
        (1.0, 2),      # 0.5, 1.0
        (10.0, 4),     # + 1.5, 10.0
        (100.0, 6),    # + 99.9, 100.0
        ("+Inf", 7),   # everything, including 100.1
    ]
    assert histogram.count == 7
    assert histogram.sum == pytest.approx(0.5 + 1.0 + 1.5 + 10.0
                                          + 99.9 + 100.0 + 100.1)


# ----------------------------------------------------------------- exporters


def test_prometheus_text_escaping_and_round_trip():
    registry = MetricsRegistry()
    registry.counter("engine.rounds", help='back\\slash and\nnewline').inc(3)
    registry.gauge("queue.depth").set(1.5)
    registry.histogram("lat", boundaries=(0.5, 2.0)).observe(0.5)
    text = export.to_prometheus_text(registry.snapshot(),
                                     registry.help_texts())
    # Dotted names sanitized, HELP escaped per the exposition format.
    assert "# HELP engine_rounds back\\\\slash and\\nnewline" in text
    assert "# TYPE engine_rounds counter" in text
    assert "engine_rounds 3" in text
    assert 'lat_bucket{le="0.5"} 1' in text
    assert 'lat_bucket{le="+Inf"} 1' in text
    samples = export.parse_prometheus_text(text)
    assert samples["engine_rounds"] == 3.0
    assert samples["queue_depth"] == 1.5
    assert samples['lat_bucket{le="0.5"}'] == 1.0
    assert samples["lat_count"] == 1.0


def test_escape_label_value_handles_quotes():
    assert export.escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'


@pytest.mark.parametrize("bad", [
    "not a metric line",
    "# BOGUS comment kind",
    "name_only",
    "",
])
def test_parse_prometheus_text_rejects_malformed(bad):
    with pytest.raises(ValueError):
        export.parse_prometheus_text(bad)


def test_chrome_trace_events_are_valid_and_rebased(tele):
    with telemetry.span("a", tag=1):
        with telemetry.span("b"):
            pass
    payload = export.to_chrome_trace(tele.tracer.snapshot(),
                                     other_data={"note": "x"})
    assert export.validate_chrome_trace(payload) == []
    events = payload["traceEvents"]
    metadata = [e for e in events if e["ph"] == "M"]
    spans = [e for e in events if e["ph"] == "X"]
    assert len(metadata) == 1 and metadata[0]["name"] == "process_name"
    assert len(spans) == 2
    for event in spans:
        assert event["ts"] >= 0.0 and event["dur"] >= 0.0
        assert event["pid"] == os.getpid()
        assert isinstance(event["tid"], int)
    # Rebased: the earliest span starts the trace at ts == 0.
    assert min(e["ts"] for e in spans) == 0.0
    assert payload["otherData"] == {"note": "x"}


def test_validate_chrome_trace_flags_structural_problems():
    assert export.validate_chrome_trace([]) == ["top level is not an object"]
    assert export.validate_chrome_trace({}) == [
        "traceEvents missing or not a list"
    ]
    errors = export.validate_chrome_trace({"traceEvents": [
        {"ph": "X", "name": "ok", "ts": -1, "dur": 0, "pid": 1, "tid": 1},
        {"name": "no-phase"},
    ]})
    assert any("ts" in error for error in errors)
    assert any("missing ph" in error for error in errors)


# ------------------------------------------------------------ run manifests


def test_config_fingerprint_is_order_independent():
    assert (config_fingerprint({"a": 1, "b": 2})
            == config_fingerprint({"b": 2, "a": 1}))
    assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})


def test_manifest_round_trip(tmp_path, tele):
    with telemetry.span("work"):
        telemetry.count("engine.rounds", 2)
    manifest = RunManifest.collect(
        config={"jobs": 2, "circuit": "tiny"},
        shards=[{"shard": 0}],
        extra={"note": "round trip"},
    )
    path = tmp_path / "manifest.json"
    manifest.write(path)
    loaded = RunManifest.from_json(json.loads(path.read_text()))
    assert loaded.fingerprint == manifest.fingerprint
    assert loaded.config == {"jobs": 2, "circuit": "tiny"}
    assert [s["name"] for s in loaded.spans] == ["work"]
    assert loaded.metrics["counters"]["engine.rounds"] == 2
    assert loaded.shards == [{"shard": 0}]
    assert loaded.extra == {"note": "round trip"}
    with pytest.raises(ValueError):
        RunManifest.from_json({"kind": "something-else"})


# ----------------------------------------- engine integration & multiprocess


def test_engine_publishes_metrics_from_shard_stats(tele):
    netlist = make_random_netlist(5, 30, seed=4)
    faults, _ = collapse_faults(netlist)
    result = simulate(
        netlist, faults, RandomPatternSource(5, seed=7),
        config=RunConfig(max_patterns=64).with_execution(
            jobs=1, batch_width=16,
        ),
    )
    counters = tele.metrics.snapshot()["counters"]
    # Derived once per run from the summed ShardStats — the single source
    # of truth — so registry and result must agree exactly.
    assert counters["engine.runs"] == 1
    assert counters["engine.patterns_simulated"] == sum(
        s.patterns_simulated for s in result.shards
    )
    assert counters["faultsim.events_propagated"] == result.events_propagated
    assert counters["engine.faults_dropped"] == sum(
        s.faults_dropped for s in result.shards
    )
    assert counters["engine.rounds"] >= 1
    histogram = tele.metrics.snapshot()["histograms"]["patterns_per_second"]
    assert histogram["count"] == sum(
        1 for s in result.shards if s.wall_time > 0.0
    )


def test_parallel_run_merges_worker_spans(tele):
    netlist = make_random_netlist(6, 40, seed=9)
    # Shard 0 is dispatched first and held in its worker, so shard 1
    # must run in the other one: an idle worker could take both units.
    result = simulate(
        netlist, None, RandomPatternSource(6, seed=5),
        config=RunConfig(
            max_patterns=64,
            chaos=FaultInjector.parse("delay:0:seconds=0.2"),
        ).with_execution(jobs=2, batch_width=16),
    )
    assert result.jobs == 2
    spans = tele.tracer.snapshot()
    names = {record.name for record in spans}
    assert {"engine.simulate", "engine.round", "engine.merge",
            "engine.shard_round"} <= names
    shard_rounds = [r for r in spans if r.name == "engine.shard_round"]
    pids = {record.pid for record in shard_rounds}
    # Worker spans were drained in the children and absorbed at shard join.
    assert len(pids) == 2
    assert os.getpid() not in pids
    # The merged buffer still exports as one loadable trace.
    assert export.validate_chrome_trace(export.to_chrome_trace(spans)) == []


def test_tracing_on_preserves_bit_identical_equivalence(tele):
    netlist = make_random_netlist(6, 40, seed=21)
    source = lambda: RandomPatternSource(6, seed=13)  # noqa: E731
    config = RunConfig(max_patterns=128).with_execution(batch_width=16)
    serial = simulate(netlist, None, source(),
                      config=config.with_execution(jobs=1))
    parallel = simulate(netlist, None, source(),
                        config=config.with_execution(jobs=3))
    assert parallel.first_detection == serial.first_detection
    assert parallel.n_patterns == serial.n_patterns


def test_write_trace_and_metrics_files(tmp_path, tele):
    netlist = make_random_netlist(5, 20, seed=3)
    result = simulate(
        netlist, None, RandomPatternSource(5, seed=2),
        config=RunConfig(max_patterns=32).with_execution(
            jobs=1, batch_width=16,
        ),
    )
    manifest = RunManifest.collect(
        config={"test": True},
        shards=[s.to_json() for s in result.shards],
    )
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.prom"
    export.write_trace(trace_path, manifest=manifest)
    export.write_metrics(metrics_path)
    trace = json.loads(trace_path.read_text())
    assert export.validate_chrome_trace(trace) == []
    assert trace["otherData"]["manifest"]["config"] == {"test": True}
    assert "spans" not in trace["otherData"]["manifest"]
    samples = export.parse_prometheus_text(metrics_path.read_text())
    assert samples["engine_runs"] == 1.0


def test_env_var_enables_telemetry_in_fresh_process(tmp_path):
    script = (
        "from repro import telemetry\n"
        "assert telemetry.enabled()\n"
        "print('enabled')\n"
    )
    env = dict(os.environ, REPRO_TELEMETRY="1")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    process = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert process.returncode == 0, process.stderr
    assert "enabled" in process.stdout


def test_benchmark_record_script(tmp_path):
    script = os.path.join(
        os.path.dirname(__file__), os.pardir, "benchmarks", "record.py"
    )
    out = tmp_path / "BENCH_engine.json"
    process = subprocess.run(
        [sys.executable, os.path.abspath(script), "--out", str(out),
         "--scenarios", "c3a2m_kernel,mac4_kernel",
         "--jobs", "1,2", "--max-patterns", "256", "--quiet"],
        capture_output=True, text=True, timeout=300,
    )
    assert process.returncode == 0, process.stderr
    payload = json.loads(out.read_text())
    assert payload["kind"] == "bench-engine"
    assert payload["version"] == 3
    cells = {
        (entry["scenario"], entry["kernel"], entry["jobs"],
         entry["executor"])
        for entry in payload["entries"]
    }
    for scenario in ("c3a2m_kernel", "mac4_kernel"):
        for kernel in ("packed", "vec"):
            assert (scenario, kernel, 1, "serial") in cells
            for executor in ("serial", "process"):
                assert (scenario, kernel, 2, executor) in cells
    for entry in payload["entries"]:
        assert entry["wall_time"] > 0.0
        assert entry["patterns_per_second"] > 0.0
