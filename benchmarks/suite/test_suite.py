"""Self-test of the benchmark at smoke sizes: ``pytest benchmarks/suite``.

Checks the benchmark's own contract, not the program's speed: every
declared metric is emitted with its unit and nothing else is, the tail
rule keeps ten samples beyond the percentile it reports, a wrong
reference digest fails the run, and traced spans nest with per-layer self
times adding up to the traced wall time.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(SUITE_DIR)]

import run  # noqa: E402
from stats import tail_percentile  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Scratch space for the tests, inside the checkout and ignored by git.
OUT = ROOT / ".bench_work" / "self-test"
SMOKE_SECONDS = "1.5"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

_runs: dict = {}


def smoke_run(workload: str, trace: int, *extra: str):
    """One smoke invocation, memoised: (process, last-line JSON, --json doc)."""
    key = (workload, trace, extra)
    if key not in _runs:
        out = OUT / f"{workload}-{trace}-{len(_runs)}.json"
        done = subprocess.run(
            [sys.executable, str(SUITE_DIR / "run.py"), "--workload", workload,
             "--smoke", "--seconds", SMOKE_SECONDS, "--trace", str(trace),
             "--json", str(out), *extra],
            capture_output=True, text=True, timeout=170, cwd=ROOT)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        doc = json.loads(out.read_text()) if out.exists() else None
        out.unlink(missing_ok=True)
        _runs[key] = (done, result, doc)
    return _runs[key]


@pytest.fixture(scope="module", autouse=True)
def _scratch():
    OUT.mkdir(parents=True, exist_ok=True)
    yield
    shutil.rmtree(OUT, ignore_errors=True)
    if not any(OUT.parent.iterdir()):
        OUT.parent.rmdir()


def test_benchmark_file_follows_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["benchmarks/suite"]
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    names = [w["name"] for w in BENCHMARK["workloads"]]
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    done, result, _doc = smoke_run(workload, trace)
    assert done.returncode == 0, done.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        if not trace:
            assert entry["value"] > 0, metric["name"]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail_percentile([1.0] * 39) is None
    for size, expected in ((40, 0.75), (99, 0.75), (100, 0.90), (199, 0.90),
                           (200, 0.95), (1000, 0.99)):
        values = [float(v) for v in range(1, size + 1)]
        percentile, value, beyond = tail_percentile(values)
        assert percentile == expected, size
        assert beyond >= 10
        assert sum(1 for v in values if v > value) >= 10


def test_a_corrupted_reference_digest_fails_the_run():
    _done, _result, doc = smoke_run("tail-sweep", 0)
    checks = doc["report"]["checks"]
    corrupt = {check_id: digests[0] for check_id, digests in checks.items()}
    victim = sorted(corrupt)[0]
    corrupt[victim] = "0" * 64
    references = OUT / "corrupt-references.json"
    references.write_text(json.dumps({"digests": corrupt}))
    done, result, _ = smoke_run("tail-sweep", 0, "--references", str(references))
    assert done.returncode != 0
    assert result is not None and result["correct"] is False
    _workload, design, seed, _patterns = victim.split("#")[0].split("/")
    message = done.stderr
    assert "tail-sweep" in message and design in message and seed in message


def test_traced_spans_nest_and_self_times_sum_to_the_traced_wall():
    trace_file = OUT / "trace.json"
    done, result, doc = smoke_run("tail-sweep", 1, "--trace-out", str(trace_file))
    assert done.returncode == 0, done.stderr
    assert doc["report"]["nesting_errors"] == []
    trace = json.loads(trace_file.read_text())
    events = {event["args"]["id"]: event for event in trace["traceEvents"]}
    assert events
    for event in events.values():
        parent = events.get(event["args"]["parent"])
        if parent is not None:
            assert parent["tid"] == event["tid"]
            assert parent["ts"] <= event["ts"] + 1e-3
            assert event["ts"] + event["dur"] <= parent["ts"] + parent["dur"] + 1e-3
    self_total = sum(row["self_s"] for row in trace["layers"].values())
    assert abs(self_total - trace["wall_s"]) <= 0.05 * trace["wall_s"]
    assert result["metrics"]["trace.span_share"]["value"] == pytest.approx(
        self_total / trace["wall_s"], rel=1e-6)


def test_compare_judges_medians_against_the_bound():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert run.judge(base, [v * 1.2 for v in base], 0.1, "lower") == "worse"
    assert run.judge(base, [v * 0.8 for v in base], 0.1, "lower") == "improved"
    assert run.judge(base, [v * 1.02 for v in base], 0.1, "lower") == "unchanged"
    noisy = [50.0, 100.0, 150.0, 100.0, 100.0]
    assert run.judge(noisy, base, 0.1, "lower") == "unresolved"

    def runs(failed=0, correct=True, raw=1.0):
        return {"runs": [{
            "workload": "tail-sweep", "seed": seed, "correct": correct,
            "attempted": 10, "failed": failed,
            "metrics": {m["name"]: {"value": 100.0 + seed % 2, "unit": m["unit"]}
                        for m in BENCHMARK["end_to_end"]},
            "raw": {"op_raw_ms": 100.0 * raw + seed % 2},
        } for seed in range(5)]}

    def compare(base_doc, new_doc):
        base_file, new_file = OUT / "base.json", OUT / "new.json"
        base_file.write_text(json.dumps(base_doc))
        new_file.write_text(json.dumps(new_doc))
        return run.main_compare(str(base_file), str(new_file))

    assert compare(runs(), runs()) == 0
    assert compare(runs(), runs(failed=1)) == 1
    assert compare(runs(failed=1), runs(failed=1)) == 0
    assert compare(runs(), runs(correct=False)) == 1
    assert compare(runs(), runs(raw=1.3)) == 1


def test_a_tree_without_the_program_fails_without_a_result():
    bare = OUT / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(SUITE_DIR, bare / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "table2",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=bare)
    assert done.returncode != 0
    assert not done.stdout.strip()
