"""The ``python -m repro`` command-line interface."""

import subprocess
import sys

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def mac4_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "mac4.json"
    assert main(["export", "mac4", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def figure4_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "figure4.json"
    assert main(["export", "figure4", str(path)]) == 0
    return str(path)


def test_analyze(capsys, mac4_json):
    assert main(["analyze", mac4_json]) == 0
    out = capsys.readouterr().out
    assert "balanced" in out and "True" in out
    assert "k-step functionally testable" in out


def test_analyze_unbalanced_reports_witness(capsys, figure4_json):
    assert main(["analyze", figure4_json]) == 0
    out = capsys.readouterr().out
    assert "worst imbalance" in out


def test_analyze_scenario_testability(capsys):
    import json

    assert main(["analyze", "figure9", "--patterns", "512", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "analyze-testability"
    assert payload["profile"]["window"] == 512
    assert 0.9 < payload["profile"]["predicted_coverage"] < 1.0
    assert payload["profile"]["n_undetectable"] > 0
    assert payload["hardest_nets"]
    assert payload["lint"]["kind"] == "lint-report"
    assert any(f["rule"] == "TB004"
               for f in payload["lint"]["findings"])


def test_analyze_bench_testability(capsys, tmp_path):
    import json

    bench = tmp_path / "tree.bench"
    inputs = [f"i{k}" for k in range(4)]
    bench.write_text("\n".join([
        *(f"INPUT({name})" for name in inputs),
        "OUTPUT(y)",
        f"y = AND({', '.join(inputs)})",
        "",
    ]))
    # y s-a-0 needs all four inputs high: p = 1/16 < 1/8, so the fault
    # lands in the resistant ranking for an 8-pattern window.
    assert main(["analyze", str(bench), "--patterns", "8", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "analyze-testability"
    assert payload["profile"]["n_resistant"] >= 1
    hardest = payload["profile"]["resistant"][0]
    assert hardest["detection_probability"] <= 1 / 16


def test_analyze_rejects_unknown_target(capsys):
    assert main(["analyze", "nonsense"]) == 2
    assert "unknown analyze target" in capsys.readouterr().err


def test_bibs(capsys, mac4_json):
    assert main(["bibs", mac4_json, "--compare-ka"]) == 0
    out = capsys.readouterr().out
    assert "BILBO registers" in out
    assert "KA-85 for contrast" in out


def test_bibs_exact_method(capsys, figure4_json):
    assert main(["bibs", figure4_json, "--method", "exact"]) == 0
    out = capsys.readouterr().out
    assert "R3" in out and "R9" in out


def test_tpg(capsys, mac4_json):
    assert main(["tpg", mac4_json]) == 0
    out = capsys.readouterr().out
    assert "M = 12" in out
    assert "[OK]" in out or "skipping" in out


def test_tpg_kernel_out_of_range(capsys, mac4_json):
    assert main(["tpg", mac4_json, "--kernel", "9"]) == 2


def test_selftest(capsys, mac4_json):
    assert main(["selftest", mac4_json, "--cycles", "300",
                 "--max-faults", "30"]) == 0
    out = capsys.readouterr().out
    assert "golden signature" in out


def test_selftest_analyze_preflight(capsys, mac4_json):
    import json

    assert main(["selftest", mac4_json, "--cycles", "300",
                 "--max-faults", "30", "--jobs", "1", "--analyze",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    block = payload["pattern_coverage"]["testability"]
    assert block["window"] == 300
    assert 0.0 <= block["measured_coverage"] <= 1.0
    assert block["delta"] == pytest.approx(
        block["predicted_coverage"] - block["measured_coverage"])


def test_selftest_analyze_progress_line(capsys, mac4_json):
    assert main(["selftest", mac4_json, "--cycles", "300",
                 "--max-faults", "30", "--jobs", "1", "--analyze"]) == 0
    assert "static prediction" in capsys.readouterr().out


def test_selftest_without_gate_behaviour(capsys, figure4_json):
    assert main(["selftest", figure4_json]) == 2
    err = capsys.readouterr().err
    assert "gate expander" in err


def test_selftest_rejects_retired_thread_executor(capsys, mac4_json):
    with pytest.raises(SystemExit) as excinfo:
        main(["selftest", mac4_json, "--executor", "thread"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'thread'" in capsys.readouterr().err


def test_selftest_rejects_retired_remote_executor(capsys, mac4_json):
    with pytest.raises(SystemExit) as excinfo:
        main(["selftest", mac4_json, "--executor", "remote"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'remote'" in capsys.readouterr().err


def test_retired_worker_subcommand_is_refused(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["worker", "--listen", "127.0.0.1:0"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'worker'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["remote", "quantum"])
@pytest.mark.parametrize("command", ["selftest", "serve"])
def test_bad_executor_env_is_a_one_line_usage_error(
        capsys, monkeypatch, mac4_json, command, value):
    """A ``$REPRO_ENGINE_EXECUTOR`` naming no backend stops the command
    before any work, the way ``--executor`` does: exit 2, one line."""
    monkeypatch.setenv("REPRO_ENGINE_EXECUTOR", value)
    argv = {
        "selftest": ["selftest", mac4_json, "--jobs", "2"],
        "serve": ["serve", "--port", "0", "--quiet"],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: $REPRO_ENGINE_EXECUTOR={value!r} names no execution "
        "backend (available: process, serial)"
    ]


@pytest.mark.parametrize("text, reason", [
    (None, "No such file or directory"),
    ("[1, 2]", "circuit document must be a JSON object, not list"),
    ('{"schema": 1}', "circuit document is missing key 'name'"),
])
@pytest.mark.parametrize("command", ["analyze", "bibs", "tpg", "selftest"])
def test_bad_circuit_file_is_a_one_line_error(
        capsys, tmp_path, command, text, reason):
    path = tmp_path / "circuit.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(SystemExit) as excinfo:
        main([command, str(path)])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: cannot load circuit {path}: ")
    assert reason in line


def test_module_entry_point(tmp_path):
    path = tmp_path / "c.json"
    process = subprocess.run(
        [sys.executable, "-m", "repro", "export", "mac4", str(path)],
        capture_output=True, text=True,
    )
    assert process.returncode == 0
    assert path.exists()


# ------------------------------------------------------------ lint surface


def test_lint_builtin_targets_clean(capsys):
    assert main(["lint", "figure4", "c17"]) == 0
    out = capsys.readouterr().out
    assert "lint figure4" in out and "clean" in out


def test_lint_forced_bad_cut_fails_with_witness(capsys):
    import json

    assert main(["lint", "figure4", "--bilbo", "R1,R6", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "lint" and payload["n_errors"] > 0
    findings = [f for r in payload["reports"] for f in r["findings"]]
    assert {f["rule"] for f in findings} == {"ST002"}
    assert all(f["witness"] for f in findings)


def test_lint_forced_bad_polynomial_fails(capsys):
    assert main(["lint", "mac4", "--polynomial", "0b10101"]) == 1
    out = capsys.readouterr().out
    assert "TP001" in out and "reducible" in out


def test_lint_baseline_workflow(capsys, tmp_path):
    baseline = tmp_path / "bl.json"
    assert main(["lint", "figure4", "--bilbo", "R1,R6",
                 "--baseline", str(baseline), "--update-baseline"]) == 0
    capsys.readouterr()
    assert main(["lint", "figure4", "--bilbo", "R1,R6",
                 "--baseline", str(baseline)]) == 0
    assert "baselined" in capsys.readouterr().out


def test_lint_bench_file(capsys, tmp_path):
    bench = tmp_path / "broken.bench"
    bench.write_text("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n")
    assert main(["lint", str(bench)]) == 1
    assert "NL002" in capsys.readouterr().out


def test_lint_bench_update_baseline_roundtrip(capsys, tmp_path):
    """The .bench upload path supports the same baseline workflow as the
    built-in targets: record, suppress, and stay target-scoped."""
    bench = tmp_path / "broken.bench"
    bench.write_text("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n")
    baseline = tmp_path / "bl.json"
    assert main(["lint", str(bench), "--baseline", str(baseline),
                 "--update-baseline"]) == 0
    capsys.readouterr()
    assert main(["lint", str(bench), "--baseline", str(baseline)]) == 0
    assert "baselined" in capsys.readouterr().out
    # A different netlist does not inherit the suppression.
    other = tmp_path / "other.bench"
    other.write_text("INPUT(a)\nOUTPUT(z)\nz = AND(a, ghost)\n")
    assert main(["lint", str(other), "--baseline", str(baseline)]) == 1


def test_lint_rejects_unknown_target(capsys):
    assert main(["lint", "nonsense"]) == 2
    assert "unknown lint target" in capsys.readouterr().err


def test_lint_listed_in_module_help():
    process = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        capture_output=True, text=True,
    )
    assert process.returncode == 0
    assert "lint" in process.stdout


# ------------------------------------------------------- telemetry surface


def _reset_global_telemetry():
    from repro import telemetry

    instance = telemetry.get_telemetry()
    instance.reset()
    instance.disable()


def test_selftest_writes_validatable_telemetry_artifacts(
    capsys, tmp_path, mac4_json
):
    import json

    trace_path = tmp_path / "t.json"
    metrics_path = tmp_path / "m.prom"
    try:
        assert main(["selftest", mac4_json, "--cycles", "300",
                     "--max-faults", "30", "--jobs", "2",
                     "--trace-out", str(trace_path),
                     "--metrics-out", str(metrics_path)]) == 0
    finally:
        _reset_global_telemetry()
    out = capsys.readouterr().out
    assert "wrote trace" in out and "wrote metrics" in out

    # Both artifacts validate through the same path CI uses.
    assert main(["telemetry", "view", str(trace_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["format"] == "chrome-trace"
    assert payload["valid"] and not payload["errors"]
    assert payload["manifest"] is True
    assert "engine.simulate" in payload["span_names"]

    assert main(["telemetry", "view", str(metrics_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["format"] == "prometheus"
    assert payload["valid"]
    assert payload["samples"]["engine_runs"] >= 1


def test_selftest_quiet_suppresses_progress(capsys, mac4_json):
    assert main(["selftest", mac4_json, "--cycles", "300",
                 "--max-faults", "30", "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_telemetry_view_manifest(capsys, tmp_path):
    import json

    from repro.telemetry.manifest import RunManifest

    path = tmp_path / "manifest.json"
    RunManifest.collect(config={"k": 1}).write(path)
    assert main(["telemetry", "view", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["format"] == "run-manifest"
    assert payload["valid"]


def test_telemetry_view_rejects_malformed(capsys, tmp_path):
    bad = tmp_path / "bad.prom"
    bad.write_text("this is not } a metric\n")
    assert main(["telemetry", "view", str(bad)]) == 1
    import json

    payload = json.loads(capsys.readouterr().out)
    assert not payload["valid"] and payload["errors"]

    missing = tmp_path / "missing.json"
    assert main(["telemetry", "view", str(missing)]) == 2

    quiet_bad = tmp_path / "bad2.json"
    quiet_bad.write_text('{"neither": "trace nor manifest"}')
    assert main(["telemetry", "view", str(quiet_bad), "--quiet"]) == 1
    assert capsys.readouterr().out == ""
