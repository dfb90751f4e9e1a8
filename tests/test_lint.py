"""The static design-rule checker: rules, reports, baselines, pre-flight."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.core as engine_core
from repro.engine import simulate
from repro.errors import LintError
from repro.exec import RunConfig
from repro.faultsim import RandomPatternSource
from repro.lint import (
    Finding,
    LintReport,
    Severity,
    all_rules,
    baseline_entries,
    lint_netlist,
    lint_structure,
    lint_testability,
    lint_tpg,
    load_baseline,
    rules_for,
    write_baseline,
)
from repro.lint.registry import get_rule

from tests.conftest import make_random_netlist, tiny_and_or
from tests.fixtures.lint import CLEAN, POSITIVE, cyclic_netlist

ALL_RULE_IDS = sorted(POSITIVE)


def run_family(rule_id, obj):
    target = get_rule(rule_id).target
    if target == "netlist":
        return lint_netlist(obj)
    if target == "structure":
        return lint_structure(**obj)
    if target == "testability":
        return lint_testability(obj)
    return lint_tpg(obj)


# ------------------------------------------------------------------ registry


def test_registry_families_and_titles():
    rules = all_rules()
    assert [r.id for r in rules] == ALL_RULE_IDS
    assert len({r.id for r in rules}) == len(rules)
    for r in rules:
        assert r.target in ("netlist", "structure", "tpg", "testability")
        assert r.title, f"{r.id} needs a docstring title"
    assert {r.id for r in rules_for("netlist")} == {
        i for i in ALL_RULE_IDS if i.startswith("NL")
    }


# ---------------------------------------------------------- per-rule fixtures


@pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
def test_rule_fires_on_positive_fixture(rule_id):
    report = run_family(rule_id, POSITIVE[rule_id]())
    fired = [f for f in report.findings if f.rule == rule_id]
    assert fired, f"{rule_id} missed its positive fixture"
    for finding in fired:
        assert finding.severity is get_rule(rule_id).severity
        assert finding.witness, f"{rule_id} must carry a witness"
        # The witness must survive the machine-readable path.
        json.dumps(finding.to_json(report.target), default=str)


@pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
def test_rule_silent_on_clean_fixture(rule_id):
    report = run_family(rule_id, CLEAN[rule_id]())
    assert not [f for f in report.findings if f.rule == rule_id]


def test_testability_family_is_advisory_not_preflight():
    """TB rules forecast coverage; they must not block the engine the way
    the structural netlist family does."""
    from repro.lint import preflight_netlist
    from tests.fixtures.lint import resistant_and_tree_netlist

    netlist = resistant_and_tree_netlist()
    # The same netlist trips TB001/TB003 under lint_testability...
    report = lint_testability(netlist)
    assert {f.rule for f in report.findings} >= {"TB001", "TB003"}
    assert not report.has_errors  # advisory severities only
    # ...but sails through the structural pre-flight untouched.
    clean = preflight_netlist(netlist)
    assert not any(f.rule.startswith("TB") for f in clean.findings)


def test_lint_testability_reuses_supplied_profile():
    from repro.analysis import analyze_netlist

    netlist = tiny_and_or()
    profile = analyze_netlist(netlist)
    report = lint_testability(netlist, profile=profile, name="custom")
    assert report.target == "custom"
    assert not report.findings


def test_cycle_witness_names_the_actual_loop():
    report = lint_netlist(cyclic_netlist())
    [finding] = [f for f in report.findings if f.rule == "NL001"]
    assert set(finding.witness["cycle_nets"]) == {"x", "loop"}


# ------------------------------------------------------------------- reports


def test_report_renders_and_roundtrips():
    report = lint_netlist(POSITIVE["NL002"]())
    text = report.render_text()
    assert "NL002" in text and "error" in text
    doc = report.to_json()
    assert doc["kind"] == "lint-report"
    assert doc["counts"]["error"] == len(report.errors)
    fingerprints = {f["fingerprint"] for f in doc["findings"]}
    assert len(fingerprints) == len(doc["findings"])


def test_severity_filter_and_ordering():
    findings = [
        Finding("ZZ", Severity.INFO, "a", "info finding"),
        Finding("AA", Severity.ERROR, "b", "error finding"),
    ]
    report = LintReport("t", findings)
    assert [f.rule for f in report.findings] == ["AA", "ZZ"]  # errors first
    assert [f.rule for f in report.filtered("error").findings] == ["AA"]
    assert report.filtered("info").counts() == {
        "error": 1, "warning": 0, "info": 1,
    }


def test_fingerprint_ignores_message_but_not_location():
    a = Finding("NL001", Severity.ERROR, "net:x", "one wording")
    b = Finding("NL001", Severity.ERROR, "net:x", "another wording")
    c = Finding("NL001", Severity.ERROR, "net:y", "one wording")
    assert a.fingerprint("t") == b.fingerprint("t")
    assert a.fingerprint("t") != c.fingerprint("t")
    assert a.fingerprint("t") != a.fingerprint("other-target")


def test_baseline_roundtrip_suppresses_known_findings(tmp_path):
    report = lint_netlist(POSITIVE["NL003"]())
    assert report.has_errors
    path = tmp_path / "baseline.json"
    count = write_baseline(str(path), [report])
    assert count == len(baseline_entries([report]))
    suppressed = report.apply_baseline(load_baseline(str(path)))
    assert not suppressed.findings
    assert len(suppressed.suppressed) == len(report.findings)
    # A new finding at a different location is NOT suppressed.
    fresh = lint_netlist(POSITIVE["NL002"]())
    still = fresh.apply_baseline(load_baseline(str(path)))
    assert still.has_errors


def test_load_baseline_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "something-else"}')
    with pytest.raises(ValueError):
        load_baseline(str(path))


# ------------------------------------------------------------------ property


@settings(deadline=None)
@given(
    n_inputs=st.integers(min_value=2, max_value=6),
    n_gates=st.integers(min_value=1, max_value=24),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_builder_made_netlists_never_have_error_findings(
    n_inputs, n_gates, seed
):
    """Anything the public builder API constructs is lint-clean: the error
    rules exactly characterize what ``add_gate``/``validate`` make
    unconstructable."""
    netlist = make_random_netlist(n_inputs, n_gates, seed)
    report = lint_netlist(netlist)
    assert not report.errors, [f.render() for f in report.errors]


# ----------------------------------------------------------------- pre-flight


def test_simulate_check_rejects_cyclic_netlist_before_spawning(monkeypatch):
    """The pre-flight must raise with the cycle as a witness before any
    round driver (and hence any shard process) is even constructed — at
    one shard as at two, since every run goes through ``RoundDriver``."""

    def explode(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("round driver created despite lint failure")

    monkeypatch.setattr(engine_core, "RoundDriver", explode)
    netlist = cyclic_netlist()
    for jobs in (1, 2):
        with pytest.raises(LintError) as excinfo:
            simulate(netlist, None, RandomPatternSource(1, seed=1),
                     config=RunConfig(max_patterns=4).with_execution(
                         jobs=jobs))
        error = excinfo.value
        assert any(f.rule == "NL001" for f in error.findings)
        [cycle_finding] = [f for f in error.findings if f.rule == "NL001"]
        assert set(cycle_finding.witness["cycle_nets"]) == {"x", "loop"}


def test_simulate_check_false_is_bit_identical():
    netlist = tiny_and_or()
    source = RandomPatternSource(len(netlist.primary_inputs), seed=7)
    checked = simulate(netlist, None, source,
                       config=RunConfig(max_patterns=64))
    unchecked = simulate(
        netlist, None,
        RandomPatternSource(len(netlist.primary_inputs), seed=7),
        config=RunConfig(max_patterns=64, check=False),
    )
    assert checked.detected == unchecked.detected
    assert checked.coverage() == unchecked.coverage()
    assert checked.n_patterns == unchecked.n_patterns


def test_session_check_rejects_reducible_polynomial():
    from repro.bist.session import BISTSession
    from repro.core.bibs import make_bibs_testable
    from repro.datapath.compiler import Add, Mul, Var, compile_datapath
    from repro.graph.build import build_circuit_graph
    from repro.tpg.mc_tpg import mc_tpg

    circuit = compile_datapath(
        [("o", Add(Mul(Var("a"), Var("b")), Var("c")))], "mac2", width=2
    ).circuit
    graph = build_circuit_graph(circuit)
    kernel = next(
        k for k in make_bibs_testable(graph).kernels if k.logic_blocks
    )
    bad = mc_tpg(kernel.to_kernel_spec(), polynomial=0b10101)
    with pytest.raises(LintError) as excinfo:
        BISTSession(circuit, kernel, tpg=bad)
    assert any(f.rule.startswith("TP") for f in excinfo.value.findings)
    # The escape hatch still constructs (results identical by definition:
    # lint never touches the session state).
    session = BISTSession(circuit, kernel, tpg=bad, check=False)
    assert session.tpg is bad
