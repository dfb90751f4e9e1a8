"""Smaller API corners across packages."""


from repro.experiments.table1 import full_gate_count
from repro.library.kernels import example3_kernel
from repro.results import SessionResult
from repro.tpg.polynomials import PAPER_POLY_12
from repro.tpg.sc_tpg import sc_tpg


def test_version_and_top_level_exports():
    import repro

    assert repro.__version__
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_feedback_taps_match_paper_polynomial():
    design = sc_tpg(example3_kernel(), polynomial=PAPER_POLY_12)
    assert design.feedback_taps() == [3, 4, 7, 12]
    text = design.layout()
    assert "feedback: x^12 + x^7 + x^4 + x^3 + 1" in text
    assert "sr" in text  # L13 is a shift-register stage


def test_full_gate_count_counts_every_block():
    from repro.datapath.filters import c5a2m

    circuit = c5a2m().circuit
    total = full_gate_count(circuit)
    # 5 adders + 2 full multipliers, unpruned.
    assert total > 700


def test_session_result_empty_coverage():
    result = SessionResult(cycles=10, golden_signatures={}, fault_signatures={})
    assert result.coverage == 1.0


def test_rtl_stats_equality():
    from repro.datapath.filters import c3a2m

    a = c3a2m().circuit.stats()
    b = c3a2m().circuit.stats()
    assert a == b
    assert a.n_registers == 21


def test_cli_export_every_builtin(tmp_path):
    from repro.cli import main

    for name in ("c5a2m", "c3a2m", "c4a4m", "figure4", "figure9", "mac4"):
        path = tmp_path / f"{name}.json"
        assert main(["export", name, str(path)]) == 0
        assert path.stat().st_size > 100


def test_lint_surface_exports():
    import repro
    import repro.lint as lint

    # The convenience names are importable from both levels.
    for name in ("Finding", "LintError", "LintReport", "lint_circuit",
                 "lint_netlist", "lint_structure", "lint_testability",
                 "lint_tpg"):
        assert getattr(repro, name) is getattr(lint, name)
    for name in lint.__all__:
        assert getattr(lint, name) is not None
    # The registry holds the documented rule catalog (docs/LINT.md).
    by_family = {"netlist": 0, "structure": 0, "tpg": 0, "testability": 0}
    for r in lint.all_rules():
        by_family[r.target] += 1
    assert by_family == {"netlist": 5, "structure": 5, "tpg": 5,
                         "testability": 4}


def test_lint_report_merge_keeps_target_name():
    from repro.lint import LintReport

    merged = LintReport.merge(
        [LintReport("a"), LintReport("b")], target="combined"
    )
    assert merged.target == "combined"
    assert not merged.has_errors


def test_kernel_spec_from_session_roundtrips_registers():
    from repro.core.bibs import make_bibs_testable
    from repro.datapath.filters import c3a2m
    from repro.graph.build import build_circuit_graph

    circuit = c3a2m().circuit
    design = make_bibs_testable(build_circuit_graph(circuit))
    kernel = design.kernels[0]
    spec = kernel.to_kernel_spec()
    assert {r.name for r in spec.registers} == set(kernel.tpg_registers)
    assert {c.name for c in spec.cones} == set(kernel.sa_registers)
    # c3a2m is balanced: every PI register sits at the same sequential
    # length from the output (the delay chains exist precisely for this),
    # so the TPG needs no compensation FFs at all.
    depths = spec.cones[0].depths
    assert set(depths.values()) == {4}
    from repro.tpg.mc_tpg import mc_tpg

    assert mc_tpg(spec).n_extra_flipflops == 0
