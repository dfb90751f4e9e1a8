"""Experiment harness: tables and per-figure reports."""

import pytest

from repro.experiments.figures import (
    example1_report,
    figure3_report,
    figure9_report,
    figures_1_2_report,
    pseudo_exhaustive_report,
    tpg_examples_report,
)
from repro.experiments.render import fmt, render_table
from repro.experiments.table1 import render_table1, table1_rows
from repro.experiments.table2 import (
    PAPER_TABLE2,
    Table2Column,
    measure_circuit,
    render_table2,
    table2_columns,
)


def test_render_table_alignment():
    text = render_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[2] and "bb" in lines[2]
    assert len({len(l) for l in lines[2:]}) <= 2  # header/sep/rows aligned


def test_fmt():
    assert fmt(None) == "-"
    assert fmt(3) == "3"
    assert fmt(0.12345) == "0.123"


def test_table1_rows():
    rows = table1_rows()
    by_name = {r.name: r for r in rows}
    assert set(by_name) == {"c5a2m", "c3a2m", "c4a4m"}
    assert by_name["c5a2m"].n_adders == 5
    assert by_name["c4a4m"].n_multipliers == 4
    # c4a4m is the biggest circuit, as in the paper (4096 gates there).
    assert by_name["c4a4m"].n_gates > by_name["c5a2m"].n_gates
    assert by_name["c4a4m"].n_gates > by_name["c3a2m"].n_gates
    for row in rows:
        assert row.n_observable_gates <= row.n_gates
        assert row.n_gates > 500
    text = render_table1(rows)
    assert "c3a2m" in text


def test_figures_1_2_report():
    report = figures_1_2_report()
    assert report["figure1"] == {"balanced": False, "k_step": 2}
    assert report["figure2"] == {"balanced": True, "k_step": 1}


def test_figure3_report():
    report = figure3_report()
    assert report["cycles"] == [["F", "H"]] or report["cycles"] == [["H", "F"]]
    assert len(report["fanout_vertices"]) == 1
    assert len(report["vacuous_vertices"]) == 1
    assert report["n_register_edges"] == 9
    assert report["fo1_to_h_witness"] is not None


def test_example1_report():
    report = example1_report()
    assert report["scan_registers"] == ["R3", "R9"]
    assert report["n_bibs_registers"] == 6
    assert report["n_kernels"] == 2
    assert report["n_sessions"] == 2


def test_figure9_report():
    report = figure9_report()
    assert report["bibs"]["registers"] == 8
    assert report["bibs"]["flipflops"] == 43
    assert report["ka"]["registers"] == 10
    assert report["ka"]["flipflops"] == 52
    assert report["bibs"]["sessions"] == 2
    assert report["ka"]["sessions"] == 2


def test_tpg_examples_report():
    rows = {r["example"]: r for r in tpg_examples_report()}
    assert rows[2]["lfsr_stages"] == 12
    assert rows[2]["extra_ffs"] == 2
    assert rows[2]["area_fraction"] == pytest.approx(0.072, abs=1e-6)
    assert rows[3]["r3_span"] == (10, 13)
    assert rows[4]["shared_stages"] == 3
    assert rows[5]["lfsr_stages"] == 9
    assert rows[6]["lfsr_stages"] == 11
    assert rows[6]["reconfigurable_time"] < rows[6]["monolithic_time"] / 3


def test_pseudo_exhaustive_report():
    report = pseudo_exhaustive_report()
    assert report["default_order_stages"] == 16
    assert report["best_order_stages"] == 8
    assert report["optimal"]
    assert report["mccluskey_stages"] == 12


def test_measure_circuit_small_budget():
    """A cheap Table 2 measurement run (structure rows must be exact)."""
    column = measure_circuit("c5a2m", max_patterns=1 << 13, n_seeds=1)
    assert column.kernels == (1, 7)
    assert column.sessions == (1, 2)
    assert column.bilbo_registers == (9, 15)
    assert column.maximal_delay == (2, 4)
    text = render_table2([column])
    assert "c5a2m BIBS" in text and "Table 2 (paper)" in text


def test_paper_protocol_reproduces_the_committed_table2():
    """2^16 patterns × 3 seeds per kernel, as ``python -m
    repro.experiments`` and ``benchmarks/test_table2_coverage.py`` run
    it: the columns of ``results/table2_full.txt`` and EXPERIMENTS.md."""
    assert table2_columns(max_patterns=1 << 16, n_seeds=3) == [
        Table2Column("c5a2m", (1, 7), (1, 2), (9, 15), (2, 4),
                     (46, 216), (46, 77), (173, 370), (173, 154)),
        Table2Column("c3a2m", (1, 5), (1, 2), (7, 15), (2, 6),
                     (58, 219), (58, 87), (228, 641), (228, 298)),
        Table2Column("c4a4m", (1, 6), (1, 2), (10, 20), (2, 4),
                     (69, 218), (69, 77), (168, 382), (168, 159)),
    ]


def test_paper_table_constants():
    assert PAPER_TABLE2["c3a2m"]["maximal_delay"] == (2, 6)
    assert PAPER_TABLE2["c4a4m"]["time_100"] == (19120, 2172)
