"""The run-all experiments entry point (with a stubbed Table 2)."""

import json

import pytest

import repro.experiments.__main__ as runner
from repro.experiments.table2 import Table2Column


def test_runner_writes_all_artifacts(tmp_path, monkeypatch):
    stub_column = Table2Column(
        circuit="c5a2m",
        kernels=(1, 7), sessions=(1, 2), bilbo_registers=(9, 15),
        maximal_delay=(2, 4), patterns_995=(10, 20), time_995=(10, 15),
        patterns_100=(30, 40), time_100=(30, 25),
    )
    monkeypatch.setattr(
        runner, "table2_columns", lambda **kwargs: [stub_column]
    )
    assert runner.main([str(tmp_path)]) == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert {
        "table1.txt", "table2_full.txt", "figures_1_2.txt", "figure3.txt",
        "example1.txt", "figure9.txt", "tpg_examples.txt",
        "pseudo_exhaustive.txt",
    } <= names
    data = json.loads((tmp_path / "figure9.txt").read_text())
    assert data["bibs"]["flipflops"] == 43


@pytest.mark.parametrize("value", ["remote", "quantum"])
def test_runner_refuses_bad_executor_env(tmp_path, monkeypatch, capsys,
                                         value):
    """A ``$REPRO_ENGINE_EXECUTOR`` naming no backend is refused before
    the sweep writes anything: exit 2 and one stderr line."""
    monkeypatch.setenv("REPRO_ENGINE_EXECUTOR", value)
    outdir = tmp_path / "out"
    assert runner.main([str(outdir), "--jobs", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: $REPRO_ENGINE_EXECUTOR={value!r} names no execution "
        "backend (available: process, serial)"
    ]
    assert not outdir.exists()
