"""API-compatibility suite: the run key and the one run-option surface.

The pinned golden run key proves checkpoint journals written before the
run API moved onto :class:`repro.exec.RunConfig` still resume.  Run
options exist only on the config, so every entry point rejects the old
keyword spelling outright.
"""

from __future__ import annotations

import pytest

from repro.bist.session import BISTSession
from repro.core.flow import compare_tdms, evaluate_design
from repro.engine import simulate
from repro.engine.checkpoint import run_key
from repro.exec import ExecutionPolicy, RunConfig
from repro.experiments.table2 import measure_circuit, table2_columns
from repro.faultsim.collapse import collapse_faults
from repro.faultsim.patterns import RandomPatternSource
from repro.faultsim.simulator import FaultSimulator
from tests.conftest import tiny_and_or

#: The public entry points that take a run ``config``.
ENTRY_POINTS = {
    "simulate": simulate,
    "FaultSimulator.run": FaultSimulator.run,
    "BISTSession.pattern_coverage": BISTSession.pattern_coverage,
    "evaluate_design": evaluate_design,
    "compare_tdms": compare_tdms,
    "measure_circuit": measure_circuit,
    "table2_columns": table2_columns,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_rejects_run_keywords(entry):
    """``jobs=`` (like every run option) lives on ``RunConfig`` only; the
    keyword fails when the arguments are bound, before anything runs."""
    with pytest.raises(TypeError, match="unexpected keyword argument 'jobs'"):
        ENTRY_POINTS[entry](jobs=2)


def test_golden_run_key_is_stable_across_the_refactor():
    """Pinned against the pre-RunConfig engine: old journals must resume.

    The hex digest below was produced by the PR 5 ``run_key(netlist,
    source, faults, batch_width=64, max_patterns=256, jobs=2,
    chunk_batches=1, stop_when_complete=False, drop_detected=False)``.
    If this test fails, every existing checkpoint journal is orphaned —
    change :func:`repro.exec.config.canonical_fields` only with a
    ``JOURNAL_VERSION`` bump.
    """
    netlist = tiny_and_or()
    faults, _ = collapse_faults(netlist)
    source = RandomPatternSource(3, seed=11)
    config = RunConfig(
        execution=ExecutionPolicy(jobs=2, batch_width=64, chunk_batches=1),
        max_patterns=256, stop_when_complete=False, drop_detected=False,
    )
    assert run_key(netlist, source, faults, config, 2) == (
        "2beae786a8db11013f3aeb2a317ccc0b7b8e1d13509b32ccb15113a3b029caca"
    )


def test_run_key_ignores_execution_strategy():
    """Executor, retry, budget and chaos never fork the journal key."""
    netlist = tiny_and_or()
    faults, _ = collapse_faults(netlist)
    source = RandomPatternSource(3, seed=11)
    base = RunConfig(execution=ExecutionPolicy(jobs=2), max_patterns=256)
    key = run_key(netlist, source, faults, base, 2)
    for variant in (
        base.with_execution(executor="serial"),
        base.with_execution(kernel="vec"),
        base.replace(retry=base.retry.__class__(max_retries=9)),
        base.replace(check=False),
    ):
        assert run_key(netlist, source, faults, variant, 2) == key
    assert run_key(netlist, source, faults,
                   base.replace(max_patterns=512), 2) != key
