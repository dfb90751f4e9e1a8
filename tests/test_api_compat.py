"""API-compatibility suite: the run key and the one run-option surface.

The pinned golden run key catches any drift in the run-key recipe, which
would orphan every checkpoint journal.  Run options exist only on the
config, so every entry point rejects the old keyword spelling outright.
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
    """``jobs=`` (like every run option) lives on ``RunConfig`` only, and
    no entry point takes a golden ``cache=``: golden rounds live for one
    run.  Either keyword fails when the arguments are bound, before
    anything runs."""
    for keyword in ("jobs", "cache"):
        with pytest.raises(
            TypeError, match=f"unexpected keyword argument '{keyword}'"
        ):
            ENTRY_POINTS[entry](**{keyword: 2})


def test_golden_run_key_is_stable_across_the_refactor():
    """Pinned so that the run-key recipe cannot drift unnoticed.

    The hex digest below is the journal-version-3 run key of a run with
    ``batch_width=64, max_patterns=256, chunk_batches=1,
    stop_when_complete=False, drop_detected=False`` (its ``jobs=2`` is
    execution strategy and stays out of the key).  If this test fails,
    every existing checkpoint journal is orphaned — change
    :func:`repro.exec.config.canonical_fields` only with a
    ``JOURNAL_VERSION`` bump.
    """
    netlist = tiny_and_or()
    faults, _ = collapse_faults(netlist)
    source = RandomPatternSource(3, seed=11)
    config = RunConfig(
        execution=ExecutionPolicy(jobs=2, batch_width=64, chunk_batches=1),
        max_patterns=256, stop_when_complete=False, drop_detected=False,
    )
    assert run_key(netlist, source, faults, config) == (
        "f0cf9a58ba5104b420b6b74bf44ac1ac243d66374ba6f98f7df18e6d41400bbf"
    )


def test_run_key_ignores_execution_strategy():
    """Executor, shard count, retry and the pre-flight never fork the
    journal key."""
    netlist = tiny_and_or()
    faults, _ = collapse_faults(netlist)
    source = RandomPatternSource(3, seed=11)
    base = RunConfig(execution=ExecutionPolicy(jobs=2), max_patterns=256)
    key = run_key(netlist, source, faults, base)
    for variant in (
        base.with_execution(executor="serial"),
        base.with_execution(jobs=1),
        base.with_execution(kernel="vec"),
        base.replace(retry=base.retry.__class__(shard_timeout=9.0)),
        base.replace(check=False),
    ):
        assert run_key(netlist, source, faults, variant) == key
    assert run_key(netlist, source, faults,
                   base.replace(max_patterns=512)) != key
