"""Structural analysis: balance, cones, k-step functional testability,
SCOAP measures and COP random-pattern testability profiles."""

from repro.analysis.balance import (
    BalanceConflict,
    BalanceResult,
    balance_levels,
    is_balanced,
    is_balanced_bistable,
    path_length_between,
    require_levels,
)
from repro.analysis.cones import cone_dependencies, kernel_spec_from_graph
from repro.analysis.random_testability import (
    DEFAULT_COVERAGE_TARGET,
    DEFAULT_WINDOW,
    FaultTestability,
    TestabilityProfile,
    analyze_netlist,
    pin_observabilities,
    signal_probabilities,
)
from repro.analysis.scoap import UNACHIEVABLE, ScoapMeasures, scoap
from repro.analysis.testability import (
    TestabilityReport,
    classify,
    is_one_step_functionally_testable,
    k_step,
)

__all__ = [
    "BalanceConflict",
    "BalanceResult",
    "balance_levels",
    "is_balanced",
    "is_balanced_bistable",
    "require_levels",
    "path_length_between",
    "kernel_spec_from_graph",
    "cone_dependencies",
    "TestabilityReport",
    "classify",
    "k_step",
    "is_one_step_functionally_testable",
    "DEFAULT_COVERAGE_TARGET",
    "DEFAULT_WINDOW",
    "FaultTestability",
    "TestabilityProfile",
    "analyze_netlist",
    "pin_observabilities",
    "signal_probabilities",
    "UNACHIEVABLE",
    "ScoapMeasures",
    "scoap",
]
