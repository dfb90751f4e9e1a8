"""repro — a reproduction of the BIBS BIST methodology and its TPGs.

Lin, Gupta & Breuer, "A Low Cost BIST Methodology and Associated Novel Test
Pattern Generator", DATE 1994 (USC CENG TR 93-33).

Top-level convenience re-exports; see the subpackages for the full API:

* ``repro.netlist``   — gate-level netlists, builders, packed evaluation
* ``repro.faultsim``  — stuck-at faults, collapsing, bit-parallel simulation
* ``repro.engine``    — parallel fault-sim engine, golden rounds, metrics
* ``repro.results``   — the unified ``CoverageResult`` surface
* ``repro.atpg``      — PODEM, for redundancy classification
* ``repro.rtl``       — RTL circuits (blocks / registers / nets)
* ``repro.graph``     — the Section-3.1 circuit graph model
* ``repro.analysis``  — balance, cones, k-step functional testability
* ``repro.bilbo``     — BILBO/CBILBO registers, MISR, cost models
* ``repro.core``      — BIBS, KA-85, BALLAST, scheduling, the BIST flow
* ``repro.tpg``       — LFSRs, SC_TPG, MC_TPG, pseudo-exhaustive testing
* ``repro.datapath``  — the Table-1 filter datapaths
* ``repro.library``   — the paper's figure circuits
* ``repro.experiments`` — per-table/per-figure reproduction harness
* ``repro.lint``      — static design-rule checks (netlist/structure/TPG/testability)
* ``repro.guard``     — run governance: deadlines, memory, cancellation
"""

from repro.analysis import classify, is_balanced
from repro.core import (
    compare_tdms,
    evaluate_design,
    make_bibs_testable,
    make_ka_testable,
)
from repro.engine import EngineResult, simulate
from repro.faultsim import FaultSimulator, RandomPatternSource
from repro.graph import build_circuit_graph
from repro.guard import Budget, CancelToken, exit_code, signal_scope
from repro.lint import (
    Finding,
    LintError,
    LintReport,
    lint_circuit,
    lint_netlist,
    lint_structure,
    lint_testability,
    lint_tpg,
)
from repro.results import CoverageResult, FaultSimResult, SessionResult
from repro.rtl import RTLCircuit
from repro.tpg import KernelSpec, TPGDesign, mc_tpg, sc_tpg

__version__ = "1.0.0"

__all__ = [
    "RTLCircuit",
    "build_circuit_graph",
    "is_balanced",
    "classify",
    "make_bibs_testable",
    "make_ka_testable",
    "evaluate_design",
    "compare_tdms",
    "FaultSimulator",
    "RandomPatternSource",
    "simulate",
    "EngineResult",
    "Budget",
    "CancelToken",
    "signal_scope",
    "exit_code",
    "CoverageResult",
    "FaultSimResult",
    "SessionResult",
    "KernelSpec",
    "TPGDesign",
    "sc_tpg",
    "mc_tpg",
    "Finding",
    "LintError",
    "LintReport",
    "lint_circuit",
    "lint_netlist",
    "lint_structure",
    "lint_testability",
    "lint_tpg",
    "__version__",
]
