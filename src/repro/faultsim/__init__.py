"""Stuck-at fault model, collapsing, bit-parallel fault simulation, coverage."""

from repro.faultsim.faults import Fault, full_fault_universe
from repro.faultsim.collapse import collapse_faults, collapse_ratio
from repro.faultsim.patterns import (
    ExhaustivePatternSource,
    LFSRPatternSource,
    RandomPatternSource,
    SequencePatternSource,
)
from repro.faultsim.simulator import FaultSimulator
from repro.faultsim.sequential import (
    SequentialFault,
    UnrolledCircuit,
    detects_sequence,
    minimum_detecting_length,
    unroll,
)
from repro.faultsim.weighted import (
    MultiWeightedPatternSource,
    WeightedPatternSource,
    cop_weight_sets,
    cop_weights,
    fault_weight_vector,
)
from repro.faultsim.coverage import (
    CoveragePoint,
    coverage_at,
    coverage_curve,
    patterns_to_targets,
    sample_curve,
)
from repro.results import FaultSimResult

__all__ = [
    "Fault",
    "full_fault_universe",
    "collapse_faults",
    "collapse_ratio",
    "RandomPatternSource",
    "ExhaustivePatternSource",
    "SequencePatternSource",
    "LFSRPatternSource",
    "FaultSimulator",
    "FaultSimResult",
    "CoveragePoint",
    "coverage_curve",
    "coverage_at",
    "sample_curve",
    "patterns_to_targets",
    "SequentialFault",
    "UnrolledCircuit",
    "unroll",
    "detects_sequence",
    "minimum_detecting_length",
    "WeightedPatternSource",
    "MultiWeightedPatternSource",
    "cop_weights",
    "cop_weight_sets",
    "fault_weight_vector",
]
