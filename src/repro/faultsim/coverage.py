"""Coverage curves and test-length accounting.

Turns fault-simulation results into the quantities Table 2 reports: the
number of patterns needed to reach a target fault coverage, and coverage as
a function of applied patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.results import FaultSimResult


@dataclass(frozen=True)
class CoveragePoint:
    """One point on a coverage curve."""

    patterns: int
    coverage: float


def coverage_curve(result: FaultSimResult, of_detectable: bool = True) -> List[CoveragePoint]:
    """The full staircase curve: one point per new detection."""
    denom = result.n_faults - (len(result.undetectable) if of_detectable else 0)
    if denom <= 0:
        return [CoveragePoint(0, 1.0)]
    points: List[CoveragePoint] = []
    for count, index in enumerate(result.detection_indices(), start=1):
        points.append(CoveragePoint(index + 1, count / denom))
    return points


def coverage_at(result: FaultSimResult, patterns: int, of_detectable: bool = True) -> float:
    """Coverage after the first ``patterns`` patterns."""
    return result.coverage(after_patterns=patterns, of_detectable=of_detectable)


def sample_curve(
    result: FaultSimResult,
    checkpoints: Sequence[int],
    of_detectable: bool = True,
) -> List[CoveragePoint]:
    """Coverage at chosen pattern counts (for plotting/series output)."""
    return [
        CoveragePoint(n, coverage_at(result, n, of_detectable))
        for n in checkpoints
    ]


def patterns_to_targets(
    result: FaultSimResult,
    targets: Sequence[float],
    of_detectable: bool = True,
) -> List[Tuple[float, Optional[int]]]:
    """Pattern counts required for each coverage target (None if unreached)."""
    return [
        (target, result.patterns_for_coverage(target, of_detectable))
        for target in targets
    ]
