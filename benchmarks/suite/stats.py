"""Order statistics shared by the measuring side and the report."""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Tuple


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile; 0.0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(values: List[float]) -> Optional[Tuple[float, float, int]]:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it.

    Returns ``(percentile, value, samples beyond)``, or None when even p75
    has fewer than ten samples beyond it (fewer than 40 samples).
    """
    for q in (0.99, 0.95, 0.90, 0.75):
        beyond = int(len(values) * (1 - q) + 1e-9)
        if beyond >= 10:
            return q, percentile(values, q), beyond
    return None


def grouped_median(values: List[float], groups: List[str]) -> float:
    """Each group's median, combined by geometric mean; 0.0 for no values.

    With one group this is the plain median.  Groups of different cost
    (``table2`` columns of two circuits) each keep their own median, so
    the result does not jump with the share each group happened to get.
    """
    by_group: Dict[str, List[float]] = {}
    for value, group in zip(values, groups):
        by_group.setdefault(group, []).append(value)
    if not by_group:
        return 0.0
    return statistics.geometric_mean(
        statistics.median(group) for group in by_group.values())


def quartiles(values: List[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return [values[0]] * 3
    return list(statistics.quantiles(values, n=4))
