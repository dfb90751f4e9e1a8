"""Weighted random patterns guided by COP testability measures.

A classic BIST refinement of the paper's random-pattern setting (cousin of
its reference [18]'s weighted approach): instead of fair coin flips per
input, bias each input's 1-probability so the hardest faults — those with
the lowest COP-estimated detection probability — become more likely to be
excited.  The weight chosen per input maximises a greedy proxy: nudge each
input toward the value that raises the mean log-detection-probability of
the k hardest faults.

``WeightedPatternSource`` plugs into the fault simulator like any other
source; ``cop_weights`` derives the per-input probabilities.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Sequence

from repro.faultsim.faults import Fault
from repro.netlist.netlist import Netlist


class WeightedPatternSource:
    """Random patterns with a per-input 1-probability."""

    def __init__(self, weights: Sequence[float], seed: int = 1994):
        if not weights:
            raise ValueError("need at least one input weight")
        for weight in weights:
            if not 0.0 <= weight <= 1.0:
                raise ValueError(f"weight {weight} outside [0, 1]")
        self.weights = list(weights)
        self.n_inputs = len(weights)
        self.seed = seed

    def batches(self, batch_width: int) -> Iterator[List[int]]:
        rng = random.Random(self.seed)
        n = self.n_inputs
        while True:
            packed = [0] * n
            for offset in range(batch_width):
                bit = 1 << offset
                for position in range(n):
                    if rng.random() < self.weights[position]:
                        packed[position] |= bit
            yield packed


def cop_weights(
    netlist: Netlist,
    hardest_fraction: float = 0.1,
    strength: float = 0.3,
    floor: float = 0.1,
) -> List[float]:
    """Per-input 1-probabilities biased toward the hardest faults.

    For each of the hardest faults (lowest COP detection probability) we
    find the input assignment bias that helps excite it: inputs in the
    fault site's fanin get nudged toward the value that makes the site's
    excitation value more likely, estimated by re-running the COP
    probability propagation with that single input flipped to 0/1.
    ``strength`` bounds the nudge; ``floor`` keeps every probability inside
    [floor, 1-floor] so observability elsewhere never collapses.
    """
    hard = _hardest_faults(netlist, hardest_fraction)

    pis = netlist.primary_inputs
    votes: Dict[int, float] = {net: 0.0 for net in pis}
    for fault in hard:
        want = 1 - fault.stuck_at  # the excitation value at the site
        support = netlist.support_of([fault.net])
        for net in support:
            # Which input value raises P(site = want)?  One-input
            # sensitivity: site probability with the input biased high
            # versus low.
            votes[net] += _input_sensitivity(netlist, net, fault.net, want)

    weights = []
    for net in pis:
        nudge = max(-1.0, min(1.0, votes[net] / max(1, len(hard))))
        weight = 0.5 + strength * nudge
        weights.append(min(1.0 - floor, max(floor, weight)))
    return weights


class MultiWeightedPatternSource:
    """Round-robin over several weight sets (one pattern from each in turn).

    The classic resolution of conflicting fault demands (Wunderlich-style
    multiple distributions): an AND-dominated cone wants mostly-ones
    patterns while an OR-dominated cone wants mostly-zeros; no single
    distribution serves both, but alternating between per-cluster
    distributions serves each at half rate — still exponentially better
    than fair coins for deep trees.
    """

    def __init__(self, weight_sets: Sequence[Sequence[float]], seed: int = 1994):
        if not weight_sets:
            raise ValueError("need at least one weight set")
        widths = {len(ws) for ws in weight_sets}
        if len(widths) != 1:
            raise ValueError("weight sets must share a width")
        self.weight_sets = [list(ws) for ws in weight_sets]
        self.n_inputs = widths.pop()
        self.seed = seed

    def batches(self, batch_width: int) -> Iterator[List[int]]:
        rng = random.Random(self.seed)
        n = self.n_inputs
        sets = self.weight_sets
        index = 0
        while True:
            packed = [0] * n
            for offset in range(batch_width):
                weights = sets[index % len(sets)]
                index += 1
                bit = 1 << offset
                for position in range(n):
                    if rng.random() < weights[position]:
                        packed[position] |= bit
            yield packed


def fault_weight_vector(
    netlist: Netlist,
    fault,
    strength: float = 0.4,
    floor: float = 0.05,
) -> List[float]:
    """The per-input distribution that best excites one fault.

    The *sign* of the sensitivity decides the direction of the bias; the
    magnitude is deliberately ignored (for a deep AND tree every single
    input's marginal slope is ~2^-(n-1), yet all of them should be pushed
    hard toward 1).
    """
    want = 1 - fault.stuck_at
    epsilon = 1e-12
    weights = []
    for pi in netlist.primary_inputs:
        slope = _input_sensitivity(netlist, pi, fault.net, want)
        if slope > epsilon:
            weight = 0.5 + strength
        elif slope < -epsilon:
            weight = 0.5 - strength
        else:
            weight = 0.5
        weights.append(min(1.0 - floor, max(floor, weight)))
    return weights


def cop_weight_sets(
    netlist: Netlist,
    n_sets: int = 2,
    hardest_fraction: float = 0.15,
    strength: float = 0.4,
) -> List[List[float]]:
    """Cluster the hardest faults' desired distributions into weight sets.

    Greedy clustering on the sign pattern of each fault's desired bias;
    cluster centres are the member-average distributions.  Falls back to a
    single fair set when nothing is biased.
    """
    hard = _hardest_faults(netlist, hardest_fraction)
    if not hard:
        return [[0.5] * len(netlist.primary_inputs)]

    vectors = [
        fault_weight_vector(netlist, fault, strength=strength) for fault in hard
    ]
    # Greedy clustering by bias-direction similarity.
    clusters: List[List[List[float]]] = []
    for vector in vectors:
        direction = [v - 0.5 for v in vector]
        placed = False
        for cluster in clusters:
            centre = cluster[0]
            dot = sum((c - 0.5) * d for c, d in zip(centre, direction))
            if dot >= 0:
                cluster.append(vector)
                placed = True
                break
        if not placed and len(clusters) < n_sets:
            clusters.append([vector])
            placed = True
        if not placed:
            clusters[0].append(vector)

    sets = []
    for cluster in clusters:
        width = len(cluster[0])
        sets.append([
            sum(vector[i] for vector in cluster) / len(cluster)
            for i in range(width)
        ])
    return sets


def _hardest_faults(netlist: Netlist, fraction: float) -> List[Fault]:
    """The ``fraction`` of collapsed faults with the lowest COP detection
    probability, hardest first (ties in collapse order), minus those COP
    calls undetectable."""
    from repro.analysis.random_testability import analyze_netlist

    ranked = sorted(
        analyze_netlist(netlist).faults, key=lambda e: e.detection_probability
    )
    cutoff = max(1, int(len(ranked) * fraction))
    return [e.fault for e in ranked[:cutoff] if e.detection_probability > 0]


def _input_sensitivity(netlist: Netlist, pi: int, site: int, want: int) -> float:
    """d P(site == want) / d P(pi = 1), two-point estimate."""
    low = _site_probability(netlist, pi, 0.25, site)
    high = _site_probability(netlist, pi, 0.75, site)
    slope = (high - low) / 0.5
    return slope if want == 1 else -slope


def _site_probability(netlist: Netlist, pi: int, p: float, site: int) -> float:
    from repro.analysis.random_testability import signal_probabilities

    return signal_probabilities(netlist, {pi: p})[site]
