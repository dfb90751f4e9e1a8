"""COP random-pattern testability: per-fault detection probabilities.

The statistical half of the static-testability story (the structural half
is :mod:`repro.analysis.scoap`), and the repo's one COP model.  Under
independent random inputs, each net's 1-probability follows from the
signal-probability pass (:func:`signal_probabilities`); an error's chance
of reaching a primary output follows from a pin-resolved observability
pass (:func:`pin_observabilities`); and a stuck-at fault's single-pattern
detection probability is

    P(detect) = P(excite) * P(observe)

with ``P(excite)`` the probability the site carries the value opposite
the stuck one.  The geometric detection model then gives everything the
BIST planner needs *before* any simulation: the expected pattern count
per fault, the predicted coverage-vs-length curve, and — the payoff —
the ranked random-pattern-resistant fault tail that reseeding/ATPG PRs
must target (ROADMAP: beyond pure pseudo-random TPG).

Estimates assume signal independence.  Where that holds (fanout-free
trees, and an input fanning out into trees whose other inputs are
private) they are exact, which ``tests/test_cop_props.py`` checks
against exhaustive enumeration.  Reconvergent fanout makes them
approximate; how approximate is itself a checked artifact — the golden
corpus (``tests/test_testability_golden.py``) pins predicted-vs-measured
coverage deltas per scenario with a committed tolerance contract.  See
``docs/TESTABILITY.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import telemetry
from repro.faultsim.faults import Fault
from repro.netlist.gates import GateType
from repro.netlist.levelize import levelize
from repro.netlist.netlist import Netlist

#: The paper's Table 2 coverage bar: BIBS kernels reach 99.5%+ under
#: pseudo-random patterns.  Predicted coverage below this at the default
#: window is what the ``TB003`` lint rule flags.
DEFAULT_COVERAGE_TARGET = 0.995

#: Default pattern window: the engine's default run length
#: (:data:`repro.exec.config.DEFAULT_MAX_PATTERNS`, 2^16).
DEFAULT_WINDOW = 1 << 16


def signal_probabilities(
    netlist: Netlist,
    input_probabilities: Optional[Mapping[int, float]] = None,
) -> Dict[int, float]:
    """P(net = 1) per net under independent random inputs (COP C-measure).

    Every primary input is 1 with probability 0.5 unless
    ``input_probabilities`` maps it to its own probability, as weighted
    random patterns do.
    """
    overrides = input_probabilities or {}
    prob: Dict[int, float] = {
        net: overrides.get(net, 0.5) for net in netlist.primary_inputs
    }
    for gate_index in levelize(netlist):
        gate = netlist.gates[gate_index]
        inputs = [prob[n] for n in gate.inputs]
        base = gate.gtype.base
        if base is GateType.AND:
            value = math.prod(inputs)
        elif base is GateType.OR:
            value = 1.0 - math.prod(1.0 - p for p in inputs)
        elif base is GateType.XOR:
            value = 0.0
            for p in inputs:
                value = value * (1.0 - p) + (1.0 - value) * p
        elif base is GateType.BUF:
            value = inputs[0]
        elif gate.gtype is GateType.CONST0:
            value = 0.0
        else:  # CONST1
            value = 1.0
        if gate.gtype.is_inverting:
            value = 1.0 - value
        prob[gate.output] = value
    return prob


def pin_observabilities(
    netlist: Netlist,
    probabilities: Optional[Dict[int, float]] = None,
) -> Tuple[Dict[int, float], Dict[Tuple[int, int], float]]:
    """COP observabilities, resolved to stems *and* individual gate pins.

    Returns ``(stem_obs, pin_obs)``: ``stem_obs[net]`` is the
    independence-model union over every sink of the net (gate pins and a
    direct primary-output connection); ``pin_obs[(gate, pin)]`` is the
    probability an error entering that one pin reaches a primary output.
    Branch faults need the pin-level map — a stuck pin is observed only
    through its own gate, not through the stem's other branches.
    """
    if probabilities is None:
        probabilities = signal_probabilities(netlist)
    po = set(netlist.primary_outputs)
    obs: Dict[int, float] = {}
    pin_obs: Dict[Tuple[int, int], float] = {}
    fanout = netlist.fanout_map()
    order = list(reversed(levelize(netlist)))

    def stem_observability(net: int) -> float:
        miss = 0.0 if net in po else 1.0
        for gate_index in fanout.get(net, ()):
            gate = netlist.gates[gate_index]
            for pin, pin_net in enumerate(gate.inputs):
                if pin_net == net:
                    miss *= 1.0 - pin_obs.get((gate_index, pin), 0.0)
        return 1.0 - miss

    for gate_index in order:
        gate = netlist.gates[gate_index]
        out_obs = obs.get(gate.output)
        if out_obs is None:
            out_obs = stem_observability(gate.output)
            obs[gate.output] = out_obs
        base = gate.gtype.base
        for pin, net in enumerate(gate.inputs):
            if base is GateType.AND:
                through = math.prod(
                    probabilities[other]
                    for k, other in enumerate(gate.inputs) if k != pin
                )
            elif base is GateType.OR:
                through = math.prod(
                    1.0 - probabilities[other]
                    for k, other in enumerate(gate.inputs) if k != pin
                )
            else:  # XOR parity and BUF/NOT always propagate a flip
                through = 1.0
            pin_obs[(gate_index, pin)] = out_obs * through

    for net in range(netlist.n_nets):
        if net not in obs:
            obs[net] = stem_observability(net)
    return obs, pin_obs


@dataclass(frozen=True)
class FaultTestability:
    """One fault's static random-pattern testability."""

    fault: Fault
    excitation: float
    observability: float

    @property
    def detection_probability(self) -> float:
        return self.excitation * self.observability

    def expected_patterns(self) -> float:
        """Mean random patterns to first detection (geometric model)."""
        p = self.detection_probability
        return math.inf if p <= 0.0 else 1.0 / p

    def escape_probability(self, n_patterns: int) -> float:
        """Chance the fault survives ``n_patterns`` random patterns."""
        return (1.0 - self.detection_probability) ** n_patterns

    def key(self) -> str:
        """Stable id matching the golden-fixture fault key format."""
        fault = self.fault
        if fault.is_stem:
            return f"{fault.net}:{fault.stuck_at}"
        return f"{fault.net}:{fault.stuck_at}:{fault.gate_index}:{fault.pin}"

    def to_json(self, netlist: Optional[Netlist] = None) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "fault": self.key(),
            "excitation": self.excitation,
            "observability": self.observability,
            "detection_probability": self.detection_probability,
            "expected_patterns": (
                None if self.detection_probability <= 0.0
                else self.expected_patterns()
            ),
        }
        if netlist is not None:
            payload["describe"] = self.fault.describe(netlist)
        return payload


@dataclass
class TestabilityProfile:
    """The static testability picture of one netlist's fault universe.

    Window-free by construction: per-fault probabilities are intrinsic,
    and every windowed question (predicted coverage at N, the resistant
    tail under a TPG window) is answered at query time.
    """

    netlist: Netlist
    faults: List[FaultTestability]

    __test__ = False  # not a pytest class, despite the Test* name

    @property
    def n_faults(self) -> int:
        return len(self.faults)

    def predicted_coverage(self, n_patterns: int) -> float:
        """Expected detected fraction after ``n_patterns`` random patterns."""
        if not self.faults:
            return 1.0
        detected = sum(
            1.0 - entry.escape_probability(n_patterns)
            for entry in self.faults
        )
        return detected / len(self.faults)

    def coverage_curve(
        self, max_patterns: int = DEFAULT_WINDOW, points: int = 16
    ) -> List[Dict[str, float]]:
        """Predicted coverage at geometrically spaced pattern counts."""
        lengths: List[int] = []
        n = 1
        while n < max_patterns and len(lengths) < points - 1:
            lengths.append(n)
            n *= 2
        lengths.append(max_patterns)
        return [
            {"patterns": float(n), "coverage": self.predicted_coverage(n)}
            for n in lengths
        ]

    def random_resistant(self, threshold: float) -> List[FaultTestability]:
        """Faults with detection probability below ``threshold``, ranked
        hardest (lowest probability) first — the tail reseeded-LFSR /
        deterministic-embedding TPG modes must cover."""
        resistant = [
            entry for entry in self.faults
            if entry.detection_probability < threshold
        ]
        resistant.sort(key=lambda e: (e.detection_probability, e.key()))
        return resistant

    def undetectable(self) -> List[FaultTestability]:
        """Faults with detection probability exactly 0 under the model."""
        return [e for e in self.faults if e.detection_probability <= 0.0]

    def expected_patterns_for(self, target: float) -> Optional[int]:
        """Patterns needed for the *expected* coverage to reach ``target``.

        Found by doubling, then bisection, on :meth:`predicted_coverage`.
        ``None`` when statically unreachable (undetectable faults push the
        ceiling below the target).
        """
        if not self.faults:
            return 0
        reachable = sum(
            1 for e in self.faults if e.detection_probability > 0
        ) / len(self.faults)
        if reachable < target:
            return None
        low, high = 1, 1
        while self.predicted_coverage(high) < target:
            high *= 2
            if high > 1 << 40:
                return None
        while low < high:
            mid = (low + high) // 2
            if self.predicted_coverage(mid) >= target:
                high = mid
            else:
                low = mid + 1
        return low

    def to_json(
        self,
        *,
        window: int = DEFAULT_WINDOW,
        threshold: Optional[float] = None,
        top: int = 50,
        coverage_target: float = DEFAULT_COVERAGE_TARGET,
    ) -> Dict[str, Any]:
        """A bounded JSON document (full per-fault tables stay in memory).

        ``threshold`` defaults to ``1 / window`` — the probability below
        which a fault is not expected to fall inside the TPG window.
        """
        if threshold is None:
            threshold = 1.0 / window
        resistant = self.random_resistant(threshold)
        return {
            "kind": "testability-profile",
            "circuit": self.netlist.name,
            "n_faults": self.n_faults,
            "window": window,
            "threshold": threshold,
            "predicted_coverage": self.predicted_coverage(window),
            "coverage_target": coverage_target,
            "expected_patterns_to_target":
                self.expected_patterns_for(coverage_target),
            "coverage_curve": self.coverage_curve(window),
            "n_resistant": len(resistant),
            "n_undetectable": len(self.undetectable()),
            "resistant": [
                entry.to_json(self.netlist) for entry in resistant[:top]
            ],
        }


def analyze_netlist(
    netlist: Netlist,
    faults: Optional[Sequence[Fault]] = None,
) -> TestabilityProfile:
    """Build the :class:`TestabilityProfile` of a netlist's fault list.

    ``faults`` defaults to the equivalence-collapsed universe — the same
    list :func:`repro.engine.simulate` targets, so predicted and measured
    coverage are fractions of the *same* denominator.
    """
    if faults is None:
        from repro.faultsim.collapse import collapse_faults

        faults = collapse_faults(netlist)[0]
    fault_list = list(faults)
    with telemetry.span(
        "analysis.profile", circuit=netlist.name,
        n_gates=len(netlist.gates), n_faults=len(fault_list),
    ):
        probabilities = signal_probabilities(netlist)
        stem_obs, pin_obs = pin_observabilities(netlist, probabilities)
        entries: List[FaultTestability] = []
        for fault in fault_list:
            p1 = probabilities[fault.net]
            excite = p1 if fault.stuck_at == 0 else 1.0 - p1
            if fault.is_stem:
                observe = stem_obs[fault.net]
            else:
                observe = pin_obs.get((fault.gate_index, fault.pin), 0.0)
            entries.append(FaultTestability(fault, excite, observe))
    telemetry.count("analysis.profiles")
    telemetry.count("analysis.faults_profiled", len(entries))
    return TestabilityProfile(netlist, entries)
