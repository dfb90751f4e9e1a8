"""COP testability measures."""

import itertools
import math

import pytest

from repro.analysis.random_testability import (
    FaultTestability,
    TestabilityProfile,
    analyze_netlist,
    pin_observabilities,
    signal_probabilities,
)
from repro.faultsim.collapse import collapse_faults
from repro.faultsim.faults import Fault
from repro.faultsim.simulator import FaultSimulator
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist

from tests.conftest import make_random_netlist, tiny_and_or


def test_signal_probabilities_basic_gates():
    netlist = Netlist()
    a = netlist.new_input("a")
    b = netlist.new_input("b")
    and_out = netlist.add_gate(GateType.AND, [a, b])
    or_out = netlist.add_gate(GateType.OR, [a, b])
    xor_out = netlist.add_gate(GateType.XOR, [a, b])
    nand_out = netlist.add_gate(GateType.NAND, [a, b])
    netlist.mark_output(and_out)
    netlist.mark_output(or_out)
    netlist.mark_output(xor_out)
    netlist.mark_output(nand_out)
    prob = signal_probabilities(netlist)
    assert prob[and_out] == pytest.approx(0.25)
    assert prob[or_out] == pytest.approx(0.75)
    assert prob[xor_out] == pytest.approx(0.5)
    assert prob[nand_out] == pytest.approx(0.75)


def test_probabilities_exact_on_fanout_free_tree():
    """Without reconvergence COP is exact; check against enumeration."""
    netlist = make_random_netlist(4, 8, seed=23)
    prob = signal_probabilities(netlist)
    for po in netlist.primary_outputs:
        ones = 0
        from repro.netlist.evaluate import evaluate_single

        for combo in itertools.product((0, 1), repeat=4):
            assign = {n: v for n, v in zip(netlist.primary_inputs, combo)}
            ones += evaluate_single(netlist, assign)[po]
        exact = ones / 16
        # COP is approximate under reconvergence; allow slack but demand
        # the right ballpark.
        assert abs(prob[po] - exact) < 0.35


def test_observability_of_po_is_one():
    netlist = tiny_and_or()
    obs = pin_observabilities(netlist)[0]
    assert obs[netlist.find_net("y")] == pytest.approx(1.0)


def test_observability_through_and_gate():
    netlist = tiny_and_or()
    obs = pin_observabilities(netlist)[0]
    # t reaches y through OR: observable iff c=0 -> 0.5.
    assert obs[netlist.find_net("t")] == pytest.approx(0.5)
    # a reaches y through AND (needs b=1) then OR (needs c=0).
    assert obs[netlist.find_net("a")] == pytest.approx(0.25)


def test_xor_path_fully_observable():
    netlist = Netlist()
    a = netlist.new_input("a")
    b = netlist.new_input("b")
    y = netlist.add_gate(GateType.XOR, [a, b])
    netlist.mark_output(y)
    obs = pin_observabilities(netlist)[0]
    assert obs[a] == pytest.approx(1.0)


def test_detection_probability_estimates():
    netlist = tiny_and_or()
    faults, _ = collapse_faults(netlist)
    estimates = analyze_netlist(netlist, faults).faults
    by_fault = {e.fault: e for e in estimates}
    y = netlist.find_net("y")
    # y s-a-0: excite needs y=1 (p = 1 - 0.75*0.5 = 0.625), O = 1.
    assert by_fault[Fault(y, 0)].detection_probability == pytest.approx(0.625)
    for estimate in estimates:
        assert 0.0 <= estimate.detection_probability <= 1.0


def test_expected_patterns_inverse():
    netlist = tiny_and_or()
    estimates = analyze_netlist(netlist, [Fault(netlist.find_net("y"), 0)]).faults
    assert estimates[0].expected_patterns() == pytest.approx(1 / 0.625)


def test_predicted_patterns_monotone_in_target():
    netlist = make_random_netlist(5, 25, seed=9)
    faults, _ = collapse_faults(netlist)
    profile = analyze_netlist(netlist, faults)
    # Random netlists contain constant cones, hence zero-probability
    # (estimated-undetectable) faults; target below the reachable fraction.
    reachable = sum(
        1 for e in profile.faults if e.detection_probability > 0
    ) / profile.n_faults
    lo, hi = 0.5 * reachable, 0.9 * reachable
    p_lo = profile.expected_patterns_for(lo)
    p_hi = profile.expected_patterns_for(hi)
    assert p_lo is not None and p_hi is not None and p_lo <= p_hi
    # Beyond the reachable fraction the prediction is None.
    assert profile.expected_patterns_for(reachable + 0.05) is None


def test_prediction_correlates_with_measurement():
    """COP's predicted pattern count lands within a small factor of the
    fault simulator's measurement on the adder."""
    from repro.faultsim.patterns import RandomPatternSource
    from repro.netlist.builders import ripple_adder

    netlist = Netlist()
    a = netlist.new_inputs(4, prefix="a")
    b = netlist.new_inputs(4, prefix="b")
    for net in ripple_adder(netlist, a, b):
        netlist.mark_output(net)
    faults, _ = collapse_faults(netlist)
    predicted = analyze_netlist(netlist, faults).expected_patterns_for(0.95)
    simulator = FaultSimulator(netlist)
    result = simulator.run(RandomPatternSource(8, seed=5), 4096)
    measured = result.patterns_for_coverage(0.95)
    assert predicted is not None and measured is not None
    assert predicted / 8 <= measured <= predicted * 8


def test_unreachable_target_returns_none():
    netlist = tiny_and_or()
    estimates = analyze_netlist(netlist, [Fault(netlist.find_net("y"), 0)]).faults
    # A fabricated zero-probability fault makes 100% unreachable.
    estimates = estimates + [FaultTestability(Fault(0, 1), 0.0, 0.0)]
    assert TestabilityProfile(netlist, estimates).expected_patterns_for(1.0) is None
    assert math.isinf(estimates[-1].expected_patterns())
