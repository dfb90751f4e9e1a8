"""SCOAP measures and COP random-pattern testability profiles."""

import math

import pytest

from repro.analysis.random_testability import (
    DEFAULT_WINDOW,
    FaultTestability,
    TestabilityProfile,
    analyze_netlist,
    pin_observabilities,
)
from repro.analysis.scoap import UNACHIEVABLE, _xor_fold, scoap
from repro.faultsim.collapse import collapse_faults
from repro.faultsim.faults import Fault
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist

from tests.conftest import make_random_netlist, tiny_and_or


# ---------------------------------------------------------------- SCOAP


def test_scoap_primary_inputs_cost_one(tiny):
    m = scoap(tiny)
    for net in tiny.primary_inputs:
        assert m.cc0[net] == 1.0
        assert m.cc1[net] == 1.0


def test_scoap_textbook_values_on_tiny_and_or(tiny):
    m = scoap(tiny)
    t = tiny.find_net("t")
    y = tiny.find_net("y")
    c = tiny.find_net("c")
    a = tiny.find_net("a")
    # t = a AND b: CC1 = 1+1+1, CC0 = min(1,1)+1.
    assert m.cc1[t] == 3.0 and m.cc0[t] == 2.0
    # y = t OR c: CC1 = min(3,1)+1, CC0 = 2+1+1.
    assert m.cc1[y] == 2.0 and m.cc0[y] == 4.0
    # Observabilities: PO costs 0; through OR hold the other input at 0;
    # through AND hold the other input at 1.
    assert m.co[y] == 0.0
    assert m.co[t] == 0.0 + m.cc0[c] + 1.0  # = 2
    assert m.co[c] == 0.0 + m.cc0[t] + 1.0  # = 3
    assert m.co[a] == m.co[t] + 1.0 + 1.0  # CC1(b)=1 -> 4


def test_scoap_inverting_gate_swaps_measures():
    netlist = Netlist()
    a = netlist.new_input("a")
    b = netlist.new_input("b")
    y = netlist.add_gate(GateType.NAND, [a, b])
    netlist.mark_output(y)
    m = scoap(netlist)
    # NAND: 0 needs both inputs 1; 1 needs any input 0.
    assert m.cc0[y] == 3.0
    assert m.cc1[y] == 2.0


def test_scoap_xor_parity_fold():
    netlist = Netlist()
    a = netlist.new_input("a")
    b = netlist.new_input("b")
    y = netlist.add_gate(GateType.XOR, [a, b])
    netlist.mark_output(y)
    m = scoap(netlist)
    assert m.cc0[y] == 3.0  # cheapest even parity (0,0 or 1,1) + 1
    assert m.cc1[y] == 3.0
    # Observing an XOR input costs holding the other at its cheaper value.
    assert m.co[a] == 0.0 + 1.0 + 1.0


def test_xor_fold_identity():
    assert _xor_fold([]) == (0.0, UNACHIEVABLE)
    assert _xor_fold([(1.0, 2.0)]) == (1.0, 2.0)


def test_scoap_const_side_is_unachievable():
    netlist = Netlist()
    a = netlist.new_input("a")
    zero = netlist.add_gate(GateType.CONST0, [])
    y = netlist.add_gate(GateType.AND, [a, zero])
    netlist.mark_output(y)
    m = scoap(netlist)
    assert m.cc1[zero] == UNACHIEVABLE
    assert m.cc0[zero] == 0.0  # already 0, no input fixing needed
    # The AND output can never be 1 either, and a is unobservable —
    # sensitizing it needs the constant side held at 1.
    assert m.cc1[y] == UNACHIEVABLE
    assert m.co[a] == UNACHIEVABLE
    assert m.testability(a) == UNACHIEVABLE


def test_scoap_dead_net_is_unobservable(tiny):
    dead = tiny.add_net("dead")
    tiny.add_gate(
        GateType.AND,
        [tiny.find_net("a"), tiny.find_net("b")],
        dead,
        name="dead",
    )
    m = scoap(tiny)
    assert m.co[dead] == UNACHIEVABLE
    # The live logic is unaffected.
    assert m.co[tiny.find_net("y")] == 0.0


def test_scoap_stem_takes_cheapest_branch():
    netlist = Netlist()
    a = netlist.new_input("a")
    b = netlist.new_input("b")
    c = netlist.new_input("c")
    d = netlist.new_input("d")
    # a fans out to a cheap branch (BUF to PO) and a costly one.
    cheap = netlist.add_gate(GateType.BUF, [a])
    costly = netlist.add_gate(GateType.AND, [a, b, c, d])
    netlist.mark_output(cheap)
    netlist.mark_output(costly)
    m = scoap(netlist)
    # Through BUF: 0 + 0 + 1; through AND: 0 + 3 + 1.
    assert m.pin_co[(0, 0)] == 1.0
    assert m.pin_co[(1, 0)] == 4.0
    assert m.co[a] == 1.0


def test_scoap_complete_over_random_netlists():
    for seed in (3, 11, 29):
        netlist = make_random_netlist(5, 30, seed=seed)
        m = scoap(netlist)
        for net in range(netlist.n_nets):
            assert net in m.cc0 and net in m.cc1 and net in m.co
            assert m.cc0[net] >= 1.0 and m.cc1[net] >= 1.0
            assert m.co[net] >= 0.0


def test_hardest_nets_ranked_worst_first():
    netlist = make_random_netlist(5, 30, seed=7)
    m = scoap(netlist)
    ranked = m.hardest_nets(5)
    scores = [score for _, score in ranked]
    assert scores == sorted(scores, reverse=True)
    assert len(ranked) == 5


# ---------------------------------------- COP pin-level observabilities


def test_pin_observability_splits_fanout_branches():
    netlist = Netlist()
    a = netlist.new_input("a")
    b = netlist.new_input("b")
    c = netlist.new_input("c")
    and_out = netlist.add_gate(GateType.AND, [a, b])
    or_out = netlist.add_gate(GateType.OR, [a, c])
    netlist.mark_output(and_out)
    netlist.mark_output(or_out)
    stem_obs, pin_obs = pin_observabilities(netlist)
    # Through AND needs b=1 (0.5); through OR needs c=0 (0.5).
    assert pin_obs[(0, 0)] == pytest.approx(0.5)
    assert pin_obs[(1, 0)] == pytest.approx(0.5)
    # Stem: union of the two branches under independence.
    assert stem_obs[a] == pytest.approx(0.75)


def test_pin_observability_matches_stem_without_fanout(tiny):
    stem_obs, pin_obs = pin_observabilities(tiny)
    t = tiny.find_net("t")
    # t has one sink (pin 0 of the OR gate) -> stem == pin.
    assert stem_obs[t] == pytest.approx(pin_obs[(1, 0)])


# ------------------------------------------------- testability profiles


def test_profile_matches_cop_estimates_on_stems(tiny):
    faults = [Fault(tiny.find_net("y"), 0), Fault(tiny.find_net("y"), 1)]
    profile = analyze_netlist(tiny, faults)
    assert profile.faults[0].detection_probability == pytest.approx(0.625)


def test_branch_fault_observed_through_its_own_pin_only():
    netlist = Netlist()
    a = netlist.new_input("a")
    b = netlist.new_input("b")
    c = netlist.new_input("c")
    and_out = netlist.add_gate(GateType.AND, [a, b])
    or_out = netlist.add_gate(GateType.OR, [a, c])
    netlist.mark_output(and_out)
    netlist.mark_output(or_out)
    stem = Fault(a, 0)
    branch = Fault(a, 0, gate_index=0, pin=0)
    profile = analyze_netlist(netlist, [stem, branch])
    by_key = {e.key(): e for e in profile.faults}
    assert by_key[f"{a}:0"].observability == pytest.approx(0.75)
    assert by_key[f"{a}:0:0:0"].observability == pytest.approx(0.5)


def test_profile_defaults_to_collapsed_universe(tiny):
    profile = analyze_netlist(tiny)
    faults, _ = collapse_faults(tiny)
    assert profile.n_faults == len(faults)


def test_predicted_coverage_monotone_and_bounded(tiny):
    profile = analyze_netlist(tiny)
    previous = 0.0
    for n in (1, 4, 16, 64, 256):
        coverage = profile.predicted_coverage(n)
        assert previous <= coverage <= 1.0
        previous = coverage
    assert TestabilityProfile(tiny, []).predicted_coverage(1) == 1.0


def test_coverage_curve_ends_at_window(tiny):
    profile = analyze_netlist(tiny)
    curve = profile.coverage_curve(max_patterns=256, points=6)
    assert curve[0]["patterns"] == 1.0
    assert curve[-1]["patterns"] == 256.0
    coverages = [point["coverage"] for point in curve]
    assert coverages == sorted(coverages)


def test_random_resistant_ranked_hardest_first():
    netlist = make_random_netlist(6, 40, seed=13)
    profile = analyze_netlist(netlist)
    resistant = profile.random_resistant(0.05)
    probabilities = [e.detection_probability for e in resistant]
    assert probabilities == sorted(probabilities)
    assert all(p < 0.05 for p in probabilities)
    # Undetectable faults always rank first in any positive threshold.
    undetectable = profile.undetectable()
    assert set(e.key() for e in undetectable) <= set(
        e.key() for e in resistant
    )


def test_undetectable_behind_constant():
    netlist = Netlist()
    a = netlist.new_input("a")
    zero = netlist.add_gate(GateType.CONST0, [])
    y = netlist.add_gate(GateType.AND, [a, zero])
    netlist.mark_output(y)
    profile = analyze_netlist(netlist, [Fault(y, 0)])
    entry = profile.faults[0]
    # Exciting y s-a-0 needs y=1, which never happens.
    assert entry.detection_probability == 0.0
    assert math.isinf(entry.expected_patterns())
    assert entry.escape_probability(10_000) == 1.0
    assert profile.undetectable() == [entry]
    assert profile.expected_patterns_for(1.0) is None


def test_expected_patterns_for_reaches_target(tiny):
    profile = analyze_netlist(tiny)
    n = profile.expected_patterns_for(0.99)
    assert n is not None
    assert profile.predicted_coverage(n) >= 0.99
    if n > 1:
        assert profile.predicted_coverage(n - 1) < 0.99


def test_fault_keys_round_trip_stem_and_branch():
    stem = FaultTestability(Fault(7, 1), 0.5, 0.5)
    branch = FaultTestability(Fault(7, 1, gate_index=3, pin=2), 0.5, 0.5)
    assert stem.key() == "7:1"
    assert branch.key() == "7:1:3:2"


def test_profile_json_is_bounded(tiny):
    profile = analyze_netlist(tiny)
    payload = profile.to_json(window=64, top=2, threshold=2.0)
    assert payload["kind"] == "testability-profile"
    assert payload["window"] == 64
    assert payload["n_faults"] == profile.n_faults
    # threshold=2.0 makes every fault "resistant"; top bounds the dump.
    assert payload["n_resistant"] == profile.n_faults
    assert len(payload["resistant"]) == 2
    assert 0.0 <= payload["predicted_coverage"] <= 1.0
    entry = payload["resistant"][0]
    assert set(entry) >= {
        "fault", "excitation", "observability",
        "detection_probability", "expected_patterns", "describe",
    }


def test_profile_json_default_threshold_is_window_inverse(tiny):
    profile = analyze_netlist(tiny)
    payload = profile.to_json()
    assert payload["threshold"] == pytest.approx(1.0 / DEFAULT_WINDOW)


def test_profile_counters_recorded(tiny):
    from repro import telemetry

    telemetry.reset()
    telemetry.enable()
    try:
        analyze_netlist(tiny)
        snapshot = telemetry.get_telemetry().metrics.snapshot()["counters"]
        spans = [s.name for s in telemetry.get_telemetry().tracer.snapshot()]
    finally:
        telemetry.disable()
        telemetry.reset()
    assert snapshot.get("analysis.profiles") == 1
    assert snapshot.get("analysis.faults_profiled", 0) > 0
    assert "analysis.profile" in spans
