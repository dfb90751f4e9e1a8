"""Property-based oracle: COP is exact wherever its independence holds.

COP multiplies probabilities as if the events were independent.  That is
true, not an approximation, on two classes of netlist:

* fanout-free trees, where every gate's inputs depend on disjoint sets
  of primary inputs;
* one shared input fanning out into several such trees whose other
  inputs are private: each tree's sensitisation of the shared input
  depends on that tree's private inputs only, so the branches of the
  stem are observed independently.

On both, :func:`repro.analysis.random_testability.analyze_netlist` must
give every fault of the full universe, stems and branches alike, exactly
the fraction of all 2^n input vectors that detect it, as
:meth:`FaultSimulator.detects` counts them.  On trees,
:func:`signal_probabilities` must also give the exact 1-probability of
every net under biased, independent inputs.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Sequence

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from repro.analysis.random_testability import (  # noqa: E402
    analyze_netlist,
    signal_probabilities,
)
from repro.faultsim.faults import full_fault_universe  # noqa: E402
from repro.faultsim.simulator import FaultSimulator  # noqa: E402
from repro.netlist.evaluate import evaluate_single  # noqa: E402
from repro.netlist.gates import GateType  # noqa: E402
from repro.netlist.netlist import Netlist  # noqa: E402

_MULTI_INPUT = [
    GateType.AND, GateType.NAND, GateType.OR,
    GateType.NOR, GateType.XOR, GateType.XNOR,
]
_WEIGHTS = [0.0, 1 / 8, 1 / 4, 1 / 2, 3 / 4, 1.0]


# ------------------------------------------------------------- strategies

def _maybe_unary(draw, netlist: Netlist, net: int) -> int:
    """``net``, or a NOT or BUF gate reading it."""
    gtype = draw(st.sampled_from([None, GateType.NOT, GateType.BUF]))
    return net if gtype is None else netlist.add_gate(gtype, [net])


def _tree(draw, netlist: Netlist, leaves: Sequence[int]) -> int:
    """Combine ``leaves`` into one fanout-free tree of 2-3-input gates,
    each leaf and gate output optionally behind a NOT or BUF; return the
    root."""
    pool = [_maybe_unary(draw, netlist, net) for net in leaves]
    while len(pool) > 1:
        order = draw(st.permutations(pool))
        width = min(draw(st.integers(2, 3)), len(order))
        gtype = draw(st.sampled_from(_MULTI_INPUT))
        out = netlist.add_gate(gtype, list(order[:width]))
        pool = list(order[width:]) + [_maybe_unary(draw, netlist, out)]
    return pool[0]


@st.composite
def trees(draw):
    """A fanout-free tree over 2-7 primary inputs."""
    netlist = Netlist("tree")
    leaves = netlist.new_inputs(draw(st.integers(2, 7)), "i")
    netlist.mark_output(_tree(draw, netlist, leaves))
    return netlist


@st.composite
def shared_fanout(draw):
    """One shared input feeding 2-3 trees, each with 1-2 private inputs."""
    netlist = Netlist("shared")
    shared = netlist.new_input("s")
    for index in range(draw(st.integers(2, 3))):
        private = netlist.new_inputs(draw(st.integers(1, 2)), f"t{index}_")
        leaves = draw(st.permutations([shared] + private))
        netlist.mark_output(_tree(draw, netlist, leaves))
    return netlist


# ------------------------------------------------------------- references

def _vectors(netlist: Netlist) -> List[Sequence[int]]:
    return list(itertools.product((0, 1), repeat=len(netlist.primary_inputs)))


def _assert_exact_detection(netlist: Netlist) -> None:
    faults = full_fault_universe(netlist)
    profile = analyze_netlist(netlist, faults)
    simulator = FaultSimulator(netlist)
    vectors = _vectors(netlist)
    for entry in profile.faults:
        detected = sum(simulator.detects(entry.fault, vector) for vector in vectors)
        exact = detected / len(vectors)
        assert abs(entry.detection_probability - exact) <= 1e-9, entry.key()


# ------------------------------------------------------------- properties

@given(trees())
def test_cop_is_exact_on_fanout_free_trees(netlist):
    _assert_exact_detection(netlist)


@given(shared_fanout())
def test_cop_is_exact_on_one_stem_fanning_out_to_private_trees(netlist):
    """Branch faults are observed through their own pin only, and the
    stem through the independent union of its branches."""
    _assert_exact_detection(netlist)


@given(trees(), st.data())
def test_signal_probabilities_take_per_input_weights(netlist, data):
    pis = netlist.primary_inputs
    weights = dict(zip(pis, data.draw(
        st.lists(st.sampled_from(_WEIGHTS), min_size=len(pis), max_size=len(pis))
    )))
    probabilities = signal_probabilities(netlist, weights)
    exact = dict.fromkeys(probabilities, 0.0)
    for vector in _vectors(netlist):
        assignment = dict(zip(pis, vector))
        weight = math.prod(
            weights[net] if bit else 1.0 - weights[net]
            for net, bit in assignment.items()
        )
        for net, value in evaluate_single(netlist, assignment).items():
            if value:
                exact[net] += weight
    for net, probability in probabilities.items():
        assert abs(probability - exact[net]) <= 1e-9, net
