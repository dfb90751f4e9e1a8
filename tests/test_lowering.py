"""The one RTL-to-gates lowering: pinned netlists and its error paths.

Run keys, golden fixtures and the benchmark suite's references all hash
``Netlist.fingerprint()``, so every way the library lowers an RTL circuit
is pinned here: Table 2's BIBS and KA-85 kernels, the gate-level netlist
of the BIST sessions (every register an input), time frames (registers
between frames) and the standing scenarios.  Each group's digest is a
sha256 over its sorted fingerprints.
"""

import hashlib

import pytest

from repro.bist.gatesim import SequentialGateSimulator
from repro.core.bibs import make_bibs_testable
from repro.core.flow import lower_kernel_to_netlist
from repro.core.ka85 import make_ka_testable
from repro.datapath.compiler import Add, Mul, Var, compile_datapath
from repro.datapath.filters import all_filters
from repro.errors import SimulationError
from repro.faultsim.sequential import unroll
from repro.graph.build import build_circuit_graph
from repro.library.figures import figure4
from repro.library.ka_example import figure9
from repro.library.scenarios import SCENARIOS, attach_generic_expanders
from repro.netlist.gates import GateType
from repro.rtl.circuit import RTLCircuit

PINNED = {
    "kernels": (
        44, "41fd9d39ab7b0303f6750676329916d28a0efec2dbdf1fe22a64afb38693b52d"
    ),
    "gate_level": (
        6, "15447ea00304599d46554f318e3da8e78286fa049db1188c6c1157e5544fad73"
    ),
    "frames": (
        18, "bcec9ec865e3d9d12d12d09af0edf9cb369a4b36d0d0648500a27e63118149ca"
    ),
    "scenarios": (
        5, "14d0fec919a336a3c4b0c93b0a8a8ea08dcb9bc861d6b81da7db9daa5bf5d6bc"
    ),
}


def _circuits():
    circuits = {name: f.circuit for name, f in all_filters().items()}
    circuits["mac4"] = compile_datapath(
        [("o", Add(Mul(Var("a"), Var("b")), Var("c")))], "mac4", width=4
    ).circuit
    for build in (figure4, figure9):
        circuit = build()
        attach_generic_expanders(circuit)
        circuits[circuit.name] = circuit
    return circuits


def _digest(netlists):
    fingerprints = sorted(netlist.fingerprint() for netlist in netlists)
    return len(fingerprints), hashlib.sha256(
        "\n".join(fingerprints).encode()
    ).hexdigest()


def test_lowered_netlists_keep_their_fingerprints():
    circuits = _circuits()
    kernels = []
    for circuit in circuits.values():
        graph = build_circuit_graph(circuit)
        for design in (make_bibs_testable(graph), make_ka_testable(graph).design):
            kernels.extend(
                lower_kernel_to_netlist(circuit, kernel)
                for kernel in design.kernels
            )
    groups = {
        "kernels": kernels,
        "gate_level": [
            SequentialGateSimulator(c).netlist for c in circuits.values()
        ],
        "frames": [
            unroll(c, k).netlist for c in circuits.values() for k in (1, 2, 3)
        ],
        "scenarios": [build() for build in SCENARIOS.values()],
    }
    assert {name: _digest(group) for name, group in groups.items()} == PINNED


# ------------------------------------------------------------ error paths

def _inverters(netlist, inputs, prefix):
    return [[
        netlist.add_gate(GateType.NOT, [bit], name=f"{prefix}_n{i}")
        for i, bit in enumerate(inputs[0])
    ]]


def _xors(netlist, inputs, prefix):
    a, b = inputs
    return [[
        netlist.add_gate(GateType.XOR, [x, y], name=f"{prefix}_x{i}")
        for i, (x, y) in enumerate(zip(a, b))
    ]]


def _one_block(expander):
    """a -> register Ra -> block B -> register Rb -> y."""
    circuit = RTLCircuit("one_block")
    a = circuit.new_input("a", 2)
    ra = circuit.add_net("ra", 2)
    circuit.add_register("Ra", a, ra)
    mid = circuit.add_net("mid", 2)
    circuit.add_block("B", [ra], [mid], gate_expander=expander)
    y = circuit.new_output("y", 2)
    circuit.add_register("Rb", mid, y)
    return circuit


def _pi_fed():
    """Block C reads register Ra and the unregistered primary input b."""
    circuit = RTLCircuit("pi_fed")
    a = circuit.new_input("a", 2)
    b = circuit.new_input("b", 2)
    ra = circuit.add_net("ra", 2)
    circuit.add_register("Ra", a, ra)
    mid = circuit.add_net("mid", 2)
    circuit.add_block("C", [ra, b], [mid], gate_expander=_xors)
    y = circuit.new_output("y", 2)
    circuit.add_register("Rc", mid, y)
    return circuit


def _logic_kernel(circuit):
    design = make_bibs_testable(build_circuit_graph(circuit))
    return next(k for k in design.kernels if k.logic_blocks)


LOWERINGS = {
    "kernel": lambda c: lower_kernel_to_netlist(c, _logic_kernel(c)),
    "gate_level": lambda c: SequentialGateSimulator(c).netlist,
    "frames": lambda c: unroll(c, 2).netlist,
}


@pytest.mark.parametrize("lowering", sorted(LOWERINGS))
def test_block_without_gate_expander_is_named(lowering):
    assert LOWERINGS[lowering](_one_block(_inverters)).gates
    with pytest.raises(SimulationError, match="block B has no gate expander"):
        LOWERINGS[lowering](_one_block(None))


def test_kernel_fed_by_unregistered_input_names_the_net():
    with pytest.raises(SimulationError, match="net b is fed by an unregistered"):
        LOWERINGS["kernel"](_pi_fed())


@pytest.mark.parametrize("lowering, name", [
    ("gate_level", "b_1"),
    ("frames", "f1_b_1"),
])
def test_every_primary_input_is_seeded_outside_kernels(lowering, name):
    # The gate-level and time-frame lowerings seed every primary input,
    # so the same circuit lowers, with b's bits as netlist inputs.
    netlist = LOWERINGS[lowering](_pi_fed())
    assert netlist.find_net(name) in netlist.primary_inputs


@pytest.mark.parametrize("lowering", sorted(LOWERINGS))
def test_block_map_lists_each_gate_under_its_block(lowering):
    """``lower_nets`` records every block's gates in ``Netlist.blocks``
    under the name its gates carry; the kernel lowering's pruning keeps the
    map in step with the gates, and the fingerprint ignores the map."""
    netlist = LOWERINGS[lowering](all_filters()["c5a2m"].circuit)
    listed = {
        gate: name for name, gates in netlist.blocks.items() for gate in gates
    }
    assert len(listed) == sum(map(len, netlist.blocks.values()))
    assert listed == {
        index: name
        for index, gate in enumerate(netlist.gates)
        for name in netlist.blocks
        if gate.name.startswith(name + "_")
    }
    fingerprint = netlist.fingerprint()
    netlist.blocks = {}
    assert netlist.fingerprint() == fingerprint
