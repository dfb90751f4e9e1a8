"""RTL-to-gates lowering: the one block expansion behind every gate netlist.

Table 2's kernels, the BIST sessions' gate-level machine and Section 2's
time frames differ only in what a register output becomes, and the caller
says which by what it seeds.  A seeded register output is a primary
input, a constant or the previous frame's bits; an unseeded one is a wire
to its register's input, which is exact per pattern for balanced kernels
(Theorem 1: they are 1-step functionally testable).
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.errors import SimulationError
from repro.netlist.netlist import Netlist
from repro.rtl.circuit import RTLCircuit


def lower_nets(
    circuit: RTLCircuit,
    netlist: Netlist,
    values: Dict[int, List[int]],
    nets: Iterable[int],
    prefix: str = "",
) -> None:
    """Expand into ``netlist`` the blocks that drive ``nets``, in order.

    ``values`` maps an RTL net to its gate-level bits, LSB first; the
    caller seeds it, and it gains every net resolved here.  Each block is
    expanded once, on demand and depth first with its inputs in port
    order, its gates named ``prefix`` + block name and recorded under
    that name in :attr:`Netlist.blocks`.  An unseeded primary input is a
    :class:`SimulationError`.
    """
    drivers = circuit.drivers()

    def resolve(net: int) -> List[int]:
        if net in values:
            return values[net]
        driver = drivers[net]
        if driver.kind == "register":
            values[net] = resolve(circuit.registers[driver.name].input_net)
        elif driver.kind == "block":
            block = circuit.blocks[driver.name]
            if block.gate_expander is None:
                raise SimulationError(f"block {block.name} has no gate expander")
            inputs = [resolve(n) for n in block.input_nets]
            first = len(netlist.gates)
            outputs = block.gate_expander(netlist, inputs, prefix + block.name)
            netlist.blocks[prefix + block.name] = list(
                range(first, len(netlist.gates))
            )
            for out_net, bits in zip(block.output_nets, outputs):
                values[out_net] = list(bits)
        else:
            raise SimulationError(
                f"net {circuit.nets[net].name} is fed by an unregistered "
                "primary input; BIST needs a PI register"
            )
        return values[net]

    for net in nets:
        resolve(net)
