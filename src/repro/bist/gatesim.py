"""Gate-level sequential simulation with multi-machine fault injection.

The most faithful layer of the reproduction: the circuit's blocks are
expanded to gates once, registers hold state across cycles, and up to W
*machines* run in parallel in one packed pass — bit ``m`` of every net
carries machine ``m``'s value.  Machine 0 is conventionally the fault-free
(golden) circuit; each other machine carries one permanent stuck-at fault,
injected by masking the faulted net's packed value after its driver
evaluates.  This is what lets a BIST session compute a golden signature and
dozens of faulty signatures in a single sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import SimulationError
from repro.netlist.evaluate import Evaluator
from repro.netlist.netlist import Netlist
from repro.rtl.circuit import RTLCircuit
from repro.rtl.lower import lower_nets


@dataclass(frozen=True)
class MachineFault:
    """A stuck-at fault bound to one simulation machine."""

    machine: int
    net: int       # net id in the expanded netlist
    stuck_at: int


class SequentialGateSimulator:
    """Cycle-accurate gate-level simulator for an RTL circuit.

    The expanded combinational netlist treats circuit PIs *and* register
    outputs as inputs; register inputs are captured at each clock edge.
    """

    def __init__(self, circuit: RTLCircuit):
        circuit.validate()
        self.circuit = circuit
        self.netlist = Netlist(f"{circuit.name}:gates")
        values: Dict[int, List[int]] = {}

        self.pi_bits: Dict[str, List[int]] = {}
        for net_index in circuit.primary_inputs:
            net = circuit.nets[net_index]
            bits = self.netlist.new_inputs(net.width, prefix=f"{net.name}_")
            values[net_index] = bits
            self.pi_bits[net.name] = bits

        self.register_out_bits: Dict[str, List[int]] = {}
        for register in circuit.registers.values():
            bits = self.netlist.new_inputs(
                register.width, prefix=f"{register.name}_q"
            )
            values[register.output_net] = bits
            self.register_out_bits[register.name] = bits

        lower_nets(circuit, self.netlist, values, range(len(circuit.nets)))
        self.register_in_bits: Dict[str, List[int]] = {
            register.name: values[register.input_net]
            for register in circuit.registers.values()
        }
        self.po_bits: Dict[str, List[int]] = {
            circuit.nets[n].name: values[n] for n in circuit.primary_outputs
        }
        self._evaluator = Evaluator(self.netlist)

    # ------------------------------------------------------------- running

    def run(
        self,
        cycles: int,
        drive: Callable[[int], Dict[str, int]],
        machines: int = 1,
        faults: Sequence[MachineFault] = (),
        forced_registers: Optional[Callable[[int], Dict[str, int]]] = None,
        observe: Optional[Callable[[int, Dict[int, int]], None]] = None,
        reset_state: int = 0,
        packed_register_state: Optional[Dict[str, List[int]]] = None,
    ) -> List[Dict[str, int]]:
        """Simulate ``cycles`` clock cycles with ``machines`` parallel copies.

        ``drive(t)`` returns PI words for cycle t (applied to every machine).
        ``forced_registers(t)`` optionally overrides named registers' output
        words for cycle t (how a TPG drives kernel input registers).
        ``faults`` pins nets of individual machines to stuck values.
        ``observe(t, net_values)`` sees every packed net value per cycle.
        ``packed_register_state`` initialises registers with explicit packed
        per-bit values (per machine), overriding ``reset_state`` — used by
        the CSTP session, whose ring state differs between machines.

        Returns the per-cycle PO words of machine 0.
        """
        if machines < 1 or machines > 1 << 16:
            raise SimulationError("1..65536 machines supported")
        for fault in faults:
            if not 0 <= fault.machine < machines:
                raise SimulationError("fault bound to unknown machine")
        mask = (1 << machines) - 1
        # Per-net fault masks: clear the machine's bit, then OR its value.
        clear: Dict[int, int] = {}
        force: Dict[int, int] = {}
        for fault in faults:
            bit = 1 << fault.machine
            clear[fault.net] = clear.get(fault.net, 0) | bit
            if fault.stuck_at:
                force[fault.net] = force.get(fault.net, 0) | bit

        def apply_fault(net: int, value: int) -> int:
            c = clear.get(net)
            if c is None:
                return value
            return (value & ~c) | force.get(net, 0)

        if packed_register_state is not None:
            state = {
                name: [word & mask for word in packed_register_state[name]]
                for name in self.register_out_bits
            }
        else:
            state = {
                name: [
                    (mask if (reset_state >> i) & 1 else 0)
                    for i in range(len(bits))
                ]
                for name, bits in self.register_out_bits.items()
            }
        # The evaluator's compiled program with each gate's fault masks
        # folded into its step (None where no machine faults its output).
        program = [
            (output, inputs, evaluate, clear.get(output), force.get(output, 0))
            for output, inputs, evaluate in self._evaluator.program
        ]
        trace: List[Dict[str, int]] = []

        for t in range(cycles):
            values: Dict[int, int] = {}
            pi_words = drive(t)
            for name, bits in self.pi_bits.items():
                word = pi_words[name]
                for position, net in enumerate(bits):
                    packed = mask if (word >> position) & 1 else 0
                    values[net] = apply_fault(net, packed)
            overrides = forced_registers(t) if forced_registers else {}
            for name, bits in self.register_out_bits.items():
                if name in overrides:
                    word = overrides[name]
                    for position, net in enumerate(bits):
                        packed = mask if (word >> position) & 1 else 0
                        values[net] = apply_fault(net, packed)
                else:
                    for position, net in enumerate(bits):
                        values[net] = apply_fault(net, state[name][position])
            for output, inputs, evaluate, cleared, stuck in program:
                value = evaluate([values[n] for n in inputs], mask)
                values[output] = (
                    value if cleared is None else (value & ~cleared) | stuck
                )
            # Clock edge: capture register inputs.
            for name, bits in self.register_in_bits.items():
                state[name] = [values[net] for net in bits]
            if observe is not None:
                observe(t, values)
            trace.append(
                {
                    name: sum(
                        ((values[net] >> 0) & 1) << position
                        for position, net in enumerate(bits)
                    )
                    for name, bits in self.po_bits.items()
                }
            )
        return trace

    def machine_word(self, values: Dict[int, int], bits: List[int], machine: int) -> int:
        """Extract one machine's word from packed net values."""
        word = 0
        for position, net in enumerate(bits):
            if (values[net] >> machine) & 1:
                word |= 1 << position
        return word
