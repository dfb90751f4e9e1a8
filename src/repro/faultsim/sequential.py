"""Time-frame expansion and k-pattern detectability (Section 2).

The paper motivates balanced kernels by fault detectability: in an
unbalanced circuit some stuck-at faults need a *sequence* of k test vectors
(k-pattern detectable faults), while every detectable fault of a balanced
circuit is single-pattern detectable.  This module measures k empirically:
an RTL circuit is unrolled into k combinational time frames (registers
become frame-to-frame wires, initial state reset to 0), a permanent fault
is injected into *every* frame copy of its site, and detection is sought
over input sequences.

Only stem faults on block-boundary nets are analysed (one fault copy per
frame is forced with an evaluator override); that is exactly the
granularity of the paper's Figure-1 argument.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import SimulationError
from repro.netlist.evaluate import Evaluator
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.rtl.circuit import RTLCircuit
from repro.rtl.lower import lower_nets


@dataclass
class UnrolledCircuit:
    """A k-frame combinational expansion of an RTL circuit."""

    circuit: RTLCircuit
    frames: int
    netlist: Netlist
    # frame -> PI name -> bit nets (LSB first)
    frame_inputs: List[Dict[str, List[int]]]
    # frame -> RTL net name -> bit nets (every resolved net, for fault sites)
    frame_nets: List[Dict[str, List[int]]]

    def fault_site_copies(self, net_name: str, bit: int) -> List[int]:
        """The unrolled nets carrying (net, bit) in every frame."""
        copies = []
        for frame in range(self.frames):
            nets = self.frame_nets[frame].get(net_name)
            if nets is not None:
                copies.append(nets[bit])
        if not copies:
            raise SimulationError(f"net {net_name} not present in any frame")
        return copies


def unroll(circuit: RTLCircuit, frames: int) -> UnrolledCircuit:
    """Expand ``circuit`` into ``frames`` combinational time frames.

    Frame 0's register outputs are the reset state (constant 0); frame t's
    register outputs are frame t-1's register inputs.  Every block must
    have a gate expander.
    """
    if frames < 1:
        raise SimulationError("need at least one time frame")
    circuit.validate()
    netlist = Netlist(f"{circuit.name}x{frames}")
    frame_inputs: List[Dict[str, List[int]]] = []
    frame_nets: List[Dict[str, List[int]]] = []
    previous: Dict[int, List[int]] = {}

    for frame in range(frames):
        values: Dict[int, List[int]] = {}
        pi_map: Dict[str, List[int]] = {}
        for net_index in circuit.primary_inputs:
            net = circuit.nets[net_index]
            bits = netlist.new_inputs(net.width, prefix=f"f{frame}_{net.name}_")
            values[net_index] = bits
            pi_map[net.name] = bits

        # Register outputs: reset constants in frame 0, else last frame's
        # register input values.
        for register in circuit.registers.values():
            if frame == 0:
                values[register.output_net] = [
                    netlist.add_gate(
                        GateType.CONST0, [], name=f"f0_{register.name}_q{i}"
                    )
                    for i in range(register.width)
                ]
            else:
                values[register.output_net] = previous[register.input_net]

        lower_nets(
            circuit, netlist, values, range(len(circuit.nets)), f"f{frame}_"
        )
        for net_index in circuit.primary_outputs:
            for bit in values[net_index]:
                netlist.mark_output(bit)
        frame_inputs.append(pi_map)
        frame_nets.append(
            {circuit.nets[i].name: values[i] for i in range(len(circuit.nets))}
        )
        previous = values

    return UnrolledCircuit(circuit, frames, netlist, frame_inputs, frame_nets)


@dataclass(frozen=True)
class SequentialFault:
    """A permanent stuck-at fault on one bit of an RTL net."""

    net_name: str
    bit: int
    stuck_at: int


def detects_sequence(
    unrolled: UnrolledCircuit,
    fault: SequentialFault,
    sequence: Sequence[Dict[str, int]],
) -> bool:
    """Does this input sequence detect the (permanent) fault?

    ``sequence`` supplies one PI-name -> word mapping per frame; detection
    means any PO bit differs in any frame.
    """
    if len(sequence) != unrolled.frames:
        raise SimulationError("sequence length must equal the frame count")
    evaluator = Evaluator(unrolled.netlist)
    assignment: Dict[int, int] = {}
    for frame, vector in enumerate(sequence):
        for name, bits in unrolled.frame_inputs[frame].items():
            word = vector[name]
            for position, net in enumerate(bits):
                assignment[net] = (word >> position) & 1
    good = evaluator.run(assignment, 1)
    copies = unrolled.fault_site_copies(fault.net_name, fault.bit)
    overrides = {net: fault.stuck_at for net in copies}
    bad = evaluator.run(assignment, 1, overrides=overrides)
    return any(
        good[po] != bad[po] for po in unrolled.netlist.primary_outputs
    )


def minimum_detecting_length(
    circuit: RTLCircuit,
    fault: SequentialFault,
    max_k: int = 4,
    exhaustive_width_limit: int = 12,
    random_trials: int = 2000,
    seed: int = 1994,
) -> Optional[int]:
    """Smallest k such that some k-vector sequence detects the fault.

    Exhaustive over all sequences when the total input-bit count across
    frames is small, random search otherwise.  Returns None if no sequence
    up to ``max_k`` detects the fault (it may still be detectable with a
    longer sequence, or be sequentially redundant).
    """
    pi_widths = {
        circuit.nets[n].name: circuit.nets[n].width
        for n in circuit.primary_inputs
    }
    total_width = sum(pi_widths.values())
    rng = random.Random(seed)
    for k in range(1, max_k + 1):
        unrolled = unroll(circuit, k)
        bits = total_width * k
        if bits <= exhaustive_width_limit:
            space = []
            for name, width in pi_widths.items():
                space.append([(name, v) for v in range(1 << width)])
            frame_choices = list(itertools.product(*space))
            for combo in itertools.product(frame_choices, repeat=k):
                sequence = [dict(frame) for frame in combo]
                if detects_sequence(unrolled, fault, sequence):
                    return k
        else:
            for _ in range(random_trials):
                sequence = [
                    {name: rng.getrandbits(width) for name, width in pi_widths.items()}
                    for _ in range(k)
                ]
                if detects_sequence(unrolled, fault, sequence):
                    return k
    return None
