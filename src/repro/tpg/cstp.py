"""Circular self-test path (CSTP) — the paper's contrast technique [4].

Krasniewski & Pilarski's CSTP chains *all* register cells into one circular
path; in test mode each cell captures its functional input XORed with its
predecessor cell, so the register ring is simultaneously pattern generator
and compactor.  The paper contrasts it with the BIBS TPG: CSTP kernels
"can also be sequential and need not be balanced", but applying an
(effectively) exhaustive test set "requires about T * 2^M test patterns,
where T varies from 4 to 8", versus the BIBS TPG's guaranteed 2^M - 1 + d
— and CSTP's patterns are not functionally exhaustive.

:class:`CSTPSession` runs the scheme cycle-accurately on the same
gate-level engine as :class:`~repro.bist.session.BISTSession`, so the two
styles can be compared fault for fault.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.bist.gatesim import MachineFault, SequentialGateSimulator, fault_passes
from repro.errors import SimulationError
from repro.faultsim.faults import Fault
from repro.rtl.circuit import RTLCircuit


@dataclass
class CSTPResult:
    """Outcome of a CSTP run over a fault list."""

    cycles: int
    golden_state: Tuple[int, ...]
    detected: List[Fault] = field(default_factory=list)
    undetected: List[Fault] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        total = len(self.detected) + len(self.undetected)
        return len(self.detected) / total if total else 1.0


class CSTPSession:
    """Circular self-test path over every register cell of a circuit.

    The ring order concatenates registers in name order, LSB first; the
    final state (the ring's contents) is the test signature.
    """

    def __init__(self, circuit: RTLCircuit, seed: int = 1):
        self.circuit = circuit
        self.simulator = SequentialGateSimulator(circuit)
        self.ring: List[Tuple[str, int]] = []
        # Each register's cells are one slice of the ring.
        self._cells: Dict[str, slice] = {}
        for name in sorted(circuit.registers):
            width = circuit.registers[name].width
            self._cells[name] = slice(len(self.ring), len(self.ring) + width)
            self.ring.extend((name, bit) for bit in range(width))
        if not self.ring:
            raise SimulationError("CSTP needs at least one register cell")
        self.seed = seed
        self._ring_inputs = [
            self.simulator.register_in_bits[name][bit] for name, bit in self.ring
        ]
        self._pi_defaults = {
            circuit.nets[n].name: 0 for n in circuit.primary_inputs
        }

    def _initial_state(self, machines: int) -> List[int]:
        mask = (1 << machines) - 1
        return [
            mask if (self.seed >> (i % 30)) & 1 else 0
            for i in range(len(self.ring))
        ]

    def _clock(
        self, state: List[int], machine_faults: Sequence[MachineFault] = ()
    ) -> List[int]:
        """One test-mode clock of the ring: cell i captures its functional
        input XOR cell i-1.  Bit m of each cell's word is machine m; machine
        0 is fault-free and ``machine_faults`` bind machines 1, 2, ...."""
        captured: List[int] = []

        def observe(_t: int, values: Dict[int, int]) -> None:
            captured.extend(values[net] for net in self._ring_inputs)

        machines = len(machine_faults) + 1
        self.simulator.run(
            1,
            lambda _t: self._pi_defaults,
            machines=machines,
            faults=machine_faults,
            observe=observe,
            packed_register_state={
                name: state[cells] for name, cells in self._cells.items()
            },
        )
        mask = (1 << machines) - 1
        return [(captured[i] ^ state[i - 1]) & mask for i in range(len(state))]

    def fault_universe(self) -> List[Fault]:
        from repro.faultsim.collapse import collapse_faults

        representatives, _ = collapse_faults(self.simulator.netlist)
        return representatives

    def input_pattern_coverage(
        self,
        registers: Sequence[str],
        max_cycles: int,
        checkpoints: Sequence[int] = (),
    ) -> Dict[int, float]:
        """Fraction of the registers' joint input space applied over time.

        The paper's CSTP contrast: the ring's states are not a maximal-
        length sequence, so covering all 2^M patterns at a kernel's input
        registers takes "about T * 2^M" cycles, T in [4, 8] — versus the
        BIBS TPG's guaranteed single period.  Returns {cycles: fraction}
        at each checkpoint (and at ``max_cycles``); iteration stops early
        once coverage reaches 1.0.
        """
        total_width = sum(self.circuit.registers[name].width for name in registers)
        space = 1 << total_width
        marks = sorted(set(list(checkpoints) + [max_cycles]))
        cell_positions = [
            self.ring.index((name, bit))
            for name in registers
            for bit in range(self.circuit.registers[name].width)
        ]
        state = self._initial_state(1)
        seen: Set[int] = set()
        result: Dict[int, float] = {}
        for t in range(max_cycles):
            pattern = 0
            for position, cell in enumerate(cell_positions):
                if state[cell] & 1:
                    pattern |= 1 << position
            seen.add(pattern)
            state = self._clock(state)
            if t + 1 in marks or len(seen) == space:
                result[t + 1] = len(seen) / space
                if len(seen) == space:
                    break
        if max_cycles not in result and (not result or max(result) < max_cycles):
            result[max_cycles] = len(seen) / space
        return result

    def run(self, cycles: int, faults: Sequence[Fault] = ()) -> CSTPResult:
        """Run the circular path for ``cycles`` clocks against a fault list,
        one pass of :func:`~repro.bist.gatesim.fault_passes` at a time."""
        golden: Tuple[int, ...] = ()
        detected: List[Fault] = []
        undetected: List[Fault] = []
        for chunk, machine_faults in fault_passes(faults):
            state = self._initial_state(len(chunk) + 1)
            for _ in range(cycles):
                state = self._clock(state, machine_faults)
            # Machine m's signature is bit m of every cell.
            golden = tuple(word & 1 for word in state)
            for machine, fault in enumerate(chunk, 1):
                signature = tuple((word >> machine) & 1 for word in state)
                if signature != golden:
                    detected.append(fault)
                else:
                    undetected.append(fault)
        return CSTPResult(cycles, golden, detected, undetected)
