"""Certificates of undetectability that need no search.

Two sound checks prove a stuck-at fault redundant without PODEM:

* ``unobservable``: the fault site reaches no primary output.
* ``block``: the fault leaves its block's function unchanged.  A block is
  the set of gates one RTL block was lowered to (:attr:`Netlist.blocks`).
  Its inputs are the nets its gates read and do not drive; its outputs
  are the nets it drives that a gate outside it reads or that are primary
  outputs.  If every output is equal, good against faulty, on all 2^k
  block inputs, the rest of the netlist sees the same function of the
  same inputs, so no pattern detects the fault.  The check holds for any
  set of gates, so a coarse or odd map costs speed, never soundness.

Blocks of up to :data:`MAX_BLOCK_INPUTS` inputs are enumerated in slices
of :data:`SLICE_PATTERNS` patterns, evaluated with the packed gate
functions, and a fault is dropped at the first slice where an output
differs.  A fault on a primary input has no block.

A block verdict depends only on the block's structure and the fault's
place in it, so a :data:`BlockVerdicts` cache keeps it under the
block's canonical digest (its gates with nets renumbered, plus its
outputs) and that place, and one check settles a fault in every copy of
a block.
"""

from __future__ import annotations

import hashlib
import heapq
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.faultsim.faults import Fault
from repro.netlist.gates import GATE_EVAL, GateEval
from repro.netlist.netlist import Netlist

#: Widest block enumerated exhaustively (2^20 patterns).
MAX_BLOCK_INPUTS = 20
#: Patterns per packed slice of an exhaustive enumeration.
SLICE_PATTERNS = 1 << 12

UNOBSERVABLE = "unobservable"
BLOCK = "block"
#: Every certificate's name, in the order they are tried.
CERTIFICATES = (UNOBSERVABLE, BLOCK)

#: Where a fault sits in a block: ``(step, pin, stuck_at)`` with ``pin``
#: -1 for the output stem of the block's ``step``-th gate.
Position = Tuple[int, int, int]

#: Block verdicts by ``(digest, position)``: True when the fault leaves the
#: block's function unchanged.  Scope one to a sweep:
#: :func:`repro.core.flow.compare_tdms` makes one per call and shares it by
#: both designs' kernels and every seed.
BlockVerdicts = Dict[Tuple[str, Position], bool]


def certify(
    netlist: Netlist,
    faults: Sequence[Fault],
    verdicts: Optional[BlockVerdicts] = None,
) -> Dict[Fault, str]:
    """The faults of ``faults`` a certificate proves undetectable, each
    mapped to the name of the first certificate that does."""
    if verdicts is None:
        verdicts = {}
    observable = netlist.fanin_nets(netlist.primary_outputs)
    block_of = {
        gate: name for name, gates in netlist.blocks.items() for gate in gates
    }
    certified: Dict[Fault, str] = {}
    by_block: Dict[str, List[Fault]] = {}
    for fault in faults:
        gate = netlist.driver_of(fault.net) if fault.is_stem else fault.gate_index
        site = fault.net if fault.is_stem else netlist.gates[gate].output
        if site not in observable:
            certified[fault] = UNOBSERVABLE
        elif gate in block_of:
            by_block.setdefault(block_of[gate], []).append(fault)
    if by_block:
        fanout = netlist.fanout_map()
        for name, members in by_block.items():
            block = _Block(netlist, netlist.blocks[name], fanout)
            if len(block.inputs) > MAX_BLOCK_INPUTS:
                continue
            for fault in block.unchanged(members, verdicts):
                certified[fault] = BLOCK
    return certified


class _Block:
    """One block as a small netlist of its own, over local net ids."""

    def __init__(self, netlist: Netlist, gates: Sequence[int],
                 fanout: Dict[int, List[int]]):
        members = set(gates)
        # Each gate after the block gates driving it, in gate-index order
        # otherwise, so every copy of a block is walked alike.
        pending = {index: 0 for index in members}
        readers: Dict[int, List[int]] = {}
        for index in members:
            for net in netlist.gates[index].inputs:
                driver = netlist.driver_of(net)
                if driver in members:
                    pending[index] += 1
                    readers.setdefault(driver, []).append(index)
        ready = [index for index, count in pending.items() if count == 0]
        heapq.heapify(ready)
        order: List[int] = []
        while ready:
            index = heapq.heappop(ready)
            order.append(index)
            for reader in readers.get(index, ()):
                pending[reader] -= 1
                if pending[reader] == 0:
                    heapq.heappush(ready, reader)
        self.netlist = netlist
        self.step = {index: step for step, index in enumerate(order)}
        local: Dict[int, int] = {}  # netlist net -> local net id
        self.inputs: List[int] = []
        self.program: List[Tuple[int, Tuple[int, ...], GateEval]] = []
        shape: List[Tuple[str, Tuple[int, ...]]] = []
        for index in order:
            gate = netlist.gates[index]
            for net in gate.inputs:
                if net not in local:
                    local[net] = len(local)
                    self.inputs.append(local[net])
            ins = tuple(local[net] for net in gate.inputs)
            local[gate.output] = len(local)
            self.program.append((local[gate.output], ins, GATE_EVAL[gate.gtype]))
            shape.append((gate.gtype.value, ins))
        primary_outputs = set(netlist.primary_outputs)
        self.outputs = [
            local[netlist.gates[index].output]
            for index in order
            if netlist.gates[index].output in primary_outputs
            or any(reader not in members
                   for reader in fanout.get(netlist.gates[index].output, ()))
        ]
        self.n_nets = len(local)
        self.digest = hashlib.sha256(
            repr((shape, self.outputs)).encode()
        ).hexdigest()

    def position(self, fault: Fault) -> Position:
        if fault.is_stem:
            return self.step[self.netlist.driver_of(fault.net)], -1, fault.stuck_at
        return self.step[fault.gate_index], fault.pin, fault.stuck_at

    def unchanged(self, faults: Sequence[Fault],
                  verdicts: BlockVerdicts) -> List[Fault]:
        """The faults of ``faults``, all in this block, that leave every
        block output equal on all block inputs."""
        unknown: Dict[Position, List[Fault]] = {}
        same: List[Fault] = []
        for fault in faults:
            position = self.position(fault)
            known = verdicts.get((self.digest, position))
            if known is None:
                unknown.setdefault(position, []).append(fault)
            elif known:
                same.append(fault)
        if unknown:
            differ = self._differing(list(unknown))
            for position, group in unknown.items():
                verdicts[(self.digest, position)] = position not in differ
                if position not in differ:
                    same.extend(group)
        return same

    def _differing(self, positions: List[Position]) -> Set[Position]:
        """The ``positions`` whose fault changes some block output, found
        slice by slice over every block input assignment."""
        n_inputs = len(self.inputs)
        width = min(SLICE_PATTERNS, 1 << n_inputs)
        mask = (1 << width) - 1
        varying = width.bit_length() - 1  # inputs that change inside a slice
        words = [_exhaustive_word(bit, width) for bit in range(varying)]
        program, outputs = self.program, self.outputs
        differ: Set[Position] = set()
        undecided = positions
        for base in range(0, 1 << n_inputs, width):
            good = [0] * self.n_nets
            for bit, net in enumerate(self.inputs):
                if bit < varying:
                    good[net] = words[bit]
                elif base >> bit & 1:
                    good[net] = mask
            for out, ins, evaluate in program:
                good[out] = evaluate([good[n] for n in ins], mask)
            for position in undecided:
                step, pin, stuck = position
                forced = mask if stuck else 0
                bad = good[:]
                out, ins, evaluate = program[step]
                if pin < 0:
                    bad[out] = forced
                else:
                    values = [good[n] for n in ins]
                    values[pin] = forced
                    bad[out] = evaluate(values, mask)
                for out, ins, evaluate in program[step + 1:]:
                    bad[out] = evaluate([bad[n] for n in ins], mask)
                if any(bad[net] != good[net] for net in outputs):
                    differ.add(position)
            undecided = [p for p in undecided if p not in differ]
            if not undecided:
                break
        return differ


def _exhaustive_word(bit: int, width: int) -> int:
    """Packed values of input ``bit`` over patterns ``0..width-1``: bit
    ``j`` of the word is bit ``bit`` of ``j``."""
    half = 1 << bit
    word = ((1 << half) - 1) << half
    period = 2 * half
    while period < width:
        word |= word << period
        period *= 2
    return word
