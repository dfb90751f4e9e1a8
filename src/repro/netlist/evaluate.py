"""Bit-parallel (packed) evaluation of a netlist.

A *batch* of W patterns is evaluated in one pass: each net carries a Python
integer whose bit ``i`` is the net's value under pattern ``i``.  Python's
arbitrary-precision integers make W a free parameter; the fault simulator
defaults to 256 patterns per batch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.netlist.gates import GATE_EVAL, GateEval
from repro.netlist.levelize import levelize


class Evaluator:
    """Reusable packed evaluator bound to one netlist.

    The netlist is compiled once at construction into a flat ``program``,
    one ``(output net, input nets, gate function)`` step per gate in
    levelized order; :meth:`run` then walks it for any number of batches,
    and :class:`repro.bist.gatesim.SequentialGateSimulator` once per cycle.
    """

    def __init__(self, netlist):
        self.netlist = netlist
        self.order: List[int] = levelize(netlist)
        gates = netlist.gates
        self.program: List[Tuple[int, Sequence[int], GateEval]] = [
            (gate.output, gate.inputs, GATE_EVAL[gate.gtype])
            for gate in (gates[index] for index in self.order)
        ]

    def run(
        self,
        input_values: Dict[int, int],
        mask: int,
        overrides: Optional[Dict[int, int]] = None,
    ) -> Dict[int, int]:
        """Evaluate one batch.

        Parameters
        ----------
        input_values:
            Packed value per primary-input net id.
        mask:
            ``(1 << batch_width) - 1``.
        overrides:
            Optional forced packed values per net id (used to inject
            stuck-at faults on gate outputs / stems).

        Returns
        -------
        dict
            Packed value for every net that received one.
        """
        values: Dict[int, int] = {}
        for net in self.netlist.primary_inputs:
            if net not in input_values:
                raise SimulationError(
                    f"missing value for primary input {self.netlist.net_name(net)}"
                )
            values[net] = input_values[net] & mask
        if overrides:
            for net, forced in overrides.items():
                values[net] = forced & mask
        for output, inputs, evaluate in self.program:
            if overrides and output in overrides:
                continue
            values[output] = evaluate([values[n] for n in inputs], mask)
        return values

    def outputs(self, values: Dict[int, int]) -> List[int]:
        """Extract the packed PO values from a :meth:`run` result."""
        return [values[net] for net in self.netlist.primary_outputs]


def pack_patterns(patterns: Sequence[Sequence[int]]) -> List[int]:
    """Pack a batch of bit-vectors column-wise.

    ``patterns[i][j]`` is the value of input ``j`` under pattern ``i``.
    Returns one packed integer per input position, with pattern ``i`` at
    bit ``i``.
    """
    if not patterns:
        return []
    width = len(patterns[0])
    if any(len(pattern) != width for pattern in patterns):
        raise SimulationError("ragged pattern batch")
    return pack_words([pattern_word(pattern) for pattern in patterns], width)


def pattern_word(pattern: Sequence[int]) -> int:
    """One bit-vector as an integer: input ``j`` at bit ``j``, any truthy
    value counting as 1."""
    digits = ["1" if value else "0" for value in reversed(pattern)]
    return int("".join(digits) or "0", 2)


def pack_words(words: Sequence[int], width: int) -> List[int]:
    """Transpose a batch of pattern words into packed columns.

    ``words[i]`` is pattern ``i`` with input ``j`` at bit ``j`` (bits at
    ``width`` and above are ignored).  Returns ``width`` packed integers,
    the one for input ``j`` carrying pattern ``i`` at bit ``i`` — the layout
    of :func:`pack_patterns`.  The transpose runs in C: the words are
    written out as one binary string, most significant pattern first, and
    every input's column is read back as a strided slice.
    """
    if not width:
        return []
    if not words:
        return [0] * width
    mask = (1 << width) - 1
    digits = f"0{width}b"
    text = "".join([format(word & mask, digits) for word in reversed(words)])
    return [int(text[width - 1 - position::width], 2) for position in range(width)]


def unpack_patterns(packed: Sequence[int], count: int) -> List[List[int]]:
    """Inverse of :func:`pack_patterns` for the first ``count`` patterns."""
    return [
        [(word >> pattern_index) & 1 for word in packed]
        for pattern_index in range(count)
    ]


def evaluate_single(netlist, assignment: Dict[int, int]) -> Dict[int, int]:
    """Convenience: evaluate one (unpacked) input assignment.

    ``assignment`` maps primary-input net ids to 0/1.  Returns the value of
    every net.  Used heavily by tests as a trustworthy reference.
    """
    evaluator = Evaluator(netlist)
    return evaluator.run(assignment, 1)
