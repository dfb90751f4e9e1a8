"""Gate primitives for the gate-level netlist.

Gates are the atoms of the combinational blocks that the paper's data-path
circuits (Table 1) are expanded into for fault simulation.  Every gate has a
type drawn from :class:`GateType`, an ordered list of input nets and a single
output net.

Evaluation is *packed*: a net's value is a Python integer whose bit ``i``
carries the value of the net under pattern ``i`` of the current batch.  Python
integers are arbitrary precision, so the batch width is a free parameter; the
fault simulator uses this to simulate hundreds of patterns per pass.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Sequence

from repro.errors import NetlistError


class GateType(enum.Enum):
    """The combinational primitives supported by the netlist."""

    AND = "AND"
    NAND = "NAND"
    OR = "OR"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    NOT = "NOT"
    BUF = "BUF"
    CONST0 = "CONST0"
    CONST1 = "CONST1"

    @property
    def is_inverting(self) -> bool:
        """True for gates whose output is the complement of a base function."""
        return self in _INVERTING

    @property
    def base(self) -> "GateType":
        """The non-inverting gate implementing the same base function."""
        return _BASE_OF.get(self, self)

    @property
    def min_fanin(self) -> int:
        """Smallest legal number of inputs for this gate type."""
        if self in (GateType.CONST0, GateType.CONST1):
            return 0
        if self in (GateType.NOT, GateType.BUF):
            return 1
        return 2


_INVERTING = {GateType.NAND, GateType.NOR, GateType.XNOR, GateType.NOT}
_BASE_OF = {
    GateType.NAND: GateType.AND,
    GateType.NOR: GateType.OR,
    GateType.XNOR: GateType.XOR,
    GateType.NOT: GateType.BUF,
}


def _eval_and(inputs: Sequence[int], mask: int) -> int:
    value = mask
    for v in inputs:
        value &= v
    return value


def _eval_nand(inputs: Sequence[int], mask: int) -> int:
    value = mask
    for v in inputs:
        value &= v
    return value ^ mask


def _eval_or(inputs: Sequence[int], mask: int) -> int:
    value = 0
    for v in inputs:
        value |= v
    return value


def _eval_nor(inputs: Sequence[int], mask: int) -> int:
    value = 0
    for v in inputs:
        value |= v
    return value ^ mask


def _eval_xor(inputs: Sequence[int], mask: int) -> int:
    value = 0
    for v in inputs:
        value ^= v
    return value


def _eval_xnor(inputs: Sequence[int], mask: int) -> int:
    value = mask
    for v in inputs:
        value ^= v
    return value


def _eval_buf(inputs: Sequence[int], mask: int) -> int:
    return inputs[0]


def _eval_not(inputs: Sequence[int], mask: int) -> int:
    return inputs[0] ^ mask


def _eval_const0(inputs: Sequence[int], mask: int) -> int:
    return 0


def _eval_const1(inputs: Sequence[int], mask: int) -> int:
    return mask


#: A packed gate function: ``(input values, mask) -> output value``.
GateEval = Callable[[Sequence[int], int], int]

#: Packed evaluation function of every gate type, inversion included.
#: Callers that evaluate one netlist many times look the function up once
#: per gate (see :class:`repro.netlist.evaluate.Evaluator`).
GATE_EVAL: Dict[GateType, GateEval] = {
    GateType.AND: _eval_and,
    GateType.NAND: _eval_nand,
    GateType.OR: _eval_or,
    GateType.NOR: _eval_nor,
    GateType.XOR: _eval_xor,
    GateType.XNOR: _eval_xnor,
    GateType.NOT: _eval_not,
    GateType.BUF: _eval_buf,
    GateType.CONST0: _eval_const0,
    GateType.CONST1: _eval_const1,
}


def evaluate_gate(gate_type: GateType, inputs: Sequence[int], mask: int) -> int:
    """Evaluate one gate over a packed batch of patterns.

    Parameters
    ----------
    gate_type:
        The gate's primitive type.
    inputs:
        Packed input values, one integer per input net.
    mask:
        ``(1 << batch_width) - 1``; every packed value must stay below it.

    Returns
    -------
    int
        The packed output value.
    """
    return GATE_EVAL[gate_type](inputs, mask)


# Controlling value per base type: the input value that alone determines the
# output of AND/OR-family gates.  XOR-family gates have no controlling value.
CONTROLLING_VALUE = {
    GateType.AND: 0,
    GateType.NAND: 0,
    GateType.OR: 1,
    GateType.NOR: 1,
}

# Output value produced when a controlling value is present at an input.
CONTROLLED_OUTPUT = {
    GateType.AND: 0,
    GateType.NAND: 1,
    GateType.OR: 1,
    GateType.NOR: 0,
}


def validate_fanin(gate_type: GateType, n_inputs: int) -> None:
    """Raise :class:`NetlistError` if ``n_inputs`` is illegal for the type."""
    if gate_type in (GateType.CONST0, GateType.CONST1):
        if n_inputs != 0:
            raise NetlistError(f"{gate_type.value} gate takes no inputs, got {n_inputs}")
    elif gate_type in (GateType.NOT, GateType.BUF):
        if n_inputs != 1:
            raise NetlistError(f"{gate_type.value} gate takes exactly 1 input, got {n_inputs}")
    else:
        if n_inputs < 2:
            raise NetlistError(f"{gate_type.value} gate needs >= 2 inputs, got {n_inputs}")
