"""RTL circuit model: nets, combinational blocks, registers, PIs/POs, and
their lowering to gates."""

from repro.rtl.components import CombBlock, Net, RTLRegister
from repro.rtl.circuit import DriverRef, RTLCircuit, RTLStats, SinkRef
from repro.rtl.lower import lower_nets
from repro.rtl.simulate import RTLSimulator, flatten_latency

__all__ = [
    "Net",
    "CombBlock",
    "RTLRegister",
    "RTLCircuit",
    "RTLStats",
    "DriverRef",
    "SinkRef",
    "lower_nets",
    "RTLSimulator",
    "flatten_latency",
]
