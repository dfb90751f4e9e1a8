"""Cycle-accurate BIST execution: gate-level simulation, sessions, signatures."""

from repro.bist.gatesim import MachineFault, SequentialGateSimulator
from repro.bist.session import BISTSession
from repro.bist.diagnosis import FaultDictionary, build_fault_dictionary
from repro.results import SessionResult

__all__ = [
    "SequentialGateSimulator",
    "MachineFault",
    "BISTSession",
    "SessionResult",
    "FaultDictionary",
    "build_fault_dictionary",
]
