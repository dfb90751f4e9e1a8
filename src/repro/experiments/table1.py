"""Table 1: summary of the data path circuits.

Regenerates the paper's Table 1 rows — function, implementation summary and
gate count — for c5a2m, c3a2m and c4a4m.  Gate counts are for our own
adder/multiplier macros (the original MABAL netlists are unavailable), so
absolute values differ from the paper's 2,542 / 2,218 / 4,096; the ordering
and magnitude relationships are what the benchmark asserts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List

from repro.bist.gatesim import SequentialGateSimulator
from repro.core.bibs import make_bibs_testable
from repro.core.flow import lower_kernel_to_netlist
from repro.datapath.filters import FUNCTION_STRINGS, all_filters
from repro.experiments.render import render_table
from repro.graph.build import build_circuit_graph


@dataclass(frozen=True)
class Table1Row:
    """One circuit's summary line."""

    name: str
    function: str
    n_adders: int
    n_multipliers: int
    n_registers: int
    n_register_bits: int
    n_gates: int             # all block logic, including full products
    n_observable_gates: int  # logic in the PO cone (BIBS-kernel view)
    width: int = 8


def full_gate_count(circuit) -> int:
    """Gates of every block, lowered with every register as an input."""
    return len(SequentialGateSimulator(circuit).netlist)


def table1_rows() -> List[Table1Row]:
    """Compute the Table 1 data for all three circuits."""
    rows: List[Table1Row] = []
    for name, compiled in all_filters().items():
        circuit = compiled.circuit
        graph = build_circuit_graph(circuit)
        design = make_bibs_testable(graph)
        kernel = [k for k in design.kernels if k.logic_blocks][0]
        netlist = lower_kernel_to_netlist(circuit, kernel)
        rows.append(
            Table1Row(
                name=name,
                function=FUNCTION_STRINGS[name],
                n_adders=compiled.n_adders,
                n_multipliers=compiled.n_multipliers,
                n_registers=len(circuit.registers),
                n_register_bits=circuit.total_register_bits(),
                n_gates=full_gate_count(circuit),
                n_observable_gates=len(netlist.gates),
            )
        )
    return rows


def table1_json(rows=None) -> Dict[str, Any]:
    """Table 1 as a JSON-safe dict (one entry per circuit)."""
    if rows is None:
        rows = table1_rows()
    return {
        "table": "table1",
        "circuits": {row.name: asdict(row) for row in rows},
    }


def render_table1(rows=None) -> str:
    """Table 1 as text."""
    if rows is None:
        rows = table1_rows()
    return render_table(
        ["Circuit", "Function", "Adders", "Mults", "Regs", "Reg bits",
         "Gates (ours)", "Observable gates"],
        [
            (r.name, r.function, r.n_adders, r.n_multipliers,
             r.n_registers, r.n_register_bits, r.n_gates, r.n_observable_gates)
            for r in rows
        ],
        title="Table 1: Summary of the data path circuits",
    )
