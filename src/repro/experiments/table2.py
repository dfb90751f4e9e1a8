"""Table 2: BIBS vs KA-85 on the three data path circuits.

Regenerates all eight rows of the paper's Table 2 per circuit:

1. number of kernels              (exact match expected)
2. number of test sessions        (exact match expected)
3. number of BILBO registers      (exact match expected)
4. maximal delay                  (exact match expected)
5. patterns to 99.5% fault coverage
6. test time to 99.5% fault coverage (optimally scheduled)
7. patterns to 100% fault coverage (of detectable faults)
8. test time to 100% fault coverage

Rows 5-8 come from our own fault simulator and gate-level macros, so the
absolute numbers differ from the paper's; EXPERIMENTS.md records the shape
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro import telemetry
from repro.core.flow import compare_tdms
from repro.datapath.filters import all_filters
from repro.errors import SimulationError
from repro.experiments.render import fmt, render_table

if TYPE_CHECKING:
    from repro.engine.cache import GoldenCache
    from repro.exec.config import RunConfig

#: The paper's Table 2, for side-by-side reporting: circuit -> (BIBS, [3]).
PAPER_TABLE2 = {
    "c5a2m": {
        "kernels": (1, 7), "sessions": (1, 2), "bilbo_registers": (9, 15),
        "maximal_delay": (2, 4), "patterns_995": (1440, 1660),
        "time_995": (1440, 782), "patterns_100": (7300, 4440),
        "time_100": (7300, 2172),
    },
    "c3a2m": {
        "kernels": (1, 5), "sessions": (1, 2), "bilbo_registers": (7, 15),
        "maximal_delay": (2, 6), "patterns_995": (2060, 1596),
        "time_995": (2060, 782), "patterns_100": (9240, 4376),
        "time_100": (9240, 2172),
    },
    "c4a4m": {
        "kernels": (1, 7), "sessions": (1, 2), "bilbo_registers": (10, 20),
        "maximal_delay": (2, 4), "patterns_995": (1900, 4128),
        "time_995": (1900, 1037), "patterns_100": (19120, 8688),
        "time_100": (19120, 2172),
    },
}


@dataclass
class Table2Column:
    """One circuit's measured Table 2 values, (BIBS, KA) pairs."""

    circuit: str
    kernels: tuple
    sessions: tuple
    bilbo_registers: tuple
    maximal_delay: tuple
    patterns_995: tuple
    time_995: tuple
    patterns_100: tuple
    time_100: tuple


def measure_circuit(
    name: str,
    max_patterns: int = 1 << 17,
    seed: int = 1994,
    n_seeds: int = 3,
    *,
    config: Optional["RunConfig"] = None,
    cache: Optional["GoldenCache"] = None,
) -> Table2Column:
    """Run the full Table 2 measurement for one circuit.

    ``config`` (a :class:`repro.exec.RunConfig`) shapes every kernel run:
    execution backend and shard count, retry policy, checkpointing (an
    interrupted measurement restarts from the last completed shard round),
    budget, cancellation and chaos.  ``cache`` reuses golden batches
    between the BIBS and KA evaluations of a kernel (same netlist +
    stream) and across repeated measurements.

    ``config.budget`` is armed here (idempotently), so its deadline spans
    every kernel run, and a tripped limit makes the unreached coverage
    rows report ``None`` instead of raising.
    """
    from repro.exec.config import RunConfig

    if config is None:
        config = RunConfig()
    compiled = all_filters()[name]
    if config.budget is not None:
        config.budget.arm()
    with telemetry.span(
        "table2.measure_circuit",
        circuit=name, max_patterns=max_patterns, n_seeds=n_seeds,
        jobs=config.execution.effective_jobs,
    ):
        return _measure_circuit(
            name, compiled, max_patterns, seed, n_seeds, config, cache
        )


def _measure_circuit(
    name, compiled, max_patterns, seed, n_seeds, config, cache
) -> Table2Column:
    comparison = compare_tdms(
        compiled.circuit,
        targets=(0.995, 1.0),
        max_patterns=max_patterns,
        seed=seed,
        n_seeds=n_seeds,
        config=config,
        cache=cache,
    )
    bibs, ka = comparison.bibs, comparison.ka
    return Table2Column(
        circuit=name,
        kernels=(bibs.n_logic_kernels, ka.n_logic_kernels),
        sessions=(_sessions(bibs), _sessions(ka)),
        bilbo_registers=(
            bibs.design.n_bilbo_registers, ka.design.n_bilbo_registers
        ),
        maximal_delay=(bibs.design.maximal_delay(), ka.design.maximal_delay()),
        patterns_995=(bibs.total_patterns(0.995), ka.total_patterns(0.995)),
        time_995=(bibs.scheduled_time(0.995), ka.scheduled_time(0.995)),
        patterns_100=(bibs.total_patterns(1.0), ka.total_patterns(1.0)),
        time_100=(bibs.scheduled_time(1.0), ka.scheduled_time(1.0)),
    )


def _sessions(evaluation) -> Optional[int]:
    """Session count, or None when a guard-truncated run never scheduled."""
    try:
        return evaluation.n_sessions
    except SimulationError:
        return None


def table2_columns(
    circuits: Sequence[str] = ("c5a2m", "c3a2m", "c4a4m"),
    max_patterns: int = 1 << 17,
    seed: int = 1994,
    n_seeds: int = 3,
    *,
    config: Optional["RunConfig"] = None,
) -> List[Table2Column]:
    """Measure every circuit, sharing one golden-run cache across them.

    ``config.budget`` is armed once up front, so its deadline spans the
    whole sweep rather than restarting per circuit; ``config.cancel``
    lets one token (typically tripped by SIGINT/SIGTERM) stop every
    remaining run.

    The shared cache bounds per-entry golden-batch retention: a
    full-length run (the flow makes one only for survivors PODEM does not
    prove redundant) holds 2^17/256 = 512 batches of every-net packed
    values *per kernel stream*, which across three circuits, two TDMs and
    three seeds would dominate the sweep's memory — so only a recent
    window is kept (evicted batches recompute from the pure pattern
    stream on the rare re-read).
    """
    from repro.engine import GoldenCache
    from repro.exec.config import RunConfig

    if config is None:
        config = RunConfig()
    cache = GoldenCache(max_entries=16, max_batches_per_entry=64)
    if config.budget is not None:
        config.budget.arm()
    return [
        measure_circuit(
            c, max_patterns, seed, n_seeds, config=config, cache=cache
        )
        for c in circuits
    ]


def table2_json(
    columns: List[Table2Column], include_paper: bool = True
) -> Dict[str, Any]:
    """Table 2 as a JSON-safe dict (one entry per circuit, (BIBS, KA) pairs)."""
    payload: Dict[str, Any] = {
        "table": "table2",
        "rows": [attr for attr, _ in _ROW_LABELS],
        "measured": {
            column.circuit: {
                attr: list(getattr(column, attr)) for attr, _ in _ROW_LABELS
            }
            for column in columns
        },
    }
    if include_paper:
        payload["paper"] = {
            column.circuit: {
                attr: list(PAPER_TABLE2[column.circuit][attr])
                for attr, _ in _ROW_LABELS
            }
            for column in columns
        }
    return payload


_ROW_LABELS = [
    ("kernels", "1 # of kernels"),
    ("sessions", "2 # of test sessions"),
    ("bilbo_registers", "3 # of BILBO registers"),
    ("maximal_delay", "4 Maximal delay"),
    ("patterns_995", "5 # patterns @ 99.5% FC"),
    ("time_995", "6 Test time @ 99.5% FC"),
    ("patterns_100", "7 # patterns @ 100% FC"),
    ("time_100", "8 Test time @ 100% FC"),
]


def render_table2(columns: List[Table2Column], include_paper: bool = True) -> str:
    """Table 2 as text, optionally with the paper's numbers alongside."""
    headers = ["Row"]
    for column in columns:
        headers += [f"{column.circuit} BIBS", f"{column.circuit} [3]"]
    rows = []
    for attr, label in _ROW_LABELS:
        row = [label]
        for column in columns:
            bibs_value, ka_value = getattr(column, attr)
            row += [fmt(bibs_value), fmt(ka_value)]
        rows.append(row)
    text = render_table(headers, rows, title="Table 2 (measured)")
    if include_paper:
        paper_rows = []
        for attr, label in _ROW_LABELS:
            row = [label]
            for column in columns:
                bibs_value, ka_value = PAPER_TABLE2[column.circuit][attr]
                row += [fmt(bibs_value), fmt(ka_value)]
            paper_rows.append(row)
        text += "\n\n" + render_table(headers, paper_rows, title="Table 2 (paper)")
    return text
