"""End-to-end BIST evaluation flow (a small BITS, Section 5).

Pipeline: RTL circuit -> circuit graph -> TDM (BIBS or KA-85) -> kernels ->
gate-level kernel netlists -> random-pattern fault simulation -> pattern
counts / scheduled test times.  This regenerates the quantities of Table 2.

Kernel lowering flattens internal registers into wires.  For a *balanced*
kernel this is exact per pattern: every path between two blocks has the
same sequential length, so the time-shifted values a block combines always
belong to one common input vector — which is precisely why balanced
BISTable kernels are 1-step functionally testable (Theorem 1).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.core.bibs import BIBSDesign, make_bibs_testable
from repro.core.ka85 import make_ka_testable
from repro.core.kernels import Kernel
from repro.core.schedule import Schedule, ScheduledKernel, schedule_kernels
from repro.errors import SimulationError
from repro.faultsim.collapse import collapse_faults
from repro.faultsim.faults import Fault
from repro.faultsim.patterns import RandomPatternSource
from repro.faultsim.simulator import FaultSimulator
from repro.graph.build import build_circuit_graph
from repro.netlist.netlist import Netlist
from repro.results import FaultSimResult
from repro.rtl.circuit import RTLCircuit
from repro.rtl.lower import lower_nets

if TYPE_CHECKING:
    from repro.atpg.certify import BlockVerdicts
    from repro.exec.config import RunConfig


def lower_kernel_to_netlist(circuit: RTLCircuit, kernel: Kernel) -> Netlist:
    """Flatten one kernel into a combinational netlist.

    TPG register outputs become primary inputs; SA register inputs become
    primary outputs; internal registers become wires (exact for balanced
    kernels, see module docstring).
    """
    netlist = Netlist(f"{circuit.name}:{kernel.name}")
    values: Dict[int, List[int]] = {
        circuit.registers[name].output_net: netlist.new_inputs(
            circuit.registers[name].width, prefix=f"{name}_"
        )
        for name in sorted(kernel.tpg_registers)
    }
    sa_nets = [
        circuit.registers[name].input_net for name in sorted(kernel.sa_registers)
    ]
    lower_nets(circuit, netlist, values, sa_nets)
    for net in sa_nets:
        for bit in values[net]:
            netlist.mark_output(bit)
    pruned = netlist.prune_to_outputs()
    pruned.validate()
    return pruned


@dataclass
class KernelEvaluation:
    """Fault-simulation outcome for one kernel.

    ``certified`` counts, per certificate (:mod:`repro.atpg.certify`), the
    survivors proven redundant without PODEM; ``proven`` and ``aborted``
    count those PODEM proved redundant or gave up on.  Each fault is
    judged once, whatever the number of seeds.
    """

    kernel: Kernel
    netlist: Netlist
    result: FaultSimResult
    patterns_at: Dict[float, Optional[int]]
    certified: Dict[str, int] = field(default_factory=dict)
    proven: int = 0
    aborted: int = 0

    @property
    def name(self) -> str:
        return self.kernel.name

    @property
    def final_coverage(self) -> float:
        return self.result.coverage(of_detectable=True)


@dataclass
class DesignEvaluation:
    """Fault-simulation outcome for a whole TDM design."""

    design: BIBSDesign
    kernel_evaluations: List[KernelEvaluation]
    targets: Tuple[float, ...]

    @property
    def n_logic_kernels(self) -> int:
        """Kernels containing combinational blocks (the paper's kernel count)."""
        return sum(1 for e in self.kernel_evaluations if e.kernel.logic_blocks)

    def total_patterns(self, target: float) -> Optional[int]:
        """Sum of per-kernel pattern counts at a coverage target (row 5/7)."""
        total = 0
        for evaluation in self.kernel_evaluations:
            count = evaluation.patterns_at.get(target)
            if count is None:
                return None
            total += count
        return total

    def schedule_at(self, target: float) -> Schedule:
        """The optimal session schedule using per-kernel lengths at a target."""
        items = []
        for evaluation in self.kernel_evaluations:
            length = evaluation.patterns_at.get(target)
            if length is None:
                raise SimulationError(
                    f"kernel {evaluation.name} never reached target {target}"
                )
            items.append(ScheduledKernel(evaluation.kernel, length))
        return schedule_kernels(items)

    def scheduled_time(self, target: float) -> Optional[int]:
        """Total test time with optimally scheduled sessions (row 6/8)."""
        try:
            return self.schedule_at(target).total_test_time
        except SimulationError:
            return None

    @property
    def n_sessions(self) -> int:
        return self.schedule_at(self.targets[-1]).n_sessions


def _median(values: List[int]) -> int:
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def _simulate_stream(
    simulator: FaultSimulator,
    source: RandomPatternSource,
    faults: List[Fault],
    config: "RunConfig",
    verdicts: Dict[Fault, str],
    block_verdicts: "BlockVerdicts",
) -> FaultSimResult:
    """One kernel's collapsed ``faults`` under one pattern stream, in the
    steps :func:`evaluate_design` lists.

    ``verdicts`` maps each judged fault to the name of the certificate
    that proved it redundant, or else to PODEM's status; the kernel loop
    shares it across seeds.  A fault's first detection depends only on
    the netlist, the fault and the stream, and a verdict only on the
    netlist, the fault and the backtrack limit, which is why these steps
    give the results of one full-length run.
    """
    netlist = simulator.netlist
    prefix = min(
        config.max_patterns,
        simulator.batch_width * config.execution.chunk_batches,
    )
    result = simulator.run(
        source, faults=faults, config=config.replace(max_patterns=prefix)
    )
    survivors = result.undetected
    if not survivors or result.partial:
        return result
    # Imported on first use, as PODEM always was: ``import repro`` loads
    # no ATPG code.
    from repro.atpg.certify import CERTIFICATES, certify
    from repro.atpg.podem import PodemStatus

    redundant = set(CERTIFICATES) | {PodemStatus.REDUNDANT.value}
    unjudged = [fault for fault in survivors if fault not in verdicts]
    if unjudged:
        certified = certify(netlist, unjudged, block_verdicts)
        verdicts.update(certified)
        telemetry.count("atpg.certified", len(certified))
        rest = [fault for fault in unjudged if fault not in certified]
        if rest:
            _classify(simulator, rest, verdicts)
    live = [fault for fault in survivors if verdicts[fault] not in redundant]
    if live and prefix < config.max_patterns:
        tail = simulator.run(source, faults=live, config=config)
        result.first_detection.update(tail.first_detection)
        # A guard can stop the tail before its first round ends; the
        # prefix's patterns were applied all the same.
        result.n_patterns = max(result.n_patterns, tail.n_patterns)
        result.partial = tail.partial
        result.stop_reason = tail.stop_reason
    result.merge_undetectable(
        fault for fault in survivors if verdicts[fault] in redundant
    )
    return result


def _classify(
    simulator: FaultSimulator, faults: List[Fault], verdicts: Dict[Fault, str]
) -> None:
    """PODEM's verdicts on ``faults``, each test it returns replayed on the
    kernel first: one that does not detect its fault is an error."""
    # Looked up at call time, so a patched ``repro.atpg.podem`` is used.
    from repro.atpg.podem import PodemStatus, classify_faults

    netlist = simulator.netlist
    with telemetry.span(
        "flow.classify_undetected", kernel=netlist.name, n_faults=len(faults),
    ):
        redundant, tests, aborted = classify_faults(netlist, faults)
    for fault, test in tests.items():
        pattern = [test.get(net, 0) for net in netlist.primary_inputs]
        if not simulator.detects(fault, pattern):
            raise SimulationError(
                f"kernel {netlist.name}: PODEM's test for "
                f"{fault.describe(netlist)} does not detect it"
            )
    verdicts.update(dict.fromkeys(tests, PodemStatus.DETECTED.value))
    verdicts.update(dict.fromkeys(redundant, PodemStatus.REDUNDANT.value))
    verdicts.update(dict.fromkeys(aborted, PodemStatus.ABORTED.value))
    telemetry.count("atpg.proven", len(redundant))
    telemetry.count("atpg.aborted", len(aborted))


def evaluate_design(
    circuit: RTLCircuit,
    design: BIBSDesign,
    targets: Sequence[float] = (0.995, 1.0),
    max_patterns: int = 1 << 17,
    seed: int = 1994,
    batch_width: int = 256,
    classify_undetected: bool = True,
    n_seeds: int = 1,
    *,
    config: Optional["RunConfig"] = None,
) -> DesignEvaluation:
    """Fault-simulate every kernel of a design under random patterns.

    With ``classify_undetected`` set, each kernel and pattern stream runs
    in three steps:

    1. one engine round (``batch_width`` × ``chunk_batches`` patterns,
       1,024 by default) against every fault;
    2. a verdict on each survivor: a certificate of
       :mod:`repro.atpg.certify` where one applies, the PODEM ATPG for
       the rest, each test PODEM returns replayed on the kernel.
       Proven-redundant faults leave the coverage denominator (the paper
       reports coverage of *detectable* faults).  Verdicts are kept per
       kernel, so a fault is judged once whatever ``n_seeds`` is, and
       block verdicts are kept per sweep;
    3. only if survivors not proven redundant remain, a second run over
       the full ``max_patterns`` stream for those faults alone.
       Aborted/detectable leftovers it does not detect keep the target
       unreached (``patterns_at[target] = None``).

    The detections, the redundant list and ``patterns_at`` equal those of
    one run to ``max_patterns`` followed by the same verdicts on its
    survivors, and those of PODEM alone unless PODEM would abort a fault
    a certificate proves redundant (none on the paper's kernels).
    ``result.n_patterns`` counts the patterns actually applied: a kernel
    whose survivors are all redundant reports one round, not
    ``max_patterns``.  Without ``classify_undetected``, each stream is a
    single run to ``max_patterns``.

    ``n_seeds > 1`` repeats each kernel's run with independent pattern
    streams and reports the per-target *median* pattern count — the
    patterns-to-100% statistic is a maximum over fault detection times and
    is noisy under a single stream.

    ``config`` (a :class:`repro.exec.RunConfig`) shapes every kernel run:
    execution backend and shard count, retry policy, checkpointing (keyed
    per engine run, so one directory serves the whole sweep), budget,
    cancellation and chaos.  The sweep's own ``max_patterns`` and
    ``batch_width`` arguments stay authoritative — they define *what* the
    flow measures, the config defines *how* it executes.  Results are
    bit-identical across backends and shard counts.

    A guard limit (:mod:`repro.guard`) applies to each engine run.  A
    first round it stops (``result.partial``), for instance under a
    pattern budget below one round, skips the verdicts — faults
    left undetected by a truncated stream are not candidates for
    redundancy proofs — and its unreached targets report ``None``.  A
    pattern budget of at least one round leaves a kernel whose survivors
    are all redundant untouched; it can only cut the second run short.
    """
    return _evaluate_design(
        circuit, design, targets, max_patterns, seed, batch_width,
        classify_undetected, n_seeds, config, {},
    )


def _evaluate_design(
    circuit: RTLCircuit,
    design: BIBSDesign,
    targets: Sequence[float],
    max_patterns: int,
    seed: int,
    batch_width: int,
    classify_undetected: bool,
    n_seeds: int,
    config: Optional["RunConfig"],
    block_verdicts: "BlockVerdicts",
) -> DesignEvaluation:
    """:func:`evaluate_design`, with the block verdicts of its sweep."""
    from repro.atpg.certify import CERTIFICATES
    from repro.atpg.podem import PodemStatus
    from repro.engine.artifacts import netlist_artifacts
    from repro.exec.config import RunConfig

    if config is None:
        config = RunConfig()
    config = config.replace(max_patterns=max_patterns)
    evaluations: List[KernelEvaluation] = []
    for kernel in design.kernels:
        with telemetry.span(
            "flow.evaluate_kernel",
            circuit=circuit.name, kernel=kernel.name, n_seeds=max(1, n_seeds),
        ):
            netlist = lower_kernel_to_netlist(circuit, kernel)
            # Bound to this netlist (its block map), on the tables every
            # lowering of the kernel shares.
            simulator = netlist_artifacts(netlist).simulator(
                netlist, batch_width)
            # Collapsed once for every seed: the list (and so each run's
            # key) is the one ``simulate`` would build itself.
            faults, _ = collapse_faults(netlist)
            verdicts: Dict[Fault, str] = {}
            per_seed: List[Dict[float, Optional[int]]] = []
            first_result: Optional[FaultSimResult] = None
            for round_index in range(max(1, n_seeds)):
                source = RandomPatternSource(
                    len(netlist.primary_inputs), seed=seed + 7919 * round_index
                )
                if classify_undetected:
                    result = _simulate_stream(
                        simulator, source, faults, config, verdicts,
                        block_verdicts,
                    )
                else:
                    result = simulator.run(source, faults=faults, config=config)
                if first_result is None:
                    first_result = result
                per_seed.append(
                    {
                        target: result.patterns_for_coverage(
                            target, of_detectable=True
                        )
                        for target in targets
                    }
                )
            patterns_at: Dict[float, Optional[int]] = {}
            for target in targets:
                counts = [row[target] for row in per_seed]
                patterns_at[target] = (
                    None if any(c is None for c in counts) else _median(counts)
                )
            assert first_result is not None
            tally = Counter(verdicts.values())
            evaluations.append(
                KernelEvaluation(
                    kernel, netlist, first_result, patterns_at,
                    certified={name: tally[name] for name in CERTIFICATES},
                    proven=tally[PodemStatus.REDUNDANT.value],
                    aborted=tally[PodemStatus.ABORTED.value],
                )
            )
    return DesignEvaluation(design, evaluations, tuple(targets))


@dataclass
class TDMComparison:
    """BIBS vs KA-85 on one circuit: the Table 2 column pair."""

    circuit_name: str
    bibs: DesignEvaluation
    ka: DesignEvaluation


def compare_tdms(
    circuit: RTLCircuit,
    targets: Sequence[float] = (0.995, 1.0),
    max_patterns: int = 1 << 17,
    seed: int = 1994,
    n_seeds: int = 1,
    *,
    config: Optional["RunConfig"] = None,
) -> TDMComparison:
    """Run both TDMs end to end on one circuit.

    ``config`` is shared by both design evaluations (so one checkpoint
    directory serves the whole comparison), and so are the block verdicts
    of :mod:`repro.atpg.certify`, made afresh for each call.
    """
    block_verdicts: "BlockVerdicts" = {}
    with telemetry.span("flow.compare_tdms", circuit=circuit.name):
        graph = build_circuit_graph(circuit)
        bibs_design = make_bibs_testable(graph)
        ka_design = make_ka_testable(graph).design
        with telemetry.span("flow.evaluate_design", circuit=circuit.name,
                            tdm="bibs"):
            bibs_eval = _evaluate_design(
                circuit, bibs_design, targets, max_patterns, seed,
                batch_width=256, classify_undetected=True, n_seeds=n_seeds,
                config=config, block_verdicts=block_verdicts,
            )
        with telemetry.span("flow.evaluate_design", circuit=circuit.name,
                            tdm="ka85"):
            ka_eval = _evaluate_design(
                circuit, ka_design, targets, max_patterns, seed,
                batch_width=256, classify_undetected=True, n_seeds=n_seeds,
                config=config, block_verdicts=block_verdicts,
            )
    return TDMComparison(circuit.name, bibs_eval, ka_eval)
