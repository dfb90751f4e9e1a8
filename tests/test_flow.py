"""End-to-end flow: kernel lowering and TDM evaluation."""

import importlib

import pytest

from repro.atpg.certify import BLOCK, UNOBSERVABLE
from repro.core.bibs import make_bibs_testable
from repro.core.flow import (
    compare_tdms,
    evaluate_design,
    lower_kernel_to_netlist,
)
from repro.core.ka85 import make_ka_testable
from repro.datapath.compiler import Add, Mul, Var, compile_datapath
from repro.datapath.filters import all_filters
from repro.engine.vec import KERNEL_ENV_VAR
from repro.errors import SimulationError
from repro.exec.config import ExecutionPolicy, RunConfig
from repro.experiments.table2 import measure_circuit
from repro.faultsim.patterns import RandomPatternSource
from repro.faultsim.simulator import FaultSimulator
from repro.graph.build import build_circuit_graph
from repro.guard import STOP_CANCELLED, Budget, CancelToken

# The module, not the function ``repro.atpg`` re-exports under its name.
podem = importlib.import_module("repro.atpg.podem")
collapse_module = importlib.import_module("repro.faultsim.collapse")
flow_module = importlib.import_module("repro.core.flow")
certify_module = importlib.import_module("repro.atpg.certify")
engine_core = importlib.import_module("repro.engine.core")


def small_filter(width=4):
    a, b, c, d = Var("a"), Var("b"), Var("c"), Var("d")
    return compile_datapath(
        [("o", Add(Mul(Add(a, b), c), d))], "minifilter", width=width
    )


def test_lowering_small_kernel():
    compiled = small_filter()
    circuit = compiled.circuit
    design = make_bibs_testable(build_circuit_graph(circuit))
    netlist = lower_kernel_to_netlist(circuit, design.kernels[0])
    assert len(netlist.primary_inputs) == 16  # four 4-bit PI registers
    assert len(netlist.primary_outputs) == 4
    netlist.validate()


def test_lowering_prunes_unobservable_product_bits():
    """The multiplier's upper product bits die at the truncating adder."""
    compiled = small_filter()
    circuit = compiled.circuit
    design = make_bibs_testable(build_circuit_graph(circuit))
    netlist = lower_kernel_to_netlist(circuit, design.kernels[0])
    ka = make_ka_testable(build_circuit_graph(circuit)).design
    mult_kernel = next(
        k for k in ka.kernels
        if any(b.startswith("M") for b in k.logic_blocks)
    )
    mult_netlist = lower_kernel_to_netlist(circuit, mult_kernel)
    # KA observes the full product register (8 bits at width 4).
    assert len(mult_netlist.primary_outputs) == 8


def test_transport_kernel_lowering():
    from repro.datapath.filters import c3a2m

    compiled = c3a2m()
    design = make_ka_testable(build_circuit_graph(compiled.circuit)).design
    transport = next(k for k in design.kernels if not k.logic_blocks)
    netlist = lower_kernel_to_netlist(compiled.circuit, transport)
    assert len(netlist.primary_inputs) == len(netlist.primary_outputs) == 8
    netlist.validate()


def test_evaluate_design_reaches_full_coverage():
    compiled = small_filter()
    circuit = compiled.circuit
    design = make_bibs_testable(build_circuit_graph(circuit))
    evaluation = evaluate_design(
        circuit, design, targets=(0.9, 1.0), max_patterns=1 << 14
    )
    assert evaluation.n_logic_kernels == 1
    kernel_eval = evaluation.kernel_evaluations[0]
    assert kernel_eval.final_coverage == 1.0
    p90 = evaluation.total_patterns(0.9)
    p100 = evaluation.total_patterns(1.0)
    assert p90 is not None and p100 is not None and p90 <= p100


def test_multi_seed_median_is_stable():
    compiled = small_filter()
    circuit = compiled.circuit
    design = make_bibs_testable(build_circuit_graph(circuit))
    one = evaluate_design(circuit, design, targets=(1.0,), max_patterns=1 << 14,
                          n_seeds=3, seed=1)
    two = evaluate_design(circuit, design, targets=(1.0,), max_patterns=1 << 14,
                          n_seeds=3, seed=1)
    assert one.total_patterns(1.0) == two.total_patterns(1.0)


def test_compare_tdms_structure():
    compiled = small_filter()
    comparison = compare_tdms(
        compiled.circuit, targets=(1.0,), max_patterns=1 << 14
    )
    bibs, ka = comparison.bibs, comparison.ka
    assert bibs.n_logic_kernels == 1
    assert ka.n_logic_kernels == 3  # two adders + one multiplier
    assert bibs.n_sessions == 1
    assert ka.n_sessions == 2
    assert ka.design.n_bilbo_registers > bibs.design.n_bilbo_registers
    # Scheduled time never exceeds the raw pattern sum.
    assert ka.scheduled_time(1.0) <= ka.total_patterns(1.0)


def test_schedule_at_unreached_target():
    compiled = small_filter()
    circuit = compiled.circuit
    design = make_bibs_testable(build_circuit_graph(circuit))
    evaluation = evaluate_design(
        circuit, design, targets=(1.0,), max_patterns=4,
        classify_undetected=False,
    )
    assert evaluation.scheduled_time(1.0) is None


def test_flow_runs_follow_the_engine_kernel_resolution(monkeypatch):
    """``FaultSimulator.run`` does not pin a kernel: the c5a2m BIBS kernel
    runs vec under ``auto``, packed when ``$REPRO_ENGINE_KERNEL`` or the
    config says so, and its Table 2 column is the same either way."""
    circuit = all_filters()["c5a2m"].circuit
    design = make_bibs_testable(build_circuit_graph(circuit))

    def kernels(config=None):
        evaluation = evaluate_design(
            circuit, design, targets=(1.0,), max_patterns=1 << 10,
            classify_undetected=False, config=config,
        )
        return [k.result.kernel for k in evaluation.kernel_evaluations]

    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
    assert kernels() == ["vec"]
    packed = RunConfig(execution=ExecutionPolicy(kernel="packed"))
    assert kernels(packed) == ["packed"]
    monkeypatch.setenv(KERNEL_ENV_VAR, "packed")
    assert kernels() == ["packed"]

    auto = RunConfig(execution=ExecutionPolicy(kernel="auto"))
    assert (measure_circuit("c5a2m", 1 << 12, n_seeds=1, config=auto)
            == measure_circuit("c5a2m", 1 << 12, n_seeds=1, config=packed))


def c5a2m_designs():
    circuit = all_filters()["c5a2m"].circuit
    graph = build_circuit_graph(circuit)
    return circuit, {
        "bibs": make_bibs_testable(graph),
        "ka": make_ka_testable(graph).design,
    }


@pytest.mark.parametrize("batch_width, chunk_batches, tails", [
    # Round one is 64 patterns: detectable faults outlive it on three
    # kernels, which then need the run over the full stream.
    (64, 1, {("bibs", "kernel1"), ("ka", "kernel6"), ("ka", "kernel7")}),
    # Round one is 1,024 patterns: every survivor is redundant.
    (256, 4, set()),
])
def test_round_one_then_podem_equals_one_full_run_then_podem(
        monkeypatch, batch_width, chunk_batches, tails):
    """Per kernel, the flow's detections, redundant list and pattern
    counts equal those of one run to ``max_patterns`` followed by PODEM on
    its survivors, whether or not a second run was needed."""
    max_patterns = 1 << 12
    targets = (0.995, 1.0)
    config = RunConfig(execution=ExecutionPolicy(chunk_batches=chunk_batches))
    circuit, designs = c5a2m_designs()
    tail_runs = []
    run = FaultSimulator.run

    def recording_run(self, source, max_patterns=None, faults=None, **kwargs):
        # Round one also names its (collapsed) faults; only the second
        # run covers the full stream.
        if faults is not None and kwargs["config"].max_patterns == 1 << 12:
            tail_runs.append((tdm, self.netlist.name.split(":")[1]))
        return run(self, source, max_patterns, faults, **kwargs)

    monkeypatch.setattr(FaultSimulator, "run", recording_run)
    for seed in (1994, 7):
        tail_runs.clear()
        for tdm, design in designs.items():
            evaluation = evaluate_design(
                circuit, design, targets, max_patterns, seed,
                batch_width=batch_width, config=config,
            )
            for kernel in evaluation.kernel_evaluations:
                netlist = kernel.netlist
                simulator = FaultSimulator(netlist, batch_width=batch_width)
                source = RandomPatternSource(len(netlist.primary_inputs), seed=seed)
                reference = simulator.run(
                    source, config=config.replace(max_patterns=max_patterns))
                redundant, _tests, _aborted = podem.classify_faults(
                    netlist, reference.undetected)
                reference.merge_undetectable(redundant)
                result = kernel.result
                assert result.first_detection == reference.first_detection
                assert result.undetectable == reference.undetectable
                assert kernel.patterns_at == {
                    target: reference.patterns_for_coverage(target)
                    for target in targets
                }
        assert set(tail_runs) == tails


def test_kernel_with_only_redundant_survivors_applies_one_round():
    """``n_patterns`` counts the patterns applied: the c5a2m BIBS kernel
    stops after round one once PODEM proves both survivors redundant."""
    circuit, designs = c5a2m_designs()
    evaluation = evaluate_design(circuit, designs["bibs"], max_patterns=1 << 14)
    (kernel,) = evaluation.kernel_evaluations
    assert kernel.result.n_patterns == 1024
    assert not kernel.result.partial
    assert len(kernel.result.undetectable) == 2


def test_cancel_during_podem_keeps_the_first_round_and_the_proofs(monkeypatch):
    """A token tripped while PODEM runs stops the second run before its
    first round: the kernel is partial, still reports the round it
    applied, and keeps the redundant faults PODEM proved."""
    token = CancelToken()
    classify = podem.classify_faults

    def tripping_classify(netlist, faults, max_backtracks=5000):
        token.trip()
        return classify(netlist, faults, max_backtracks)

    monkeypatch.setattr(podem, "classify_faults", tripping_classify)
    circuit, designs = c5a2m_designs()
    config = RunConfig(cancel=token).with_execution(chunk_batches=1)
    evaluation = evaluate_design(
        circuit, designs["bibs"], max_patterns=1 << 12, batch_width=64,
        config=config,
    )
    (kernel,) = evaluation.kernel_evaluations
    assert kernel.result.partial
    assert kernel.result.stop_reason == STOP_CANCELLED
    assert kernel.result.n_patterns == 64
    assert len(kernel.result.undetectable) == 2
    assert kernel.patterns_at[1.0] is None


def test_pattern_budget_of_one_round_keeps_the_column():
    """A budget of at least one round cuts no c5a2m kernel short; one
    below a round stops every first round and blanks the pattern rows."""
    full = measure_circuit("c5a2m", 1 << 13, n_seeds=1)
    capped = measure_circuit(
        "c5a2m", 1 << 13, n_seeds=1,
        config=RunConfig(budget=Budget(max_patterns=4096)))
    assert capped == full
    assert full.patterns_995 == (46, 229)
    blank = measure_circuit(
        "c5a2m", 1 << 13, n_seeds=1,
        config=RunConfig(budget=Budget(max_patterns=512)))
    for row in ("patterns_995", "time_995", "patterns_100", "time_100"):
        assert getattr(blank, row) == (None, None), row


def test_each_survivor_is_proven_once_across_seeds(monkeypatch):
    """Seeds share a kernel's netlist, so its verdicts too: three seeds of
    c5a2m judge its 36 redundant faults once, not 108 times, whether a
    certificate or PODEM gives the verdict."""
    certify, classify = certify_module.certify, podem.classify_faults
    judged = []

    def counting_certify(netlist, faults, verdicts=None):
        certified = certify(netlist, faults, verdicts)
        judged.extend((netlist.fingerprint(), fault) for fault in certified)
        return certified

    def counting_classify(netlist, faults, max_backtracks=5000):
        judged.extend((netlist.fingerprint(), fault) for fault in faults)
        return classify(netlist, faults, max_backtracks)

    monkeypatch.setattr(certify_module, "certify", counting_certify)
    monkeypatch.setattr(podem, "classify_faults", counting_classify)
    measure_circuit("c5a2m", 1 << 13, n_seeds=3)
    assert len(judged) == len(set(judged)) == 36


@pytest.mark.parametrize("name", ["c5a2m", "c4a4m"])
def test_paper_columns_hand_podem_no_fault(monkeypatch, name):
    """Every first-round survivor of the paper's kernels carries a
    certificate, so PODEM is never called; the column is Table 2's."""
    handed = []
    classify = podem.classify_faults

    def recording_classify(netlist, faults, max_backtracks=5000):
        handed.extend(faults)
        return classify(netlist, faults, max_backtracks)

    monkeypatch.setattr(podem, "classify_faults", recording_classify)
    column = measure_circuit(name, 1 << 14, n_seeds=3)
    assert handed == []
    assert column.time_100 == {"c5a2m": (173, 154), "c4a4m": (168, 159)}[name]


def test_verdict_counts_on_kernels_and_counters(monkeypatch, tele):
    """Each kernel counts its verdicts by source, and the flow publishes
    the sums as ``atpg.*`` counters: on c5a2m the certificates settle all
    36 faults; without them PODEM proves the same 36, or aborts the four
    multiplier faults under a tiny backtrack limit."""
    circuit, _designs = c5a2m_designs()

    def sweep():
        tele.reset()
        comparison = compare_tdms(circuit, max_patterns=1 << 13, n_seeds=3)
        kernels = (comparison.bibs.kernel_evaluations
                   + comparison.ka.kernel_evaluations)
        totals = (sum(sum(k.certified.values()) for k in kernels),
                  sum(k.proven for k in kernels),
                  sum(k.aborted for k in kernels))
        counters = tele.metrics.snapshot()["counters"]
        assert totals == tuple(counters.get(f"atpg.{name}", 0)
                               for name in ("certified", "proven", "aborted"))
        return totals, kernels

    totals, kernels = sweep()
    assert totals == (36, 0, 0)
    assert sum(k.certified[UNOBSERVABLE] for k in kernels) == 32
    assert sum(k.certified[BLOCK] for k in kernels) == 4

    monkeypatch.setattr(certify_module, "certify", lambda *args: {})
    assert sweep()[0] == (0, 36, 0)

    classify = podem.classify_faults
    monkeypatch.setattr(
        podem, "classify_faults",
        lambda netlist, faults: classify(netlist, faults, max_backtracks=8),
    )
    assert sweep()[0] == (0, 32, 4)


def test_podem_tests_are_replayed_on_the_kernel(monkeypatch):
    """Each test PODEM returns is simulated on its kernel: at 64 patterns a
    round, c5a2m's detectable survivors get real tests and pass, and a
    test that detects nothing stops the flow, naming kernel and fault."""
    circuit, designs = c5a2m_designs()
    config = RunConfig().with_execution(chunk_batches=1)
    classify = podem.classify_faults
    returned = []

    def recording_classify(netlist, faults, max_backtracks=5000):
        redundant, tests, aborted = classify(netlist, faults, max_backtracks)
        returned.extend(tests)
        return redundant, tests, aborted

    monkeypatch.setattr(podem, "classify_faults", recording_classify)
    evaluate_design(circuit, designs["bibs"], max_patterns=1 << 12,
                    batch_width=64, config=config)
    assert returned

    def lying_classify(netlist, faults, max_backtracks=5000):
        redundant, tests, aborted = classify(netlist, faults, max_backtracks)
        return redundant, {fault: {} for fault in tests}, aborted

    monkeypatch.setattr(podem, "classify_faults", lying_classify)
    with pytest.raises(SimulationError,
                       match=r"kernel c5a2m:kernel1: PODEM's test for s_a_"):
        evaluate_design(circuit, designs["bibs"], max_patterns=1 << 12,
                        batch_width=64, config=config)


def test_each_kernel_is_collapsed_once_across_seeds(monkeypatch):
    """Seeds share a kernel's collapsed fault list: three seeds of every
    c5a2m kernel collapse each netlist once, in the flow, and no engine
    run collapses it again."""
    collapsed = []
    collapse = collapse_module.collapse_faults

    def counting_collapse(netlist):
        collapsed.append(netlist)
        return collapse(netlist)

    for module in (collapse_module, flow_module, engine_core):
        monkeypatch.setattr(module, "collapse_faults", counting_collapse)
    circuit, designs = c5a2m_designs()
    kernels = []
    for design in designs.values():
        evaluation = evaluate_design(circuit, design, max_patterns=1 << 13,
                                     n_seeds=3)
        kernels.extend(k.netlist for k in evaluation.kernel_evaluations)
    assert len(collapsed) == len(kernels) > 1
    assert all(a is b for a, b in zip(collapsed, kernels))
