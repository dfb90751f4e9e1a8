"""End-to-end flow: kernel lowering and TDM evaluation."""


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
from repro.exec.config import ExecutionPolicy, RunConfig
from repro.experiments.table2 import measure_circuit
from repro.graph.build import build_circuit_graph


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
