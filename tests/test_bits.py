"""The BITS layer: design space, controller, JSON I/O, CBILBO advice."""

import pytest

from repro.bilbo.register import BILBOMode
from repro.bits import io_json
from repro.bits.controller import Phase, BISTController
from repro.bits.design_space import explore_design_space
from repro.core.bibs import make_bibs_testable
from repro.core.cbilbo import find_single_register_cycles, recommend
from repro.core.schedule import ScheduledKernel, schedule_kernels
from repro.datapath.filters import c5a2m
from repro.errors import RTLError, ScheduleError
from repro.graph.build import build_circuit_graph
from repro.library.figures import figure4
from repro.library.ka_example import figure9
from repro.rtl.circuit import RTLCircuit
from repro.rtl.simulate import RTLSimulator


# ------------------------------------------------------------ design space

def test_design_space_contains_minimal_design():
    graph = build_circuit_graph(figure4())
    front = explore_design_space(graph, max_extra=6, limit=3000)
    minimal = make_bibs_testable(graph)
    assert any(
        set(p.bilbo_registers) == set(minimal.bilbo_registers) for p in front
    )


def test_design_space_points_are_valid_and_nondominated():
    from repro.core.bibs import is_valid_selection

    graph = build_circuit_graph(figure9())
    front = explore_design_space(graph, max_extra=3, limit=2000)
    for point in front:
        assert is_valid_selection(graph, set(point.bilbo_registers))
    for p in front:
        assert not any(q.dominates(p) for q in front if q is not p)


def test_pareto_front_filters_dominated():
    graph = build_circuit_graph(figure4())
    front = explore_design_space(graph, max_extra=6, limit=3000)
    # figure4's minimal design dominates every refinement.
    assert len(front) == 1
    assert front[0].n_registers == 6


# -------------------------------------------------------------- controller

def _controller():
    graph = build_circuit_graph(figure4())
    design = make_bibs_testable(graph)
    schedule = schedule_kernels(
        [ScheduledKernel(k, 50) for k in design.kernels]
    )
    widths = {e.register: e.weight for e in graph.register_edges()}
    return BISTController(
        schedule, {r: widths[r] for r in design.bilbo_registers}
    ), schedule


def test_controller_phases_in_order():
    controller, schedule = _controller()
    phases = [state.phase for state in controller.states]
    assert phases[0] is Phase.RESET
    assert phases[-1] is Phase.DONE
    assert phases.count(Phase.RUN) == schedule.n_sessions


def test_controller_run_cycles_match_schedule():
    controller, schedule = _controller()
    run_cycles = [
        state.cycles for state in controller.states if state.phase is Phase.RUN
    ]
    assert sorted(run_cycles) == sorted(schedule.session_times)


def test_controller_mode_consistency():
    """No register is ever TPG and SA in the same state; every session's
    TPG/SA assignment matches its kernels."""
    controller, schedule = _controller()
    for state in controller.states:
        if state.phase is not Phase.RUN:
            continue
        session = schedule.sessions[state.session]
        for scheduled in session:
            for name in scheduled.kernel.tpg_registers:
                assert state.modes[name] is BILBOMode.TPG
            for name in scheduled.kernel.sa_registers:
                assert state.modes[name] is BILBOMode.SA


def test_controller_trace_and_modes_at():
    controller, _ = _controller()
    trace = list(controller.trace())
    assert len(trace) == controller.total_cycles
    assert controller.modes_at(0)["R1"] is BILBOMode.RESET
    with pytest.raises(ScheduleError):
        controller.modes_at(controller.total_cycles + 5)


def test_controller_describe():
    controller, _ = _controller()
    text = controller.describe()
    assert "run session 0" in text and "done" in text


# ------------------------------------------------------------------- JSON

def test_json_roundtrip_structure_and_behaviour():
    circuit = c5a2m().circuit
    text = io_json.dumps(circuit)
    rebuilt = io_json.loads(text)
    assert rebuilt.name == circuit.name
    assert set(rebuilt.blocks) == set(circuit.blocks)
    assert set(rebuilt.registers) == set(circuit.registers)
    sim_a, sim_b = RTLSimulator(circuit), RTLSimulator(rebuilt)
    vector = {name: 9 for name in "abcdefgh"}
    for _ in range(5):
        out_a, out_b = sim_a.step(vector), sim_b.step(vector)
    assert out_a == out_b


def test_json_file_roundtrip(tmp_path):
    circuit = c5a2m().circuit
    path = tmp_path / "c5a2m.json"
    io_json.dump(circuit, path)
    assert io_json.load(path).stats() == circuit.stats()


def test_json_bad_schema():
    with pytest.raises(RTLError):
        io_json.circuit_from_dict({"schema": 99, "name": "x"})


@pytest.mark.parametrize("document, reason", [
    ([1, 2], "must be a JSON object, not list"),
    ({"schema": 1}, "missing key 'name'"),
    ({"schema": 1, "name": "x", "nets": [{"name": "a"}]}, "missing key 'width'"),
])
def test_json_malformed_document_is_an_rtl_error(document, reason):
    with pytest.raises(RTLError, match=reason):
        io_json.circuit_from_dict(document)


def test_json_custom_kind_registry():
    from repro.datapath.modules import passthrough_spec

    io_json.register_block_kind("mypass", lambda: passthrough_spec(4))
    circuit = RTLCircuit("custom")
    pi = circuit.new_input("pi", 4)
    out = circuit.add_net("out", 4)
    circuit.add_block("B", [pi], [out], kind="mypass")
    circuit.mark_output(out)
    rebuilt = io_json.loads(io_json.dumps(circuit))
    assert rebuilt.blocks["B"].word_func([6]) == [6]


# ----------------------------------------------------------------- CBILBO

def test_single_register_cycle_detected():
    circuit = RTLCircuit("selfloop")
    pi = circuit.new_input("pi", 4)
    fb = circuit.add_net("fb", 4)
    out = circuit.add_net("out", 4)
    circuit.add_block("B", [pi, fb], [out])
    circuit.add_register("R", out, fb)
    circuit.mark_output(out)
    graph = build_circuit_graph(circuit)
    cycles = find_single_register_cycles(graph)
    assert len(cycles) == 1
    assert cycles[0].register == "R"
    assert recommend(cycles[0]) == "cbilbo"
    assert cycles[0].cbilbo_cost() < cycles[0].extra_register_cost()


def test_two_register_cycle_not_flagged():
    graph = build_circuit_graph(figure9())
    assert find_single_register_cycles(graph) == []


def test_bibs_rejects_single_register_cycle_with_hint():
    from repro.errors import SelectionError

    circuit = RTLCircuit("selfloop")
    pi = circuit.new_input("pi", 4)
    fb = circuit.add_net("fb", 4)
    out = circuit.add_net("out", 4)
    circuit.add_block("B", [pi, fb], [out])
    circuit.add_register("R", out, fb)
    circuit.mark_output(out)
    graph = build_circuit_graph(circuit)
    with pytest.raises(SelectionError):
        make_bibs_testable(graph, method="greedy")
