"""Property-based differential suite for the vectorised kernel.

Three implementations of fault propagation must agree bit for bit on any
netlist: the event-driven packed bigint loop
(:class:`repro.faultsim.simulator.FaultSimulator`), the numpy-vectorised
kernel (:class:`repro.engine.vec.VecFaultSimulator`) and the deliberately
naive scalar reference from ``tests/test_differential_props.py`` (its own
gate truth tables, its own fixpoint traversal — no shared code).
Hypothesis drives random levelised netlists × random fault samples ×
random pattern blocks through all three and asserts identical detection
tables, first-detection indices and batch-merge results (survivor lists,
``pattern_base`` offsets, ``drop_detected`` in both positions), and that
one pass over a whole engine round equals the same round run one batch
at a time, on both kernels.

The end-to-end property closes the loop through the engine:
``simulate(..., kernel="vec")`` must reproduce the packed run's coverage
curve exactly.  Profiles live in ``tests/conftest.py``: CI runs the
``ci`` profile derandomized, the nightly job searches harder (see
``docs/TESTING.md``).

The suite pins the per-batch crossover (``VEC_MIN_LANES``) to 0, so its
1–8-fault batches exercise the array path rather than the packed
fallback, and the one-batch property also draws how many lanes go in a
chunk, which limit caps them (row width or memory ceiling), and a gate
group cap of 1–4 rows.  Deterministic cases cover what random small
netlists do not reach: the corpus kernels' full fault universes split
into several chunks at one and four words per lane, a level wider than
the shipped group cap, a run whose live set crosses the shipped
crossover, a round whose live set crosses it mid-round (so the rest of
the round runs packed), and the work count of a chunk that starts deep
in the netlist.
"""

from __future__ import annotations

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
np = pytest.importorskip("numpy")

from hypothesis import given, strategies as st  # noqa: E402

import repro.engine.vec as vec_module  # noqa: E402
from repro.engine import RunConfig, simulate  # noqa: E402
from repro.engine.vec import VecFaultSimulator, vec_support_reason  # noqa: E402
from repro.errors import SimulationError  # noqa: E402
from repro.exec.config import ExecutionPolicy  # noqa: E402
from repro.faultsim.collapse import collapse_faults  # noqa: E402
from repro.faultsim.coverage import coverage_curve  # noqa: E402
from repro.faultsim.faults import Fault, full_fault_universe  # noqa: E402
from repro.faultsim.patterns import (  # noqa: E402
    RandomPatternSource,
    SequencePatternSource,
)
from repro.faultsim.simulator import FaultSimulator  # noqa: E402
from repro.library.scenarios import SCENARIOS  # noqa: E402
from repro.netlist.evaluate import Evaluator  # noqa: E402
from repro.netlist.gates import GateType  # noqa: E402
from repro.netlist.netlist import Netlist  # noqa: E402
from tests.test_differential_props import (  # noqa: E402
    _input_assignments,
    _pack,
    _reference_evaluate,
    netlist_and_patterns,
)
from tests.test_golden_coverage import CORPUS  # noqa: E402

#: The shipped per-batch crossover, read before the suite pins it to 0.
SHIPPED_MIN_LANES = vec_module.VEC_MIN_LANES


@pytest.fixture(autouse=True, scope="module")
def _array_path():
    """Run every batch of the suite on the array path.

    The batch properties draw 1–8 faults; at the shipped crossover most
    of those batches would run the packed propagator, and the three-way
    differential would compare packed against packed.  Module scope,
    because Hypothesis rejects function-scoped fixtures.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vec_module, "VEC_MIN_LANES", 0)
        yield


def _good_values(netlist, patterns):
    """Packed golden values for a pattern block, via the packed evaluator."""
    _, packed_inputs = _input_assignments(netlist, patterns)
    mask = (1 << len(patterns)) - 1
    return Evaluator(netlist).run(packed_inputs, mask), mask


def _force_lanes(patch, compiled, n_words, lanes, bound):
    """Cap chunks at ``lanes`` lanes of ``n_words`` words through one
    limit: the row width (``"rows"``) or the memory ceiling
    (``"budget"``).  The other limit is set so that it does not bind."""
    lane_bytes = (compiled.n_rows + 2 * compiled.widest) * n_words * 8
    if bound == "rows":
        patch.setattr(vec_module, "VEC_ROW_WORDS", lanes * n_words)
        patch.setattr(vec_module, "VEC_MEMORY_BUDGET", 1 << 62)
    else:
        patch.setattr(vec_module, "VEC_ROW_WORDS", 1 << 62)
        patch.setattr(vec_module, "VEC_MEMORY_BUDGET", lanes * lane_bytes)


@given(netlist_and_patterns(), st.data())
def test_vec_batch_matches_packed_and_scalar_reference(case, data):
    """One batch, three implementations: the vec kernel's detections and
    survivors equal the packed loop's, and both equal the brute-force
    scalar reference's first differing pattern index per fault.  The
    gate group cap is drawn from 1–4 rows before the netlist is
    compiled, so levels and output gathers split into sub-groups, and
    one of the two chunk limits is cut to a drawn number of lanes, so
    the batch runs as one chunk or as several that start at different
    levels."""
    netlist, patterns = case
    universe = full_fault_universe(netlist)
    faults = data.draw(
        st.lists(st.sampled_from(universe), min_size=1, max_size=8,
                 unique=True)
    )
    chunk = data.draw(st.integers(min_value=1, max_value=len(faults)))
    bound = data.draw(st.sampled_from(["rows", "budget"]))
    cap = data.draw(st.integers(min_value=1, max_value=4))
    assert vec_support_reason(netlist) is None

    good, mask = _good_values(netlist, patterns)
    scalar_inputs, _ = _input_assignments(netlist, patterns)

    packed_sim = FaultSimulator(netlist, batch_width=len(patterns))
    packed_det, vec_det = {}, {}
    packed_live = packed_sim.simulate_batch(faults, good, mask, 0, packed_det)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vec_module, "VEC_GROUP_WIDTH", cap)
        vec_sim = VecFaultSimulator(netlist, batch_width=len(patterns))
        assert vec_sim.compiled.widest <= cap
        _force_lanes(patch, vec_sim.compiled, 1, chunk, bound)
        vec_live = vec_sim.simulate_batch(faults, good, mask, 0, vec_det)

    assert vec_det == packed_det
    assert vec_live == packed_live

    golden_rows = [_reference_evaluate(netlist, row) for row in scalar_inputs]
    for fault in faults:
        expected = None
        for index, row in enumerate(scalar_inputs):
            faulty = _reference_evaluate(netlist, row, fault)
            if any(golden_rows[index][po] != faulty[po]
                   for po in netlist.primary_outputs):
                expected = index
                break
        assert vec_det.get(fault) == expected


@given(netlist_and_patterns(), st.data())
def test_vec_merge_semantics_match_packed_across_batches(case, data):
    """The merge contract under multi-batch runs: pattern_base offsets,
    live-list carry-over, pre-seeded detections (a fault detected in an
    earlier batch must keep its original index) and drop_detected=False
    all behave identically in both kernels."""
    netlist, patterns = case
    universe = full_fault_universe(netlist)
    faults = data.draw(
        st.lists(st.sampled_from(universe), min_size=1, max_size=8,
                 unique=True)
    )
    drop = data.draw(st.booleans())
    split = data.draw(st.integers(min_value=1, max_value=len(patterns)))
    blocks = [patterns[:split], patterns[split:]]

    packed_sim = FaultSimulator(netlist, batch_width=len(patterns))
    vec_sim = VecFaultSimulator(netlist, batch_width=len(patterns))
    packed_det, vec_det = {}, {}
    packed_live, vec_live = list(faults), list(faults)
    base = 0
    for block in blocks:
        if not block:
            continue
        good, mask = _good_values(netlist, block)
        packed_live = packed_sim.simulate_batch(
            packed_live, good, mask, base, packed_det, drop_detected=drop)
        vec_live = vec_sim.simulate_batch(
            vec_live, good, mask, base, vec_det, drop_detected=drop)
        assert vec_det == packed_det
        assert vec_live == packed_live
        base += len(block)
    if not drop:
        # Without dropping every fault survives every batch.
        assert vec_live == list(faults)


@given(netlist_and_patterns(), st.data())
def test_round_wide_batch_equals_per_batch_calls(case, data):
    """One ``simulate_batch`` over a whole engine round, its mask wider
    than the simulator's ``batch_width``, equals the same faults run one
    batch at a time: same detections, same survivors, for both kernels
    and both ``drop_detected`` settings.  The vec kernel works through
    the round in ``batch_width`` slices, each at its own pattern base,
    the last one short when the width does not divide the round."""
    netlist, patterns = case
    universe = full_fault_universe(netlist)
    faults = data.draw(
        st.lists(st.sampled_from(universe), min_size=1, max_size=8,
                 unique=True)
    )
    batch_width = data.draw(st.integers(min_value=1, max_value=len(patterns)))
    drop = data.draw(st.booleans())
    base = data.draw(st.integers(min_value=0, max_value=100))
    good, mask = _good_values(netlist, patterns)
    for kernel in (FaultSimulator, VecFaultSimulator):
        round_det, batch_det = {}, {}
        round_live = kernel(netlist, batch_width).simulate_batch(
            faults, good, mask, base, round_det, drop_detected=drop)
        simulator = kernel(netlist, batch_width)
        batch_live = list(faults)
        for offset in range(0, len(patterns), batch_width):
            block_good, block_mask = _good_values(
                netlist, patterns[offset:offset + batch_width])
            batch_live = simulator.simulate_batch(
                batch_live, block_good, block_mask, base + offset,
                batch_det, drop_detected=drop)
        assert round_det == batch_det, kernel.__name__
        assert round_live == batch_live, kernel.__name__


@given(netlist_and_patterns())
def test_vec_engine_run_reproduces_packed_coverage_curve(case):
    """End to end through the engine: kernel="vec" must reproduce the
    packed run's first-detection table, pattern count and entire
    coverage curve on the full fault universe."""
    netlist, patterns = case
    n_inputs = len(netlist.primary_inputs)
    rows = [
        tuple((word >> position) & 1 for position in range(n_inputs))
        for word in patterns
    ]
    runs = {}
    for kernel in ("packed", "vec"):
        runs[kernel] = simulate(
            netlist, None, SequencePatternSource(rows),
            config=RunConfig(
                execution=ExecutionPolicy(kernel=kernel, batch_width=4),
                max_patterns=len(patterns),
            ),
        )
    assert runs["vec"].kernel == "vec"
    assert runs["vec"].kernel_fallback is None
    assert runs["packed"].kernel == "packed"
    assert runs["vec"].first_detection == runs["packed"].first_detection
    assert runs["vec"].n_patterns == runs["packed"].n_patterns
    assert coverage_curve(runs["vec"]) == coverage_curve(runs["packed"])


# ------------------------------------------------------ deterministic cases

def _spy_chunks(monkeypatch):
    """Record ``(lanes, start level)`` of every chunk the kernel runs."""
    seen = []
    original = VecFaultSimulator._simulate_chunk

    def spy(self, chunk, start, *rest):
        seen.append((len(chunk), start))
        return original(self, chunk, start, *rest)

    monkeypatch.setattr(VecFaultSimulator, "_simulate_chunk", spy)
    return seen


@pytest.mark.parametrize("width", [64, 256])
@pytest.mark.parametrize("scenario", sorted(CORPUS))
def test_multi_chunk_batch_matches_packed(scenario, width):
    """A batch split into several lane chunks equals the packed loop.

    Each chunk limit in turn, the row width and then the memory ceiling,
    is cut so the full fault universe (stems and branches, from the
    primary inputs to the deepest level) splits into three equal chunks
    and an uneven fourth.  Each chunk starts at its own injection level
    after filling the rows live there from golden words, so a wrong
    boundary fill or start level moves a detection here.
    """
    netlist = SCENARIOS[scenario]()
    faults = full_fault_universe(netlist)
    vec_sim = VecFaultSimulator(netlist, batch_width=width)
    compiled = vec_sim.compiled
    levels = [compiled.injection_level(fault) for fault in faults]
    assert min(levels) == 0 and max(levels) == compiled.depth
    assert any(not fault.is_stem for fault in faults)

    source = RandomPatternSource(len(netlist.primary_inputs), seed=11)
    packed_inputs = next(source.batches(width))
    mask = (1 << width) - 1
    good = Evaluator(netlist).run(
        dict(zip(netlist.primary_inputs, packed_inputs)), mask)
    packed_det = {}
    packed_live = FaultSimulator(netlist, batch_width=width).simulate_batch(
        faults, good, mask, 64, packed_det)

    chunk = -(-2 * len(faults) // 7)
    for bound in ("rows", "budget"):
        with pytest.MonkeyPatch.context() as patch:
            _force_lanes(patch, compiled, width // 64, chunk, bound)
            seen = _spy_chunks(patch)
            vec_det = {}
            vec_live = vec_sim.simulate_batch(faults, good, mask, 64, vec_det)

        sizes = [lanes for lanes, _start in seen]
        assert sizes[:-1] == [chunk] * 3 and 0 < sizes[-1] < chunk, bound
        starts = [start for _lanes, start in seen]
        assert starts == sorted(starts) and starts[-1] > 0
        assert vec_det == packed_det
        assert list(vec_det) == list(packed_det)
        assert vec_live == packed_live


def test_level_wider_than_the_group_cap_matches_packed():
    """70 NANDs at level 1 over shared inputs, every one a primary
    output: one gate group and one output gather of 70 rows, which
    compilation must cut to at most ``VEC_GROUP_WIDTH`` rows each.  The
    full fault universe on a 256-pattern batch equals the packed loop."""
    netlist = Netlist("wide")
    inputs = netlist.new_inputs(13, prefix="i")
    for index, pair in enumerate(itertools.islice(
            itertools.combinations(inputs, 2), 70)):
        netlist.mark_output(netlist.add_gate(GateType.NAND, list(pair),
                                             name=f"g{index}"))
    faults = full_fault_universe(netlist)
    vec_sim = VecFaultSimulator(netlist, batch_width=256)
    assert vec_sim.compiled.widest <= vec_module.VEC_GROUP_WIDTH < 70

    source = RandomPatternSource(len(inputs), seed=5)
    mask = (1 << 256) - 1
    good = Evaluator(netlist).run(
        dict(zip(inputs, next(source.batches(256)))), mask)
    packed_det, vec_det = {}, {}
    packed_live = FaultSimulator(netlist, batch_width=256).simulate_batch(
        faults, good, mask, 0, packed_det)
    vec_live = vec_sim.simulate_batch(faults, good, mask, 0, vec_det)
    assert vec_det == packed_det
    assert list(vec_det) == list(packed_det)
    assert vec_live == packed_live


def test_live_set_crossing_the_crossover_runs_both_paths(monkeypatch):
    """c3a2m's live set falls from 1 328 faults to one after the first
    batch.  At the shipped crossover the kernel runs that batch on the
    array path and hands the tail to the packed propagator, and the run
    still equals the packed kernel's."""
    monkeypatch.setattr(vec_module, "VEC_MIN_LANES", SHIPPED_MIN_LANES)
    seen = _spy_chunks(monkeypatch)
    fallback = []
    packed_batch = FaultSimulator.simulate_batch

    def packed_spy(self, live, *rest, **kwargs):
        if isinstance(self, VecFaultSimulator):
            fallback.append(len(live))
        return packed_batch(self, live, *rest, **kwargs)

    monkeypatch.setattr(FaultSimulator, "simulate_batch", packed_spy)
    netlist = SCENARIOS["c3a2m_kernel"]()
    runs = {}
    for kernel in ("packed", "vec"):
        runs[kernel] = simulate(
            netlist, None,
            RandomPatternSource(len(netlist.primary_inputs), seed=7),
            config=RunConfig(
                execution=ExecutionPolicy(
                    kernel=kernel, executor="serial", jobs=1),
                max_patterns=2048,
            ),
        )
    assert runs["vec"].kernel == "vec"
    assert seen and sum(lanes for lanes, _ in seen) >= SHIPPED_MIN_LANES
    assert fallback and max(fallback) < SHIPPED_MIN_LANES
    assert runs["vec"].first_detection == runs["packed"].first_detection
    assert runs["vec"].n_patterns == runs["packed"].n_patterns


def test_round_crossing_the_crossover_mid_round_matches_per_batch(
        monkeypatch):
    """At the shipped crossover, a 256-pattern round of four 64-pattern
    batches on c3a2m runs its first two batches on the array path; four
    faults are then live, and the last 128 patterns run in one packed
    pass that detects three of them.  The round equals four per-batch
    packed calls."""
    monkeypatch.setattr(vec_module, "VEC_MIN_LANES", SHIPPED_MIN_LANES)
    seen = _spy_chunks(monkeypatch)
    remainder = []
    packed_batch = FaultSimulator.simulate_batch

    def packed_spy(self, live, good, mask, pattern_base, *rest):
        if isinstance(self, VecFaultSimulator):
            remainder.append((len(live), pattern_base, mask.bit_length()))
        return packed_batch(self, live, good, mask, pattern_base, *rest)

    monkeypatch.setattr(FaultSimulator, "simulate_batch", packed_spy)
    netlist = SCENARIOS["c3a2m_kernel"]()
    faults = collapse_faults(netlist)[0]
    width = 64
    batches = RandomPatternSource(
        len(netlist.primary_inputs), seed=7).batches(width)
    blocks = [dict(zip(netlist.primary_inputs, next(batches)))
              for _ in range(4)]
    evaluator = Evaluator(netlist)
    block_mask = (1 << width) - 1
    round_inputs = {
        net: sum(block[net] << (width * k) for k, block in enumerate(blocks))
        for net in netlist.primary_inputs
    }
    good = evaluator.run(round_inputs, (1 << 4 * width) - 1)

    vec_det = {}
    vec_live = VecFaultSimulator(netlist, width).simulate_batch(
        faults, good, (1 << 4 * width) - 1, 0, vec_det)
    assert seen and remainder == [(4, 2 * width, 2 * width)]
    assert sum(index >= 2 * width for index in vec_det.values()) == 3

    packed = FaultSimulator(netlist, width)
    packed_det, packed_live = {}, list(faults)
    for k, block in enumerate(blocks):
        packed_live = packed.simulate_batch(
            packed_live, evaluator.run(block, block_mask), block_mask,
            k * width, packed_det)
    assert vec_det == packed_det
    assert vec_live == packed_live


def test_events_count_only_levels_above_the_chunk_start():
    """``events_propagated`` counts the gate × lane evaluations done.

    On a six-inverter chain a lone fault at the last level starts its
    chunk there and evaluates nothing; one level lower it evaluates the
    last gate once.  The full-forward count would be 6 per lane.
    """
    netlist = Netlist("chain")
    nets = [netlist.new_input("a")]
    for index in range(6):
        nets.append(netlist.add_gate(GateType.NOT, [nets[-1]],
                                     name=f"g{index}"))
    netlist.mark_output(nets[-1])
    mask = 0b1111
    good = Evaluator(netlist).run({nets[0]: 0b0110}, mask)
    cases = (
        ([Fault(nets[6], 0)], 0),
        ([Fault(nets[5], 1)], 1),
        ([Fault(nets[5], 1), Fault(nets[6], 0)], 2),
    )
    for faults, events in cases:
        vec_sim = VecFaultSimulator(netlist, batch_width=4)
        packed_det, vec_det = {}, {}
        FaultSimulator(netlist, batch_width=4).simulate_batch(
            faults, good, mask, 0, packed_det)
        vec_sim.simulate_batch(faults, good, mask, 0, vec_det)
        assert vec_det == packed_det == {fault: 1 for fault in faults}
        assert vec_sim.events_propagated == events


def test_floating_output_falls_back():
    """A primary output nothing drives has no defining level, so the
    kernel refuses it and the engine runs packed instead."""
    netlist = Netlist("floating")
    inputs = netlist.new_inputs(2, prefix="i")
    netlist.mark_output(netlist.add_gate(GateType.AND, inputs, name="g"))
    netlist.mark_output(netlist.add_net("dangling"))
    assert "floating" in vec_support_reason(netlist)
    with pytest.raises(SimulationError, match="floating"):
        VecFaultSimulator(netlist)
