"""Per-netlist artifacts: built once per structure, shared, never stale.

``repro.engine.artifacts`` keeps each netlist's lint verdict, evaluator
and kernel tables across ``simulate()`` calls, keyed by
``Netlist.fingerprint()``.  These tests pin what that cache may not
change (results, per-run instrumentation, lint failures) and what its
key must see (structure, not the object or its name).
"""

import gc
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.bibs import make_bibs_testable
from repro.core.flow import lower_kernel_to_netlist
from repro.core.ka85 import make_ka_testable
from repro.datapath.filters import all_filters
from repro.engine import artifacts as artifacts_module
from repro.engine import simulate
from repro.engine.artifacts import (
    MAX_CACHED_GATES,
    ArtifactCache,
    netlist_artifacts,
)
from repro.errors import LintError
from repro.exec import ExecutionPolicy, RunConfig
from repro.exec import process as exec_process
from repro.faultsim.patterns import RandomPatternSource
from repro.graph.build import build_circuit_graph
from repro.library.scenarios import mac4_kernel, synth20k_kernel
from repro.netlist.gates import GateType
from repro.netlist.netlist import Gate

from tests.conftest import make_random_netlist, tiny_and_or
from tests.fixtures.lint import cyclic_netlist


@pytest.fixture
def cold(monkeypatch):
    """An empty process-wide cache for the test, and no parked pool."""
    fresh = ArtifactCache()
    monkeypatch.setattr(artifacts_module, "_CACHE", fresh)
    exec_process._drain_pool_cache()
    yield fresh
    exec_process._drain_pool_cache()


def _run(netlist, seed, **execution):
    source = RandomPatternSource(len(netlist.primary_inputs), seed=seed)
    return simulate(netlist, None, source, config=RunConfig(
        execution=ExecutionPolicy(**execution), max_patterns=2048))


def _outcome(result):
    return (result.first_detection, result.n_patterns,
            [shard.events_propagated for shard in result.shards])


def _table2_kernels(circuit_name):
    circuit = all_filters()[circuit_name].circuit
    graph = build_circuit_graph(circuit)
    for design in (make_bibs_testable(graph), make_ka_testable(graph).design):
        for kernel in design.kernels:
            yield circuit, kernel


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("executor", ["serial", "process"])
@pytest.mark.parametrize("kernel", ["packed", "vec"])
def test_cold_and_warm_runs_agree(cold, kernel, executor, jobs):
    netlist = mac4_kernel()
    policy = {"kernel": kernel, "executor": executor, "jobs": jobs}
    first = _run(netlist, 5, **policy)
    assert (cold.misses, cold.hits) == (1, 0)
    # A second netlist object with the same structure, on the kept
    # tables (and, for the process backend, the parked pool).
    second = _run(mac4_kernel(), 5, **policy)
    assert (cold.misses, cold.hits) == (1, 1)
    assert first.kernel == second.kernel == kernel
    assert _outcome(first) == _outcome(second)
    assert sum(_outcome(first)[2]) > 0


def test_cyclic_netlist_raises_on_every_call(cold, monkeypatch):
    from repro.lint import runner

    lint_runs = []
    preflight = runner.preflight_netlist

    def counting(netlist, **kwargs):
        lint_runs.append(netlist.name)
        return preflight(netlist, **kwargs)

    monkeypatch.setattr(runner, "preflight_netlist", counting)
    netlist = cyclic_netlist()
    for _ in range(2):
        with pytest.raises(LintError) as excinfo:
            _run(netlist, 1)
        assert any(f.rule == "NL001" for f in excinfo.value.findings)
    assert lint_runs == ["cyclic", "cyclic"]


def test_mutated_netlist_is_linted_again(cold):
    netlist = tiny_and_or()
    clean = _run(netlist, 3)
    assert clean.coverage() > 0
    # A second driver for ``t``, appended the way tests/fixtures/lint
    # builds its broken netlists.
    netlist.gates.append(Gate(GateType.BUF, (netlist.find_net("c"),),
                              netlist.find_net("t"), "g_extra"))
    with pytest.raises(LintError) as excinfo:
        _run(netlist, 3)
    assert any(f.rule == "NL003" for f in excinfo.value.findings)


def test_lint_verdict_is_kept_only_when_clean(cold, tele):
    netlist = tiny_and_or()
    for seed in (1, 2, 3):
        _run(netlist, seed)
    counters = tele.metrics.snapshot()["counters"]
    assert counters["lint.preflight_runs"] == 1
    assert counters["artifacts.misses"] == 1
    assert counters["artifacts.hits"] == 2


def test_lowerings_of_one_kernel_share_one_entry(cold):
    circuit, kernel = next(
        (c, k) for c, k in _table2_kernels("c5a2m") if k.logic_blocks)
    first = lower_kernel_to_netlist(circuit, kernel)
    second = lower_kernel_to_netlist(circuit, kernel)
    assert first is not second
    entry = netlist_artifacts(first)
    assert netlist_artifacts(second) is entry
    assert len(cold._entries) == 1
    for kernel_name in ("packed", "vec"):
        simulators = [netlist_artifacts(n).simulator(n, 256, kernel_name)
                      for n in (first, second)]
        assert [s.netlist for s in simulators] == [first, second]
        assert simulators[0].netlist is first
        assert simulators[1].netlist is second
        assert simulators[0] is not simulators[1]
        assert simulators[0].evaluator is simulators[1].evaluator
        assert simulators[0]._fanout is simulators[1]._fanout
        if kernel_name == "vec":
            assert simulators[0].compiled is simulators[1].compiled
    # The golden rounds read the same evaluator as the kernels.
    assert entry.evaluator(first) is simulators[0].evaluator
    # Each run reports on the caller's netlist, blocks included.
    result = _run(second, 9)
    assert result.netlist is second
    assert result.netlist.blocks is second.blocks


def test_cached_entry_keeps_no_netlist(cold):
    """An entry holds what was derived from its netlist, not the netlist:
    the first lowering of a kernel dies with its last caller reference."""
    circuit, kernel = next(
        (c, k) for c, k in _table2_kernels("c5a2m") if k.logic_blocks)
    netlist = lower_kernel_to_netlist(circuit, kernel)
    fingerprint = netlist.fingerprint()
    for kernel_name in ("packed", "vec"):
        result = _run(netlist, 7, kernel=kernel_name)
        assert result.kernel == kernel_name
    alive = weakref.ref(netlist)
    del netlist, result
    gc.collect()
    assert alive() is None
    entry = cold._entries[fingerprint]
    assert {"evaluator", "packed", "compiled"} <= set(entry._built)


def _racing(count, work):
    """``work(i)`` on ``count`` threads released together, with the
    interpreter switching threads as often as it can."""
    barrier = threading.Barrier(count)

    def run(index):
        barrier.wait(timeout=30)
        return work(index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=count) as pool:
            futures = [pool.submit(run, index) for index in range(count)]
            return [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)


def test_four_threads_reproduce_the_serial_results(cold, monkeypatch):
    netlist = make_random_netlist(8, 120, seed=4, n_outputs=6)
    seeds = [11, 12, 13, 14]
    threaded = _racing(
        len(seeds),
        lambda i: _outcome(_run(netlist, seeds[i], kernel="vec")))
    # One lookup per run, and exactly one of them made the entry.
    assert (cold.misses, cold.hits) == (1, len(seeds) - 1)
    fresh = ArtifactCache()
    monkeypatch.setattr(artifacts_module, "_CACHE", fresh)
    serial = [_outcome(_run(netlist, seed, kernel="vec")) for seed in seeds]
    assert threaded == serial


def test_racing_builds_make_each_artifact_once(cold):
    netlist = make_random_netlist(8, 200, seed=6, n_outputs=6)
    simulators = _racing(
        8, lambda i: netlist_artifacts(netlist).simulator(
            netlist, 256, "vec" if i % 2 else "packed"))
    assert (cold.misses, cold.hits) == (1, 7)
    assert len({id(s.evaluator) for s in simulators}) == 1
    assert len({id(s._pos) for s in simulators}) == 1
    assert len({id(s.compiled) for s in simulators[1::2]}) == 1
    assert len({id(s) for s in simulators}) == 8


def test_bound_evicts_the_oldest_entry_first():
    netlists = [make_random_netlist(4, 10, seed=seed) for seed in range(4)]
    cache = ArtifactCache(max_gates=30)
    keys = [n.fingerprint() for n in netlists]
    for netlist in netlists[:3]:
        cache.get(netlist)
    assert [k in cache._entries for k in keys] == [True, True, True, False]
    cache.get(netlists[0])  # now the most recently used
    cache.get(netlists[3])
    assert [k in cache._entries for k in keys] == [True, False, True, True]
    assert (cache.hits, cache.misses, cache.evictions) == (1, 4, 1)
    # An entry larger than the whole bound is returned, not kept.
    big = make_random_netlist(4, 40, seed=9)
    entry = cache.get(big)
    assert entry.fingerprint == big.fingerprint()
    assert big.fingerprint() not in cache._entries
    assert len(cache._entries) == 0


def test_bound_fits_a_table2_sweep_and_synth20k():
    gates = {}
    for name in ("c3a2m", "c5a2m", "c4a4m"):
        for circuit, kernel in _table2_kernels(name):
            netlist = lower_kernel_to_netlist(circuit, kernel)
            gates[netlist.fingerprint()] = len(netlist.gates)
    assert (len(gates), sum(gates.values())) == (25, 4396)
    assert sum(gates.values()) + len(synth20k_kernel().gates) <= \
        MAX_CACHED_GATES
