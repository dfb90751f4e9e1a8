"""Engine scaling smoke benchmark: serial vs sharded on a real kernel.

Measures :func:`repro.engine.simulate` at ``jobs in (1, 2, 4)`` on the
c3a2m multiplier kernel, asserts the runs are bit-identical (the hard
contract) and emits a JSON artifact with per-shard instrumentation.  It is
deliberately *non-failing on speed*: process fan-out only pays off beyond
some circuit size and core count, and CI boxes routinely pin the suite to
one core — the artifact records the observed scaling either way.
"""

import json
import time

import pytest

from repro.core.flow import lower_kernel_to_netlist
from repro.core.ka85 import make_ka_testable
from repro.datapath.filters import c3a2m
from repro.engine import RunConfig, simulate
from repro.faultsim.patterns import RandomPatternSource
from repro.graph.build import build_circuit_graph

JOB_LEVELS = (1, 2, 4)
MAX_PATTERNS = 2048


@pytest.fixture(scope="module")
def kernel_netlist():
    compiled = c3a2m()
    design = make_ka_testable(build_circuit_graph(compiled.circuit)).design
    kernel = next(
        k for k in design.kernels
        if any(b.startswith("M") for b in k.logic_blocks)
    )
    return lower_kernel_to_netlist(compiled.circuit, kernel)


def test_engine_scaling_smoke(benchmark, kernel_netlist, report):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    n_inputs = len(kernel_netlist.primary_inputs)
    runs = {}
    for jobs in JOB_LEVELS:
        source = RandomPatternSource(n_inputs, seed=3)
        config = RunConfig(max_patterns=MAX_PATTERNS).with_execution(jobs=jobs)
        start = time.perf_counter()
        result = simulate(kernel_netlist, None, source, config=config)
        runs[jobs] = (time.perf_counter() - start, result)

    baseline = runs[1][1]
    for jobs, (_, result) in runs.items():
        # The contract under benchmark: sharding never changes the answer.
        assert result.first_detection == baseline.first_detection, jobs
        assert result.n_patterns == baseline.n_patterns, jobs

    payload = {
        "benchmark": "engine_scaling",
        "circuit": kernel_netlist.name,
        "n_gates": len(kernel_netlist.gates),
        "n_faults": baseline.n_faults,
        "max_patterns": MAX_PATTERNS,
        "coverage": baseline.coverage(),
        "runs": {
            str(jobs): {
                "elapsed": elapsed,
                "speedup_vs_serial": runs[1][0] / elapsed if elapsed else None,
                **result.to_json()["engine"],
            }
            for jobs, (elapsed, result) in runs.items()
        },
    }
    report("engine_scaling.json", json.dumps(payload, indent=2))
