"""Record engine benchmark numbers as a committed ``BENCH_engine.json``.

``python benchmarks/record.py`` re-measures the engine's standing
scenarios over a ``kernel × jobs × executor`` matrix, verifies every cell
is bit-identical to the scenario's serial packed baseline, and rewrites
the snapshot at the repository root.  The file is committed so benchmark
history travels with the code: every entry carries the ``git describe``
of the tree that produced it, and a reviewer can diff throughput claims
the same way they diff code.

The standing scenarios come from :mod:`repro.library.scenarios` and
bracket the engine's operating range: the c3a2m multiplier kernel (large
fault universe, where vectorisation and process sharding pay), the mac4
multiply-accumulate kernel (small, where the process pool's spawn/pickle
tax loses to the serial backend) and the ~20k-gate synthetic
array multiplier (an order of magnitude beyond the paper's kernels; its
fault universe is stride-sampled so a cell completes in seconds).  The
``kernel`` axis measures the packed bigint loop against the numpy
vectorised kernel on identical work — both must produce bit-identical
detection tables, so the ratio between the two cells is pure kernel
speed.

Each entry is flat and stable by design::

    {"scenario": "c3a2m_kernel", "kernel": "vec", "jobs": 2,
     "executor": "process", "wall_time": 0.123,
     "patterns_per_second": 16600.0, "n_patterns": 2048,
     "n_faults": 1328, "coverage": 0.994, "git": "c4cfedf"}

Absolute numbers are machine-dependent — compare entries recorded on one
machine, or ratios between cells, not snapshots across hosts.  Run with
``--smoke`` in CI to verify the harness end-to-end (256 patterns, reduced
matrix) without committing timings.  Run with ``REPRO_TELEMETRY=1`` (or
pass ``--trace-out``) to also get a Chrome trace of the measured runs
(see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Any, Dict, List, Optional

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import telemetry  # noqa: E402
from repro.engine import GoldenCache, simulate  # noqa: E402
from repro.exec import ExecutionPolicy, RunConfig  # noqa: E402
from repro.faultsim.collapse import collapse_faults  # noqa: E402
from repro.faultsim.patterns import RandomPatternSource  # noqa: E402
from repro.library import scenarios as scenario_lib  # noqa: E402

BENCH_KIND = "bench-engine"
BENCH_VERSION = 3

#: Backends measured at every sharded job level (jobs=1 is always the
#: historical serial loop, recorded once per kernel as executor "serial").
EXECUTORS = ("serial", "process")

#: Evaluation kernels measured for every cell of the matrix.
KERNELS = ("packed", "vec")

#: Per-scenario measurement knobs.  ``fault_stride`` subsamples the
#: collapsed fault universe (throughput ratios are preserved; the full
#: universe on the synthetic scenario would take minutes per packed
#: cell), ``max_patterns`` overrides the CLI default where a scenario
#: needs a shorter run to stay in budget.
SCENARIO_SPECS: Dict[str, Dict[str, Any]] = {
    "c3a2m_kernel": {"fault_stride": 1, "max_patterns": None},
    "mac4_kernel": {"fault_stride": 1, "max_patterns": None},
    "synth20k_kernel": {"fault_stride": 40, "max_patterns": 1024},
}


def measure(
    scenario: str,
    netlist,
    faults,
    kernel: str,
    jobs: int,
    executor: Optional[str],
    max_patterns: int,
    seed: int,
    cache: Optional[GoldenCache] = None,
) -> Dict[str, Any]:
    """One benchmark entry: a (scenario, kernel, jobs, executor) cell, timed."""
    source = RandomPatternSource(len(netlist.primary_inputs), seed=seed)
    config = RunConfig(
        execution=ExecutionPolicy(executor=executor, jobs=jobs, kernel=kernel),
        max_patterns=max_patterns,
    )
    start = time.perf_counter()
    result = simulate(netlist, faults, source, config=config, cache=cache)
    wall = time.perf_counter() - start
    return {
        "scenario": scenario,
        "kernel": result.kernel,
        "jobs": jobs,
        "executor": result.executor,
        "wall_time": wall,
        "patterns_per_second": result.n_patterns / wall if wall else None,
        "n_patterns": result.n_patterns,
        "n_faults": result.n_faults,
        "coverage": result.coverage(),
        "git": telemetry.git_describe(cwd=str(REPO_ROOT)),
        "_result": result,  # stripped before writing; used for equivalence
    }


def record(
    scenario_names: List[str],
    job_levels: List[int],
    executors: List[str],
    kernels: List[str],
    max_patterns: int,
    seed: int,
    quiet: bool = False,
) -> Dict[str, Any]:
    """Measure every scenario over the kernel × jobs × executor matrix.

    Every cell's result is checked bit-identical to the scenario's serial
    packed baseline before anything is written — a snapshot of a broken
    engine (or a divergent kernel) must be impossible to record.
    """
    entries: List[Dict[str, Any]] = []
    for scenario in scenario_names:
        spec = SCENARIO_SPECS.get(
            scenario, {"fault_stride": 1, "max_patterns": None})
        netlist = scenario_lib.SCENARIOS[scenario]()
        faults, _ = collapse_faults(netlist)
        stride = spec["fault_stride"]
        if stride > 1:
            faults = faults[::stride]
        patterns = spec["max_patterns"] or max_patterns
        cache = GoldenCache()
        baseline = None
        cells = [(kernel, jobs, executor)
                 for kernel in kernels
                 for jobs in job_levels
                 for executor in (executors if jobs > 1 else [None])]
        for kernel, jobs, executor in cells:
            entry = measure(
                scenario, netlist, faults, kernel, jobs, executor,
                patterns, seed, cache=cache,
            )
            result = entry.pop("_result")
            if baseline is None:
                baseline = result
            elif (result.first_detection != baseline.first_detection
                  or result.n_patterns != baseline.n_patterns):
                raise AssertionError(
                    f"{scenario}: kernel={kernel} jobs={jobs} "
                    f"executor={executor} diverged from the baseline — "
                    "refusing to record a broken engine"
                )
            entries.append(entry)
            if not quiet:
                pps = entry["patterns_per_second"]
                rate = f" ({pps:,.0f} patterns/s)" if pps else ""
                print(f"{entry['scenario']} kernel={entry['kernel']} "
                      f"jobs={entry['jobs']} executor={entry['executor']}: "
                      f"{entry['wall_time']:.3f}s{rate}", flush=True)
    return {
        "kind": BENCH_KIND,
        "version": BENCH_VERSION,
        "git": telemetry.git_describe(cwd=str(REPO_ROOT)),
        "recorded": time.time(),
        "config": {
            "max_patterns": max_patterns,
            "seed": seed,
            "scenarios": list(scenario_names),
            "job_levels": job_levels,
            "executors": list(executors),
            "kernels": list(kernels),
            "scenario_specs": {
                name: {k: v for k, v in spec.items()}
                for name, spec in SCENARIO_SPECS.items()
                if name in scenario_names
            },
        },
        "entries": entries,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/record.py",
        description="record engine benchmark numbers as BENCH_engine.json",
    )
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_engine.json"),
                        help="snapshot path (default: repo root)")
    parser.add_argument("--scenarios",
                        default=",".join(SCENARIO_SPECS),
                        help="comma-separated scenario names from "
                             "repro.library.scenarios (default: "
                             f"{','.join(SCENARIO_SPECS)})")
    parser.add_argument("--jobs", default="1,2",
                        help="comma-separated job levels (default: 1,2)")
    parser.add_argument("--executors", default=",".join(EXECUTORS),
                        help="comma-separated backends measured at each "
                             "sharded job level (default: all)")
    parser.add_argument("--kernels", default=",".join(KERNELS),
                        help="comma-separated evaluation kernels "
                             "(default: packed,vec)")
    parser.add_argument("--max-patterns", type=int, default=2048)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help="CI harness check: 256 patterns, process "
                             "backend only (the local parallel one) — "
                             "verifies the matrix runs and stays "
                             "bit-identical without recording meaningful "
                             "timings")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="enable telemetry and write a Chrome trace of "
                             "the measured runs")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress text")
    args = parser.parse_args(argv)

    if args.trace_out:
        telemetry.enable()
    if args.smoke:
        args.max_patterns = 256
        args.executors = "process"
        # Keep the synthetic scenario's sampled universe but cut the
        # pattern override so the smoke run stays fast.
        SCENARIO_SPECS["synth20k_kernel"]["max_patterns"] = 256
    scenario_names = [name.strip() for name in args.scenarios.split(",")
                      if name.strip()]
    unknown = [n for n in scenario_names if n not in scenario_lib.SCENARIOS]
    if unknown:
        parser.error(f"unknown scenario(s): {', '.join(unknown)} "
                     f"(known: {', '.join(scenario_lib.SCENARIOS)})")
    job_levels = sorted({int(level) for level in args.jobs.split(",")})
    executors = [name.strip() for name in args.executors.split(",")
                 if name.strip()]
    kernels = [name.strip() for name in args.kernels.split(",")
               if name.strip()]
    payload = record(scenario_names, job_levels, executors, kernels,
                     args.max_patterns, args.seed, quiet=args.quiet)
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if args.trace_out:
        manifest = telemetry.RunManifest.collect(config=payload["config"])
        telemetry.export.write_trace(args.trace_out, manifest=manifest)
    if not args.quiet:
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
