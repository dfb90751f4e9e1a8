"""Command-line interface: analyze, make BISTable, design TPGs, self-test.

The library's tool face, mirroring the BITS flow on JSON circuit files
(see ``repro.bits.io_json`` for the schema)::

    python -m repro analyze  circuit.json [--json]
    python -m repro analyze  SCENARIO|netlist.bench [--patterns N]
                             [--threshold P] [--top N] [--json]
    python -m repro bibs     circuit.json [--method exact|greedy|auto] [--json]
    python -m repro tpg      circuit.json [--kernel N] [--json]
    python -m repro selftest circuit.json [--cycles N] [--max-faults N]
                             [--jobs N] [--executor {process,serial}]
                             [--seed N] [--json] [--quiet]
                             [--checkpoint-dir DIR] [--resume]
                             [--shard-timeout S] [--deadline S]
                             [--max-memory SIZE] [--max-patterns N]
                             [--trace-out FILE] [--metrics-out FILE]
    python -m repro export   {c5a2m,c3a2m,c4a4m,figure4,figure9,mac4} out.json
    python -m repro lint     TARGET [TARGET ...] [--json] [--severity S]
                             [--baseline FILE] [--update-baseline]
                             [--bilbo R1,R2] [--polynomial INT]
    python -m repro serve    [--host H] [--port P] [--workers N]
                             [--tenant-quota N] [--max-queued N]
                             [--cache-size N] [--state-dir DIR]
                             [--max-journal-entries N]
                             [--drain-grace S] [--quiet]
    python -m repro telemetry view FILE [--quiet]

``export`` writes the built-in circuits so every other command has
something to chew on out of the box.  Every subcommand accepts ``--json``
and then emits a single machine-readable object on stdout (results use the
unified ``to_json()`` surface of :mod:`repro.results`).  ``selftest
--jobs N`` shards the per-pattern engine run over N workers and
``--executor`` picks the :mod:`repro.exec` backend (results are
bit-identical either way — see ``docs/ENGINE.md`` and
``docs/EXECUTORS.md``); ``--seed`` sets the TPG seed.  The shared engine
flag cluster lives in :mod:`repro.cli_args`.  ``--deadline`` /
``--max-memory`` / ``--max-patterns`` bound the run through
:mod:`repro.guard` (see ``docs/ROBUSTNESS.md``): a tripped limit — or
Ctrl-C / SIGTERM — stops at the next round boundary, flushes any
checkpoint journal, reports ``partial`` results, and exits 130/143
without a traceback.

``lint`` runs the static design-rule checker (:mod:`repro.lint`) over
built-in designs (``figure1``..``figure4``, ``figure9``, ``c17``,
``c5a2m``/``c3a2m``/``c4a4m``, ``mac4``, ``synth1``..``synth4``), group
aliases (``figures``, ``ka_example``, ``iscas``, ``filters``, ``synth``),
or ``.bench``/``.json`` files, and exits 1 when any error-severity finding
is not suppressed by the ``--baseline`` file.  ``--bilbo``/``--polynomial``
force a kernel cut / feedback polynomial so a *proposed* design can be
vetted before it is built.  See ``docs/LINT.md``.

``--trace-out`` / ``--metrics-out`` enable :mod:`repro.telemetry` for the
run and write a Chrome ``trace_event`` file (open in ``chrome://tracing``
or Perfetto) and a Prometheus text-format metrics file.  ``telemetry
view`` inspects and validates any artifact the suite writes — a trace, a
run manifest, or a metrics file — and exits non-zero when the artifact is
malformed (the CI telemetry job is built on this).  See
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from repro.analysis.testability import classify
from repro.bits import io_json
from repro.cli_args import (
    emit_json as _emit_json,
    engine_parent_parser,
    executor_env_error,
    result_payload,
    runconfig_from_args,
    write_telemetry_artifacts,
)
from repro.core.bibs import make_bibs_testable
from repro.core.ka85 import make_ka_testable
from repro.errors import ReproError
from repro.experiments.render import render_table
from repro.graph.build import build_circuit_graph
from repro.graph.model import VertexKind


def _load(path: str):
    """The circuit at ``path`` and its graph; a bad file is a usage error
    (one stderr line, exit 2, as argparse exits on a bad argument)."""
    try:
        circuit = io_json.load(path)
        return circuit, build_circuit_graph(circuit)
    except (OSError, ValueError, ReproError) as error:
        print(f"error: cannot load circuit {path}: {error}", file=sys.stderr)
        raise SystemExit(2) from None


def _progress(args, text: str) -> None:
    """Print progress text unless ``--quiet`` asked for silence."""
    if not getattr(args, "quiet", False):
        print(text)


def _resolve_analyze_netlist(target: str):
    """Resolve a testability-analysis target to a netlist, or ``None``.

    Accepts the serve-style short scenario names (``c3a2m``), the full
    scenario names (``c3a2m_kernel``) and ``.bench`` files — everything
    the static analyzer can chew on directly.  ``.json`` circuit files
    keep the structural k-step analysis path instead.
    """
    from repro.library.scenarios import SCENARIOS
    from repro.netlist import bench_io

    if target.endswith(".bench"):
        return bench_io.load(target, validate=False)
    builder = SCENARIOS.get(target) or SCENARIOS.get(f"{target}_kernel")
    return builder() if builder is not None else None


def _analyze_testability(args) -> int:
    """Static SCOAP/COP testability profile for a netlist target."""
    from repro.analysis import DEFAULT_WINDOW, analyze_netlist, scoap
    from repro.lint import lint_testability

    try:
        netlist = _resolve_analyze_netlist(args.circuit)
    except (OSError, ReproError) as error:
        print(f"error: cannot analyze {args.circuit}: {error}",
              file=sys.stderr)
        return 2
    if netlist is None:
        from repro.library.scenarios import SCENARIOS

        known = ", ".join(sorted(
            n[: -len("_kernel")] for n in SCENARIOS if n.endswith("_kernel")))
        print(f"error: unknown analyze target {args.circuit!r} "
              f"(known scenarios: {known}; or a .bench/.json file)",
              file=sys.stderr)
        return 2
    window = args.patterns if args.patterns else DEFAULT_WINDOW
    profile = analyze_netlist(netlist)
    measures = scoap(netlist)
    report = lint_testability(netlist, profile=profile, window=window)
    doc = profile.to_json(window=window, threshold=args.threshold,
                          top=args.top)
    if args.json:
        _emit_json({
            "kind": "analyze-testability",
            "circuit": netlist.name,
            "profile": doc,
            "hardest_nets": [
                {"net": netlist.net_name(net), "score": score}
                for net, score in measures.hardest_nets(args.top)
            ],
            "lint": report.to_json(),
        })
        return 0
    rows = [
        ("gates", len(netlist.gates)),
        ("collapsed faults", doc["n_faults"]),
        ("TPG window (patterns)", window),
        ("predicted coverage", f"{100 * doc['predicted_coverage']:.2f}%"),
        ("random-resistant faults", doc["n_resistant"]),
        ("statically undetectable", doc["n_undetectable"]),
        ("patterns to "
         f"{100 * doc['coverage_target']:.1f}%",
         doc["expected_patterns_to_target"] or "unreachable"),
    ]
    print(render_table(["property", "value"], rows,
                       title=f"Testability: {netlist.name}"))
    if doc["resistant"]:
        fault_rows = [
            (entry["fault"], f"{entry['detection_probability']:.3g}",
             entry["expected_patterns"] or "inf")
            for entry in doc["resistant"]
        ]
        print(render_table(
            ["fault", "P(detect)", "E[patterns]"], fault_rows,
            title=f"Hardest faults (top {len(fault_rows)})"))
    if report.findings:
        print(report.render_text())
    return 0


def cmd_analyze(args) -> int:
    if not args.circuit.endswith(".json"):
        return _analyze_testability(args)
    circuit, graph = _load(args.circuit)
    report = classify(graph)
    rows = [
        ("blocks", len(circuit.blocks)),
        ("registers", len(circuit.registers)),
        ("register bits", circuit.total_register_bits()),
        ("fanout vertices", len(graph.vertices_of_kind(VertexKind.FANOUT))),
        ("vacuous vertices", len(graph.vertices_of_kind(VertexKind.VACUOUS))),
        ("acyclic", report.acyclic),
        ("balanced", report.balanced),
        ("k-step functionally testable", report.k_step),
    ]
    if report.worst_witness is not None:
        witness = report.worst_witness
        rows.append((
            "worst imbalance",
            f"{witness.source} -> {witness.target}: "
            f"{witness.min_length}..{witness.max_length}",
        ))
    if args.json:
        _emit_json({
            "kind": "analyze",
            "circuit": circuit.name,
            "properties": {str(k): v for k, v in rows},
        })
        return 0
    print(render_table(["property", "value"], rows,
                       title=f"Analysis: {circuit.name}"))
    return 0


def cmd_bibs(args) -> int:
    circuit, graph = _load(args.circuit)
    design = make_bibs_testable(graph, method=args.method)
    kernels = [
        {
            "name": kernel.name,
            "blocks": sorted(kernel.logic_blocks),
            "tpg_registers": sorted(kernel.tpg_registers),
            "sa_registers": sorted(kernel.sa_registers),
            "input_width": kernel.input_width,
            "sequential_depth": kernel.sequential_depth,
        }
        for kernel in design.kernels
    ]
    payload: Dict[str, Any] = {
        "kind": "bibs",
        "circuit": circuit.name,
        "n_bilbo_registers": design.n_bilbo_registers,
        "n_bilbo_flipflops": design.n_bilbo_flipflops,
        "bilbo_registers": sorted(design.bilbo_registers),
        "maximal_delay": design.maximal_delay(),
        "kernels": kernels,
    }
    if args.compare_ka:
        ka = make_ka_testable(graph).design
        payload["ka85"] = {
            "n_bilbo_registers": ka.n_bilbo_registers,
            "n_bilbo_flipflops": ka.n_bilbo_flipflops,
            "maximal_delay": ka.maximal_delay(),
        }
    if args.json:
        _emit_json(payload)
        return 0
    print(f"BILBO registers ({design.n_bilbo_registers}, "
          f"{design.n_bilbo_flipflops} FFs): {design.bilbo_registers}")
    print(f"maximal delay: {design.maximal_delay()} time units")
    rows = []
    for kernel in design.kernels:
        rows.append((
            kernel.name,
            ",".join(kernel.logic_blocks) or "<transport>",
            ",".join(sorted(kernel.tpg_registers)),
            ",".join(sorted(kernel.sa_registers)),
            kernel.input_width,
            kernel.sequential_depth,
        ))
    print(render_table(
        ["kernel", "blocks", "TPG", "SA", "M", "depth"], rows,
        title=f"BIBS design: {circuit.name}",
    ))
    if args.compare_ka:
        ka = payload["ka85"]
        print(f"\nKA-85 for contrast: {ka['n_bilbo_registers']} registers "
              f"({ka['n_bilbo_flipflops']} FFs), maximal delay "
              f"{ka['maximal_delay']}")
    return 0


def cmd_tpg(args) -> int:
    from repro.tpg.mc_tpg import mc_tpg
    from repro.tpg.verify import verify_design

    circuit, graph = _load(args.circuit)
    design = make_bibs_testable(graph)
    kernels = [k for k in design.kernels if k.logic_blocks]
    if not 0 <= args.kernel < len(kernels):
        print(f"error: kernel index out of range (0..{len(kernels) - 1})",
              file=sys.stderr)
        return 2
    kernel = kernels[args.kernel]
    spec = kernel.to_kernel_spec()
    tpg = mc_tpg(spec)
    payload: Dict[str, Any] = {
        "kind": "tpg",
        "circuit": circuit.name,
        "kernel": kernel.name,
        "lfsr_stages": tpg.lfsr_stages,
        "n_flipflops": tpg.n_flipflops,
        "n_extra_flipflops": tpg.n_extra_flipflops,
        "test_time": tpg.test_time(),
    }
    verified = True
    if tpg.lfsr_stages <= args.verify_limit:
        verdicts = verify_design(tpg)
        payload["cones"] = [
            {
                "cone": str(verdict.cone),
                "distinct_patterns": verdict.distinct_patterns,
                "expected_patterns": verdict.expected_patterns,
                "exhaustive": verdict.exhaustive,
            }
            for verdict in verdicts
        ]
        verified = all(v.exhaustive for v in verdicts)
    if args.json:
        _emit_json(payload)
        return 0 if verified else 1
    print(f"kernel {kernel.name}: M = {tpg.lfsr_stages}, "
          f"{tpg.n_flipflops} FFs ({tpg.n_extra_flipflops} extra), "
          f"test time {tpg.test_time()} cycles")
    print(tpg.layout())
    if "cones" in payload:
        for cone in payload["cones"]:
            status = "OK" if cone["exhaustive"] else "FAIL"
            print(f"  cone {cone['cone']}: {cone['distinct_patterns']}/"
                  f"{cone['expected_patterns']} [{status}]")
    else:
        print(f"  (skipping exhaustive verification: M > {args.verify_limit})")
    return 0 if verified else 1


def cmd_selftest(args) -> int:
    from repro.bist.session import BISTSession
    from repro.errors import LintError, SimulationError
    from repro.guard import (
        Budget,
        CancelToken,
        exit_code,
        guard_summary,
        signal_scope,
    )

    env_error = executor_env_error()
    if env_error is not None:
        print(env_error, file=sys.stderr)
        return 2
    if args.seed == 0:
        print("error: --seed must be non-zero (an all-zero LFSR state "
              "never advances)", file=sys.stderr)
        return 2
    try:
        budget = Budget.from_cli(args.deadline, args.max_memory,
                                 args.max_patterns)
    except SimulationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.trace_out or args.metrics_out:
        from repro import telemetry

        telemetry.enable()
    circuit, graph = _load(args.circuit)
    design = make_bibs_testable(graph)
    kernel = next(k for k in design.kernels if k.logic_blocks)
    try:
        session = BISTSession(circuit, kernel, seed=args.seed)
    except SimulationError as error:
        print(f"error: {error}", file=sys.stderr)
        print("hint: self-test needs gate-level block behaviour; circuits "
              "exported from the datapath library (add/mul kinds) have it, "
              "purely structural figures do not.", file=sys.stderr)
        return 2
    cycles = args.cycles or min(session.recommended_cycles(), 1 << 14)
    faults = session.kernel_fault_universe()
    if args.max_faults and len(faults) > args.max_faults:
        faults = faults[: args.max_faults]
    if budget is not None:
        budget.arm()  # the deadline spans both measurements below
    token = CancelToken()
    config = runconfig_from_args(args, budget=budget, cancel=token)
    try:
        with signal_scope(token):
            result = session.run(cycles, faults=faults,
                                 budget=budget, cancel=token)
            pattern_result = None
            engine_requested = (args.jobs is not None
                                or args.executor is not None)
            if engine_requested and not token.cancelled:
                # Align the run length with the pattern budget up front (the
                # engine's cap only stops at round boundaries, so a cap far
                # below the requested cycles would otherwise stop at 0).
                pattern_cap = cycles
                if budget is not None and budget.max_patterns is not None:
                    pattern_cap = min(cycles, budget.max_patterns)
                pattern_result = session.pattern_coverage(
                    max_patterns=pattern_cap, config=config,
                )
    except LintError as error:
        # The same structured document repro.serve answers with HTTP 422:
        # the lint findings, not a traceback.
        if args.json:
            _emit_json(error.payload())
        else:
            print(f"error: {error}", file=sys.stderr)
            for finding in error.findings:
                print(f"  [{finding.severity}] {finding.rule} "
                      f"{finding.location}: {finding.message}",
                      file=sys.stderr)
        return 2
    stop_reason = result.stop_reason
    if stop_reason is None and pattern_result is not None:
        stop_reason = pattern_result.stop_reason
    partial = result.partial or bool(pattern_result and pattern_result.partial)
    guard = guard_summary(budget, token, stop_reason=stop_reason,
                          partial=partial)
    testability = getattr(pattern_result, "testability", None)
    if args.trace_out or args.metrics_out:
        shards = None
        if pattern_result is not None:
            shards = [shard.to_json() for shard in pattern_result.shards]
        write_telemetry_artifacts(
            args,
            config={
                "command": "selftest", "circuit": circuit.name,
                "kernel": kernel.name, "cycles": cycles, "seed": args.seed,
                "jobs": args.jobs, "executor": args.executor,
                "max_faults": args.max_faults,
            },
            shards=shards,
            guard=guard,
            announce=lambda text: _progress(args, text),
            testability=testability,
        )
    if args.json:
        payload = result_payload(
            result,
            context={"circuit": circuit.name, "kernel": kernel.name,
                     "seed": args.seed},
            guard=guard,
        )
        if pattern_result is not None:
            payload["pattern_coverage"] = pattern_result.to_json()
        _emit_json(payload)
        return exit_code(token)
    _progress(args, f"session: {cycles} cycles, {len(faults)} kernel faults")
    for name, signature in result.golden_signatures.items():
        _progress(args, f"  golden signature {name}: {signature:#x}")
    _progress(args, f"  detected {len(result.detected)} "
                    f"({100 * result.coverage:.1f}% of the fault cone)")
    if pattern_result is not None:
        _progress(args, f"  per-pattern (pre-MISR) coverage: "
                        f"{100 * pattern_result.coverage():.1f}% over "
                        f"{pattern_result.n_patterns} patterns "
                        f"[engine, jobs={config.execution.effective_jobs}]")
    if testability is not None:
        _progress(args, f"  static prediction: "
                        f"{100 * testability['predicted_coverage']:.1f}% "
                        f"(delta {100 * testability['delta']:+.1f}pp, "
                        f"{testability['n_resistant']} random-resistant, "
                        f"{testability['n_undetectable']} undetectable)")
    if partial:
        _progress(args, f"  partial run (stopped: {stop_reason})")
    if token.cancelled:
        where = (f", checkpoint saved to {args.checkpoint_dir}"
                 if args.checkpoint_dir else "")
        print(f"interrupted{where}", file=sys.stderr)
    return exit_code(token)


def cmd_export(args) -> int:
    from repro.datapath.filters import all_filters
    from repro.library.figures import figure4
    from repro.library.ka_example import figure9

    from repro.datapath.compiler import Add, Mul, Var, compile_datapath

    builders = {name: (lambda n=name: all_filters()[n].circuit)
                for name in ("c5a2m", "c3a2m", "c4a4m")}
    builders["figure4"] = figure4
    builders["figure9"] = figure9
    builders["mac4"] = lambda: compile_datapath(
        [("o", Add(Mul(Var("a"), Var("b")), Var("c")))], "mac4", width=4
    ).circuit
    circuit = builders[args.name]()
    io_json.dump(circuit, args.output)
    if args.json:
        _emit_json({"kind": "export", "name": args.name, "output": args.output})
        return 0
    print(f"wrote {args.name} to {args.output}")
    return 0


def _lint_builders() -> Dict[str, Any]:
    """Named lint targets: name -> ("circuit" | "netlist", builder)."""
    from repro.datapath.compiler import Add, Mul, Var, compile_datapath
    from repro.datapath.filters import all_filters
    from repro.library.figures import figure1, figure2, figure3, figure4
    from repro.library.iscas import c17
    from repro.library.ka_example import figure9
    from repro.library.synth import random_datapath

    builders: Dict[str, Any] = {
        "figure1": ("circuit", figure1),
        "figure2": ("circuit", figure2),
        "figure3": ("circuit", figure3),
        "figure4": ("circuit", figure4),
        "figure9": ("circuit", figure9),
        "c17": ("netlist", c17),
    }
    for name in ("c5a2m", "c3a2m", "c4a4m"):
        builders[name] = (
            "circuit", lambda n=name: all_filters()[n].circuit)
    builders["mac4"] = ("circuit", lambda: compile_datapath(
        [("o", Add(Mul(Var("a"), Var("b")), Var("c")))], "mac4", width=4
    ).circuit)
    for seed in (1, 2, 3, 4):
        builders[f"synth{seed}"] = (
            "circuit", lambda s=seed: random_datapath(s).circuit)
    return builders


#: Group aliases expanding to several named targets (the CI lint sweep).
LINT_GROUPS = {
    "figures": ("figure1", "figure2", "figure3", "figure4"),
    "ka_example": ("figure9",),
    "iscas": ("c17",),
    "filters": ("c5a2m", "c3a2m", "c4a4m"),
    "synth": ("synth1", "synth2", "synth3", "synth4"),
}


def cmd_lint(args) -> int:
    from repro.lint import (
        lint_circuit,
        lint_netlist,
        load_baseline,
        write_baseline,
    )
    from repro.netlist import bench_io

    builders = _lint_builders()
    names: List[str] = []
    for target in args.targets:
        names.extend(LINT_GROUPS.get(target, (target,)))
    bilbo = None
    if args.bilbo:
        bilbo = [r.strip() for r in args.bilbo.split(",") if r.strip()]
    if (bilbo or args.polynomial is not None) and len(names) != 1:
        print("error: --bilbo/--polynomial apply to exactly one target",
              file=sys.stderr)
        return 2

    reports = []
    for name in names:
        try:
            if name in builders:
                kind, build = builders[name]
                if kind == "netlist":
                    report = lint_netlist(build())
                else:
                    report = lint_circuit(
                        build(), bilbo=bilbo, polynomial=args.polynomial)
            elif name.endswith(".bench"):
                report = lint_netlist(bench_io.load(name, validate=False))
            elif name.endswith(".json"):
                report = lint_circuit(
                    io_json.load(name), bilbo=bilbo,
                    polynomial=args.polynomial)
            else:
                known = ", ".join(sorted([*builders, *LINT_GROUPS]))
                print(f"error: unknown lint target {name!r} "
                      f"(known: {known}; or a .bench/.json path)",
                      file=sys.stderr)
                return 2
        except (OSError, ReproError) as error:
            print(f"error: cannot lint {name}: {error}", file=sys.stderr)
            return 2
        if args.severity:
            report = report.filtered(args.severity)
        reports.append(report)

    if args.update_baseline:
        if not args.baseline:
            print("error: --update-baseline requires --baseline FILE",
                  file=sys.stderr)
            return 2
        count = write_baseline(args.baseline, reports)
        _progress(args, f"wrote baseline with {count} suppression(s) "
                        f"to {args.baseline}")
    if args.baseline:
        try:
            suppress = load_baseline(args.baseline)
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        reports = [r.apply_baseline(suppress) for r in reports]

    n_errors = sum(len(r.errors) for r in reports)
    if args.json:
        _emit_json({
            "kind": "lint",
            "targets": [r.target for r in reports],
            "n_errors": n_errors,
            "reports": [r.to_json() for r in reports],
        })
    else:
        for report in reports:
            print(report.render_text())
    return 1 if n_errors else 0


def cmd_serve(args) -> int:
    """Run the BIST-as-a-service HTTP endpoint (``repro-bist serve``).

    Telemetry is enabled unconditionally — ``GET /metrics`` is part of the
    service API, and the ``cache.hit``/``cache.miss`` counters it exposes
    are how operators (and the load benchmark) observe the result cache.
    The announce line (``serving on http://host:port``) is the machine
    interface for wrappers that bind ``--port 0``: it is flushed before
    the first request can arrive.
    """
    import asyncio
    import tempfile

    from repro import telemetry
    from repro.serve import BistService

    env_error = executor_env_error()
    if env_error is not None:
        print(env_error, file=sys.stderr)
        return 2
    telemetry.enable()
    state_dir = args.state_dir or tempfile.mkdtemp(prefix="repro-serve-")
    service = BistService(
        state_dir,
        workers=args.workers,
        tenant_quota=args.tenant_quota,
        max_queued=args.max_queued,
        cache_size=args.cache_size,
        drain_grace=args.drain_grace,
        max_journal_entries=args.max_journal_entries,
    )

    def announce(text: str) -> None:
        if not args.quiet:
            print(text, flush=True)

    return asyncio.run(service.run(args.host, args.port, announce=announce))


def cmd_telemetry(args) -> int:
    """Inspect and validate a telemetry artifact (``telemetry view``).

    Detects the format from the content — a Chrome ``trace_event`` file, a
    run manifest, or a Prometheus text-format metrics file — and emits one
    JSON summary through :func:`_emit_json`.  Exits 1 when the artifact is
    structurally invalid, which is what the CI telemetry job keys on.
    """
    from repro.telemetry import export as tele_export
    from repro.telemetry.manifest import MANIFEST_KIND, RunManifest

    try:
        with open(args.file) as handle:
            text = handle.read()
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        doc: Any = json.loads(text)
    except ValueError:
        doc = None

    payload: Dict[str, Any] = {"kind": "telemetry-view", "file": args.file}
    if isinstance(doc, dict) and "traceEvents" in doc:
        errors = tele_export.validate_chrome_trace(doc)
        events = doc.get("traceEvents", [])
        spans = [e for e in events
                 if isinstance(e, dict) and e.get("ph") == "X"]
        names: Dict[str, int] = {}
        for event in spans:
            name = event.get("name", "?")
            names[name] = names.get(name, 0) + 1
        payload.update({
            "format": "chrome-trace",
            "valid": not errors,
            "errors": errors,
            "n_events": len(events),
            "n_spans": len(spans),
            "span_names": names,
            "pids": sorted({e.get("pid") for e in spans
                            if isinstance(e.get("pid"), int)}),
            "manifest": doc.get("otherData", {}).get("manifest") is not None,
        })
    elif isinstance(doc, dict) and doc.get("kind") == MANIFEST_KIND:
        try:
            manifest = RunManifest.from_json(doc)
        except (ValueError, TypeError) as error:
            payload.update({
                "format": "run-manifest", "valid": False,
                "errors": [str(error)],
            })
        else:
            payload.update({
                "format": "run-manifest",
                "valid": True,
                "errors": [],
                "config_fingerprint": manifest.fingerprint,
                "git": manifest.git,
                "n_spans": len(manifest.spans),
                "n_shards": len(manifest.shards),
                "counters": manifest.metrics.get("counters", {}),
            })
    elif doc is None:
        try:
            samples = tele_export.parse_prometheus_text(text)
        except ValueError as error:
            payload.update({
                "format": "prometheus", "valid": False,
                "errors": [str(error)],
            })
        else:
            payload.update({
                "format": "prometheus",
                "valid": True,
                "errors": [],
                "n_samples": len(samples),
                "samples": samples,
            })
    else:
        payload.update({
            "format": "unknown", "valid": False,
            "errors": ["unrecognized telemetry artifact"],
        })
    if not getattr(args, "quiet", False):
        _emit_json(payload)
    return 0 if payload["valid"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true",
                       help="emit one machine-readable JSON object on stdout")

    p = sub.add_parser(
        "analyze",
        help="balance/k-step analysis (.json) or static SCOAP/COP "
             "testability (scenario / .bench)",
    )
    p.add_argument("circuit",
                   help="a .json circuit file (structural k-step "
                        "analysis), or a scenario name / .bench netlist "
                        "(static testability profile — docs/TESTABILITY.md)")
    p.add_argument("--patterns", type=int, default=0, metavar="N",
                   help="TPG window for the testability profile "
                        "(default: 65536)")
    p.add_argument("--threshold", type=float, default=None, metavar="P",
                   help="detection-probability bound for the "
                        "random-resistant ranking (default: 1/patterns)")
    p.add_argument("--top", type=int, default=10, metavar="N",
                   help="resistant faults / hardest nets to list "
                        "(default: 10)")
    add_json_flag(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bibs", help="BIBS BILBO selection and kernels")
    p.add_argument("circuit")
    p.add_argument("--method", default="auto",
                   choices=("auto", "exact", "greedy"))
    p.add_argument("--compare-ka", action="store_true")
    add_json_flag(p)
    p.set_defaults(func=cmd_bibs)

    p = sub.add_parser("tpg", help="SC_TPG/MC_TPG design for a kernel")
    p.add_argument("circuit")
    p.add_argument("--kernel", type=int, default=0)
    p.add_argument("--verify-limit", type=int, default=14)
    add_json_flag(p)
    p.set_defaults(func=cmd_tpg)

    p = sub.add_parser("selftest", help="gate-level BIST session",
                       parents=[engine_parent_parser()])
    p.add_argument("circuit")
    p.add_argument("--cycles", type=int, default=0)
    p.add_argument("--max-faults", type=int, default=256)
    p.add_argument("--seed", type=int, default=1, help="TPG seed (non-zero)")
    add_json_flag(p)
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser("export", help="write a built-in circuit as JSON")
    p.add_argument("name", choices=("c5a2m", "c3a2m", "c4a4m",
                                    "figure4", "figure9", "mac4"))
    p.add_argument("output")
    add_json_flag(p)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser(
        "lint",
        help="static design-rule checks (netlist/structure/TPG rules)",
    )
    p.add_argument("targets", nargs="+", metavar="TARGET",
                   help="built-in design, group alias (figures, ka_example, "
                        "iscas, filters, synth), or a .bench/.json file")
    p.add_argument("--severity", default=None,
                   choices=("error", "warning", "info"),
                   help="report only findings at least this severe")
    p.add_argument("--baseline", default=None, metavar="FILE",
                   help="suppress findings fingerprinted in this baseline "
                        "file; exit 1 only on new errors")
    p.add_argument("--update-baseline", action="store_true",
                   help="rewrite --baseline FILE accepting every current "
                        "finding")
    p.add_argument("--bilbo", default=None, metavar="R1,R2",
                   help="force the kernel cut at these BILBO registers "
                        "(single circuit target only)")
    p.add_argument("--polynomial", type=lambda s: int(s, 0), default=None,
                   help="force the LFSR feedback polynomial (int, any base) "
                        "so lint vets a proposed TPG")
    add_json_flag(p)
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "serve",
        help="run the BIST-as-a-service HTTP endpoint (docs/SERVE.md)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: loopback only)")
    p.add_argument("--port", type=int, default=8734,
                   help="TCP port; 0 picks a free port (announced on "
                        "stdout as 'serving on http://HOST:PORT')")
    p.add_argument("--workers", type=int, default=2, metavar="N",
                   help="concurrent engine runs (worker tasks)")
    p.add_argument("--tenant-quota", type=int, default=2, metavar="N",
                   help="max concurrently running jobs per tenant")
    p.add_argument("--max-queued", type=int, default=64, metavar="N",
                   help="max jobs waiting in the queue before submissions "
                        "get HTTP 429")
    p.add_argument("--cache-size", type=int, default=128, metavar="N",
                   help="result-cache entries (LRU, keyed by the "
                        "checkpoint run key)")
    p.add_argument("--state-dir", default=None, metavar="DIR",
                   help="journal/state directory (default: a fresh temp "
                        "dir; reuse one to resume drained jobs)")
    p.add_argument("--max-journal-entries", type=int, default=None,
                   metavar="N",
                   help="bound the on-disk checkpoint journal to the "
                        "newest N completed run-key entries (LRU sweep; "
                        "default: unbounded)")
    p.add_argument("--drain-grace", type=float, default=2.0,
                   metavar="SECONDS",
                   help="seconds the HTTP endpoint stays up after SIGTERM "
                        "drains in-flight jobs")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the announce/drain lines")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "telemetry",
        help="inspect/validate telemetry artifacts (traces, metrics, "
             "manifests)",
    )
    tele_sub = p.add_subparsers(dest="telemetry_command", required=True)
    p = tele_sub.add_parser("view", help="summarize and validate one "
                                         "telemetry artifact")
    p.add_argument("file")
    p.add_argument("--quiet", action="store_true",
                   help="validate only; no output, just the exit code")
    p.set_defaults(func=cmd_telemetry)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # Ctrl-C outside a guard's signal_scope (simulating commands catch
        # it there and drain cleanly): one line, conventional exit code,
        # never a traceback.
        checkpoint_dir = getattr(args, "checkpoint_dir", None)
        where = f", checkpoint saved to {checkpoint_dir}" if checkpoint_dir else ""
        print(f"interrupted{where}", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into head); not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
