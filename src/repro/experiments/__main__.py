"""Regenerate every table and figure in one go.

``python -m repro.experiments [outdir] [--quick]`` writes the same
artifacts the benchmark suite produces (Table 1, Table 2, the per-figure
reports) without pytest.  ``--quick`` shrinks the fault-simulation budget
for a fast smoke pass; ``--jobs N`` shards fault simulation over N
workers and ``--executor`` picks the :mod:`repro.exec` backend
(bit-identical results either way, see ``docs/ENGINE.md`` and
``docs/EXECUTORS.md``); ``--seed N`` changes the random-pattern seed;
``--json`` additionally writes ``table1.json``/``table2.json``
machine-readable artifacts.  The engine/guard/telemetry flag cluster is
shared with ``python -m repro selftest`` (see :mod:`repro.cli_args`).

Long Table 2 measurements are resumable: ``--checkpoint-dir DIR``
journals completed fault-simulation rounds, one file per run (default
``<outdir>/checkpoints`` when ``--resume`` is given), and ``--resume``
replays the journal so an interrupted run picks up from the last
completed round instead of restarting from zero, at any ``--jobs``.

The sweep is governed by :mod:`repro.guard` (see ``docs/ROBUSTNESS.md``):
``--deadline SECONDS`` bounds the whole run's wall clock, ``--max-memory
SIZE`` caps resident memory (e.g. ``2g``), ``--max-patterns N`` caps each
kernel run's pattern budget, and Ctrl-C / SIGTERM stop the sweep at the
next round boundary — flushing the checkpoint journal and exiting
130/143 with a one-line notice instead of a traceback.  A re-run with
``--resume`` completes the measurement bit-identically.

``--trace-out FILE`` / ``--metrics-out FILE`` enable
:mod:`repro.telemetry` for the sweep and write a Chrome ``trace_event``
file and a Prometheus text-format metrics file describing where the wall
time went (per circuit, per kernel, per engine round — see
``docs/OBSERVABILITY.md``).  ``--quiet`` suppresses progress text.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.cli_args import (
    engine_parent_parser,
    executor_env_error,
    render_json,
    runconfig_from_args,
    write_telemetry_artifacts,
)
from repro.experiments.figures import (
    example1_report,
    figure3_report,
    figure9_report,
    figures_1_2_report,
    pseudo_exhaustive_report,
    tpg_examples_report,
)
from repro.experiments.table1 import render_table1, table1_json, table1_rows
from repro.experiments.table2 import render_table2, table2_columns, table2_json
from repro.guard import (
    STOP_DEADLINE,
    Budget,
    CancelToken,
    exit_code,
    guard_summary,
    signal_scope,
)


def _announce_interrupt(checkpoint_dir, quiet: bool) -> None:
    """The whole user-facing story of an interrupted sweep: one line."""
    if quiet:
        return
    if checkpoint_dir:
        print(f"interrupted, checkpoint saved to {checkpoint_dir}",
              file=sys.stderr)
    else:
        print("interrupted", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro.experiments",
                                     parents=[engine_parent_parser()])
    parser.add_argument("outdir", nargs="?", default="results")
    parser.add_argument("--quick", action="store_true",
                        help="smaller fault-sim budget (smoke pass)")
    parser.add_argument("--seed", type=int, default=1994,
                        help="random-pattern seed for Table 2")
    parser.add_argument("--json", action="store_true",
                        help="also write table1.json / table2.json")
    args = parser.parse_args(argv)
    env_error = executor_env_error()
    if env_error is not None:
        print(env_error, file=sys.stderr)
        return 2

    outdir = pathlib.Path(args.outdir)
    checkpoint_dir = args.checkpoint_dir
    if checkpoint_dir is None and args.resume:
        checkpoint_dir = str(outdir / "checkpoints")

    budget = Budget.from_cli(args.deadline, args.max_memory, args.max_patterns)
    token = CancelToken()
    try:
        with signal_scope(token):
            code = _run_sweep(args, outdir, checkpoint_dir, budget, token)
    except KeyboardInterrupt:
        # Signals outside signal_scope (argument errors aside, only the
        # narrow windows before/after the sweep) still exit cleanly.
        _announce_interrupt(checkpoint_dir, args.quiet)
        return 130
    if token.cancelled:
        _announce_interrupt(checkpoint_dir, args.quiet)
        return exit_code(token)
    return code


def _run_sweep(args, outdir, checkpoint_dir, budget, token) -> int:
    if args.trace_out or args.metrics_out:
        from repro import telemetry

        telemetry.enable()

    outdir.mkdir(exist_ok=True)
    if budget is not None:
        budget.arm()

    def write(name: str, text: str) -> None:
        (outdir / name).write_text(text + "\n")
        if not args.quiet:
            print(f"wrote {outdir / name}")

    start = time.time()
    rows = table1_rows()
    write("table1.txt", render_table1(rows))
    if args.json:
        write("table1.json", render_json(table1_json(rows)))

    max_patterns = 1 << (13 if args.quick else 16)
    n_seeds = 1 if args.quick else 3
    config = runconfig_from_args(args, budget=budget, cancel=token,
                                 checkpoint_dir=checkpoint_dir)
    columns = table2_columns(
        max_patterns=max_patterns, seed=args.seed, n_seeds=n_seeds,
        config=config,
    )
    write("table2_full.txt", render_table2(columns))
    if args.json:
        write("table2.json", render_json(table2_json(columns)))

    stop_reason = None
    if token.cancelled:
        stop_reason = token.reason
    elif budget is not None and budget.expired():
        stop_reason = STOP_DEADLINE
    if stop_reason is None:
        # The figure reports are cheap but not guard-aware; skip them when
        # the sweep was cut so a deadline overrun stays an overrun of
        # seconds, not of report generation.
        write("figures_1_2.txt",
              json.dumps(figures_1_2_report(), indent=2, default=str))
        write("figure3.txt", json.dumps(figure3_report(), indent=2, default=str))
        write("example1.txt", json.dumps(example1_report(), indent=2, default=str))
        write("figure9.txt", json.dumps(figure9_report(), indent=2))
        write("tpg_examples.txt",
              json.dumps(tpg_examples_report(), indent=2, default=str))
        write("pseudo_exhaustive.txt",
              json.dumps(pseudo_exhaustive_report(), indent=2))

    if args.trace_out or args.metrics_out:
        def _announce(text: str) -> None:
            if not args.quiet:
                print(text)

        write_telemetry_artifacts(
            args,
            config={
                "command": "experiments", "quick": args.quick,
                "jobs": args.jobs, "executor": args.executor,
                "seed": args.seed,
                "max_patterns": max_patterns, "n_seeds": n_seeds,
            },
            guard=guard_summary(budget, token, stop_reason=stop_reason),
            announce=_announce,
        )

    if not args.quiet:
        if stop_reason is not None:
            print(f"stopped early ({stop_reason}) after "
                  f"{time.time() - start:.1f}s")
        else:
            print(f"done in {time.time() - start:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
