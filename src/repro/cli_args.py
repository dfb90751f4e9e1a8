"""Shared CLI flag clusters and JSON serialization for engine commands.

``python -m repro selftest`` and ``python -m repro.experiments`` grew the
same four flag families independently — execution (``--jobs``,
``--executor``, ``--shard-timeout``), checkpointing (``--checkpoint-dir``,
``--resume``), governance (``--deadline``, ``--max-memory``,
``--max-patterns``) and telemetry (``--trace-out``, ``--metrics-out``,
``--quiet``).  This module defines them once as an argparse *parent*
parser, and maps the parsed namespace onto the engine's
:class:`~repro.exec.RunConfig` so both CLIs drive the run API the same
way a library caller would.  :func:`executor_env_error` vets
``$REPRO_ENGINE_EXECUTOR`` for every command that simulates, so a bad
value is a one-line usage error rather than a traceback mid-run.

It is also the home of the one true ``--json`` serialization path:
:func:`render_json` / :func:`emit_json` fix the byte format (two-space
indent, sorted keys) and :func:`result_payload` fixes the result *shape*
(the unified ``to_json()`` surface plus run context and the guard block).
``repro-bist selftest --json``, ``python -m repro.experiments --json`` and
the ``repro.serve`` result endpoint all route through these helpers, so
the three surfaces emit byte-identical JSON for the same result.
"""

from __future__ import annotations

import argparse
import json
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Union

from repro.exec import (
    EXECUTOR_ENV_VAR,
    available_executors,
    resolve_executor_name,
)
from repro.exec.config import (
    KERNEL_CHOICES,
    CheckpointPolicy,
    ExecutionPolicy,
    RetryPolicy,
    RunConfig,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

    from repro.guard.budget import Budget
    from repro.guard.cancel import CancelToken


def engine_parent_parser() -> argparse.ArgumentParser:
    """The shared engine/guard/telemetry flags as an argparse parent.

    Pass via ``parents=[engine_parent_parser()]`` when building a
    subcommand parser (``add_help=False`` keeps the child's ``-h`` the
    only help flag).  Flags parse into the namespace attributes
    :func:`runconfig_from_args` reads.
    """
    parent = argparse.ArgumentParser(add_help=False)
    execution = parent.add_argument_group("engine execution")
    execution.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="shard fault simulation over N workers "
             "(bit-identical to serial; see docs/ENGINE.md)")
    execution.add_argument(
        "--executor", default=None, choices=available_executors(),
        help="execution backend for sharded runs (default: "
             "$REPRO_ENGINE_EXECUTOR, then 'process'; results are "
             "bit-identical across backends — see docs/EXECUTORS.md)")
    execution.add_argument(
        "--kernel", default=None, choices=KERNEL_CHOICES,
        help="evaluation kernel: 'packed' (event-driven bigint loop), "
             "'vec' (numpy-vectorised, falls back to packed on "
             "unsupported netlists) or 'auto' (cost heuristic; the "
             "default, also via $REPRO_ENGINE_KERNEL); results are "
             "bit-identical across kernels — see docs/ENGINE.md")
    execution.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="seconds before a shard round is declared hung and retried "
             "on a fresh worker")
    execution.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="journal completed engine shard rounds under this directory "
             "(resumable runs)")
    execution.add_argument(
        "--resume", action="store_true",
        help="replay journaled shard rounds instead of re-running them")
    governance = parent.add_argument_group("run governance")
    governance.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; on expiry the run stops at the next "
             "round boundary with partial results")
    governance.add_argument(
        "--max-memory", default=None, metavar="SIZE",
        help="resident-memory ceiling (e.g. 2g, 512m); the engine sheds "
             "parallelism under pressure before stopping")
    governance.add_argument(
        "--max-patterns", type=int, default=None, metavar="N",
        help="pattern budget: stops each engine run at a round boundary "
             "once reached")
    governance.add_argument(
        "--analyze", action="store_true",
        help="run the static SCOAP/COP testability pre-flight and report "
             "the predicted-vs-measured coverage delta (advisory; never "
             "changes results — see docs/TESTABILITY.md)")
    telemetry = parent.add_argument_group("telemetry")
    telemetry.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="enable telemetry and write a Chrome trace_event file "
             "(chrome://tracing / Perfetto)")
    telemetry.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="enable telemetry and write a Prometheus text-format "
             "metrics file")
    telemetry.add_argument(
        "--quiet", action="store_true",
        help="suppress progress text (exit code still reports the "
             "outcome)")
    return parent


def runconfig_from_args(
    args: argparse.Namespace,
    *,
    budget: Optional["Budget"] = None,
    cancel: Optional["CancelToken"] = None,
    checkpoint_dir: Optional[Union[str, "Path"]] = None,
    max_patterns: Optional[int] = None,
) -> RunConfig:
    """Build a :class:`RunConfig` from a namespace the parent parser filled.

    ``budget`` / ``cancel`` are the caller's armed governance objects
    (``--deadline`` / ``--max-memory`` / ``--max-patterns`` feed
    ``Budget.from_cli``, not this function).  ``checkpoint_dir``
    overrides ``--checkpoint-dir`` when the caller resolved a default
    (e.g. ``<outdir>/checkpoints``); ``max_patterns`` caps the run when
    the command computed its own pattern budget.
    """
    config = RunConfig(
        execution=ExecutionPolicy(
            executor=getattr(args, "executor", None),
            jobs=getattr(args, "jobs", None),
            kernel=getattr(args, "kernel", None),
        ),
        retry=RetryPolicy(shard_timeout=getattr(args, "shard_timeout", None)),
        checkpoint=CheckpointPolicy(
            directory=(checkpoint_dir if checkpoint_dir is not None
                       else getattr(args, "checkpoint_dir", None)),
            resume=getattr(args, "resume", False),
        ),
        budget=budget,
        cancel=cancel,
        analyze=getattr(args, "analyze", False),
    )
    if max_patterns is not None:
        config = config.replace(max_patterns=max_patterns)
    return config


def executor_env_error() -> Optional[str]:
    """The one-line refusal of a ``$REPRO_ENGINE_EXECUTOR`` naming no backend.

    ``selftest``, ``python -m repro.experiments`` and ``serve`` call this
    before any simulation work and exit 2 with the line it returns, the
    way ``--executor`` refuses a bad name; otherwise the first sharded run
    would raise mid-command.  None when the variable is unset or names a
    backend.
    """
    name = resolve_executor_name(None)
    if name in available_executors():
        return None
    return (
        f"error: ${EXECUTOR_ENV_VAR}={name!r} names no execution backend "
        f"(available: {', '.join(available_executors())})"
    )


# --------------------------------------------------------- JSON serialization

def render_json(payload: Mapping[str, Any]) -> str:
    """The canonical machine-readable rendering of one payload.

    Two-space indent, sorted keys, ``default=str`` for the occasional
    non-JSON-native leaf (paths, enums in figure reports).  Every surface
    that claims byte-identical JSON output renders through this function.
    """
    return json.dumps(payload, indent=2, sort_keys=True, default=str)


def emit_json(payload: Mapping[str, Any]) -> None:
    """Print one canonical JSON object on stdout."""
    print(render_json(payload))


def result_payload(
    result: Any,
    *,
    context: Optional[Mapping[str, Any]] = None,
    guard: Optional[Mapping[str, Any]] = None,
    include_faults: bool = False,
) -> Dict[str, Any]:
    """One result object -> the shared ``--json`` payload shape.

    ``result`` is anything with the unified ``to_json()`` surface
    (:mod:`repro.results`).  ``context`` adds run identification (circuit,
    kernel, seed, ...) at the top level; ``guard`` attaches the
    :func:`repro.guard.guard_summary` block under ``"guard"``.  The CLIs
    and the serve result endpoint build their payloads here so the shape
    can never fork again.
    """
    payload: Dict[str, Any] = result.to_json(include_faults)
    if context:
        payload.update(context)
    if guard is not None:
        payload["guard"] = dict(guard)
    return payload


def write_telemetry_artifacts(
    args: argparse.Namespace,
    config: Mapping[str, Any],
    shards: Optional[Any] = None,
    guard: Optional[Mapping[str, Any]] = None,
    announce: Optional[Any] = None,
    testability: Optional[Mapping[str, Any]] = None,
) -> None:
    """Write ``--trace-out`` / ``--metrics-out`` files for the current run.

    Shared by ``repro-bist selftest`` and ``python -m repro.experiments``;
    ``announce`` is an optional ``str -> None`` progress printer (silenced
    by ``--quiet`` at the call site).  ``testability`` is the
    predicted-vs-measured block an ``--analyze`` run stamped on its result
    (:attr:`~repro.engine.core.EngineResult.testability`); it lands under
    ``extra["testability"]`` in the run manifest.
    """
    from repro import telemetry

    extra = {"testability": dict(testability)} if testability else None
    manifest = telemetry.RunManifest.collect(
        config=dict(config), shards=shards, guard=guard, extra=extra,
    )
    if getattr(args, "trace_out", None):
        telemetry.export.write_trace(args.trace_out, manifest=manifest)
        if announce is not None:
            announce(f"wrote trace to {args.trace_out}")
    if getattr(args, "metrics_out", None):
        telemetry.export.write_metrics(args.metrics_out)
        if announce is not None:
            announce(f"wrote metrics to {args.metrics_out}")
