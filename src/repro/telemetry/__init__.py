"""repro.telemetry — tracing, metrics and run manifests for the engine.

One process-global :class:`Telemetry` instance (a :class:`~repro.telemetry.
trace.Tracer` plus a :class:`~repro.telemetry.metrics.MetricsRegistry`)
is shared by every instrumented layer — engine, golden rounds, fault
simulator, BIST sessions, the experiment harness and the CLI.  It is
**off by default**: every helper below front-loads a single ``enabled``
check, so instrumented hot paths cost one attribute read and one branch
when telemetry is off (see the disabled-overhead smoke test).

Enable it explicitly::

    from repro import telemetry

    telemetry.enable()
    result = simulate(netlist, jobs=4)
    telemetry.export.write_trace("trace.json")      # chrome://tracing
    telemetry.export.write_metrics("metrics.prom")  # Prometheus text

or ambiently with ``REPRO_TELEMETRY=1`` (the CI equivalence jobs run this
way to prove tracing never perturbs results).  Worker processes buffer
their spans locally and the engine merges them at shard join, so one
trace shows the parent and every shard on a single timeline.

See ``docs/OBSERVABILITY.md`` for the full tour.
"""

from __future__ import annotations

import os
from typing import Any, Optional, Sequence, Union

from repro.telemetry import export  # noqa: F401  (re-exported surface)
from repro.telemetry.manifest import RunManifest, config_fingerprint, git_describe
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    THROUGHPUT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.trace import NOOP_SPAN, SpanRecord, Tracer, traced

#: Setting this environment variable to anything but ""/"0" enables the
#: global telemetry instance at import time (mirrors ``REPRO_CHAOS``).
TELEMETRY_ENV_VAR = "REPRO_TELEMETRY"


class Telemetry:
    """A tracer and a metrics registry behind one enabled flag."""

    def __init__(self):
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    def enable(self) -> None:
        self.tracer.enabled = True

    def disable(self) -> None:
        self.tracer.enabled = False

    def reset(self) -> None:
        """Clear every buffered span and registered instrument."""
        self.tracer.reset()
        self.metrics.reset()


_TELEMETRY = Telemetry()


def get_telemetry() -> Telemetry:
    """The process-global telemetry instance."""
    return _TELEMETRY


def enabled() -> bool:
    return _TELEMETRY.enabled


def enable() -> None:
    _TELEMETRY.enable()


def disable() -> None:
    _TELEMETRY.disable()


def reset() -> None:
    _TELEMETRY.reset()


# ------------------------------------------------------- hot-path helpers
#
# Call sites use these module-level functions; each is a single enabled
# check before any work, which is the whole disabled-mode overhead story.

def span(name: str, **attributes: Any):
    """Time a named span on the global tracer (shared no-op when off)."""
    tracer = _TELEMETRY.tracer
    if not tracer.enabled:
        return NOOP_SPAN
    return tracer.span(name, **attributes)


def count(name: str, amount: Union[int, float] = 1) -> None:
    """Increment a counter (no-op when disabled)."""
    if not _TELEMETRY.tracer.enabled:
        return
    _TELEMETRY.metrics.counter(name).inc(amount)


def gauge_set(name: str, value: Union[int, float]) -> None:
    """Set a gauge (no-op when disabled)."""
    if not _TELEMETRY.tracer.enabled:
        return
    _TELEMETRY.metrics.gauge(name).set(value)


def observe(
    name: str,
    value: Union[int, float],
    boundaries: Optional[Sequence[float]] = None,
) -> None:
    """Observe a histogram value (no-op when disabled)."""
    if not _TELEMETRY.tracer.enabled:
        return
    _TELEMETRY.metrics.histogram(name, boundaries).observe(value)


if os.environ.get(TELEMETRY_ENV_VAR, "") not in ("", "0"):
    _TELEMETRY.enable()


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "RunManifest",
    "SpanRecord",
    "TELEMETRY_ENV_VAR",
    "THROUGHPUT_BUCKETS",
    "Telemetry",
    "Tracer",
    "config_fingerprint",
    "count",
    "disable",
    "enable",
    "enabled",
    "export",
    "gauge_set",
    "get_telemetry",
    "git_describe",
    "observe",
    "reset",
    "span",
    "traced",
]
