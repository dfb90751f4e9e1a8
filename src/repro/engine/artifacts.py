"""Per-netlist artifacts: what a run derives from the netlist alone.

Before its first round, a :func:`repro.engine.simulate` call needs the
lint pre-flight's verdict, an :class:`~repro.netlist.evaluate.Evaluator`
for the golden rounds, the packed propagator's tables, the vec kernel's
support verdict and its compiled program.  None of them depends on the
faults, the patterns or the configuration, and a Table 2 sweep simulates
each kernel netlist once per seed while a service runs job after job on
its library designs.  So each process keeps them in one bounded LRU,
one :class:`NetlistArtifacts` per :meth:`~repro.netlist.netlist.Netlist.
fingerprint`:

* Each artifact is built on first use, from the netlist of the run that
  needs it, and only read afterwards, so concurrent runs share it.  No
  artifact keeps that netlist, which dies with its caller's last
  reference.  A simulator is never shared:
  :meth:`NetlistArtifacts.simulator` builds a fresh one per run, bound
  to the caller's netlist (whose gate names and ``blocks`` the
  fingerprint omits) and counting its own ``events_propagated``.  All
  simulators of an entry, and its golden rounds, share one
  ``Evaluator``.
* Only a clean lint verdict is kept: a netlist with error findings is
  linted, and raises, on every call.
* The key is the structure, not the object: two netlists lowered from
  one kernel share an entry, and a netlist changed after a run (say
  through ``netlist.gates.append``) has a new fingerprint, so it is
  linted and compiled afresh.
* The bound, :data:`MAX_CACHED_GATES`, counts gates; past it the least
  recently used entries go first.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional

from repro import telemetry
from repro.engine.vec import (
    CompiledVecNetlist,
    VecFaultSimulator,
    vec_support_reason,
)
from repro.faultsim.simulator import FaultSimulator, PackedTables
from repro.netlist.evaluate import Evaluator
from repro.netlist.netlist import Netlist

#: Bound on the cached netlists' total gate count: the 25 distinct
#: kernel netlists of a full Table 2 sweep (4,396 gates) and synth20k
#: (21,120 gates) fit together.
MAX_CACHED_GATES = 1 << 15


class NetlistArtifacts:
    """The run artifacts of one netlist structure, each built once.

    Every accessor takes the caller's netlist, which has this entry's
    fingerprint, and builds from it on first use.
    """

    def __init__(self, fingerprint: str, n_gates: int):
        self.fingerprint = fingerprint
        self.n_gates = n_gates
        self._built: Dict[str, Any] = {}
        # Reentrant: the vec program builds the evaluator it orders by.
        self._lock = threading.RLock()

    def _get(self, name: str, build: Callable[[], Any]) -> Any:
        try:
            return self._built[name]
        except KeyError:
            pass
        with self._lock:
            if name not in self._built:
                self._built[name] = build()
            return self._built[name]

    def preflight(self, netlist: Netlist) -> None:
        """The lint pre-flight; raises :class:`~repro.errors.LintError`.

        A clean verdict is kept; an error verdict is not, so the next
        call lints again.
        """

        def lint() -> bool:
            from repro.lint.runner import preflight_netlist

            preflight_netlist(netlist)
            return True

        self._get("lint", lint)

    def evaluator(self, netlist: Netlist) -> Evaluator:
        return self._get("evaluator", lambda: Evaluator(netlist))

    def vec_support_reason(self, netlist: Netlist) -> Optional[str]:
        """:func:`repro.engine.vec.vec_support_reason`, kept."""
        return self._get("vec_support", lambda: vec_support_reason(netlist))

    def simulator(self, netlist: Netlist, batch_width: int,
                  kernel: str = "packed") -> FaultSimulator:
        """A fresh simulator of the resolved ``kernel`` on the shared
        tables, bound to ``netlist``."""
        tables = self._get(
            "packed", lambda: PackedTables(netlist, self.evaluator(netlist)))
        if kernel == "vec":
            compiled = self._get("compiled", lambda: CompiledVecNetlist(
                netlist, self.evaluator(netlist).order))
            return VecFaultSimulator(netlist, batch_width, tables, compiled)
        return FaultSimulator(netlist, batch_width, tables)

    def _after_fork(self) -> None:
        self._lock = threading.RLock()


class ArtifactCache:
    """A bounded, thread-safe LRU of :class:`NetlistArtifacts`."""

    def __init__(self, max_gates: int = MAX_CACHED_GATES):
        self.max_gates = max_gates
        self._entries: "OrderedDict[str, NetlistArtifacts]" = OrderedDict()
        self._gates = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, netlist: Netlist,
            fingerprint: Optional[str] = None) -> NetlistArtifacts:
        """The entry for ``netlist``'s structure, made if new.

        ``fingerprint`` is ``netlist.fingerprint()``, for callers that
        have it already.  An entry larger than the whole bound is
        returned but not kept.
        """
        if fingerprint is None:
            fingerprint = netlist.fingerprint()
        evicted = 0
        with self._lock:
            entry = self._entries.get(fingerprint)
            hit = entry is not None
            if entry is not None:
                self._entries.move_to_end(fingerprint)
                self.hits += 1
            else:
                entry = NetlistArtifacts(fingerprint, len(netlist.gates))
                self._entries[fingerprint] = entry
                self._gates += entry.n_gates
                self.misses += 1
                while self._gates > self.max_gates:
                    _, oldest = self._entries.popitem(last=False)
                    self._gates -= oldest.n_gates
                    evicted += 1
                self.evictions += evicted
        telemetry.count("artifacts.hits" if hit else "artifacts.misses")
        if evicted:
            telemetry.count("artifacts.evictions", evicted)
        return entry

    def _after_fork(self) -> None:
        # A lock another thread held at fork time stays held in the
        # child; the built artifacts themselves are complete or absent.
        self._lock = threading.Lock()
        for entry in self._entries.values():
            entry._after_fork()


_CACHE = ArtifactCache()


def netlist_artifacts(netlist: Netlist,
                      fingerprint: Optional[str] = None) -> NetlistArtifacts:
    """The process-wide entry for ``netlist`` (see the module docstring)."""
    return _CACHE.get(netlist, fingerprint)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=lambda: _CACHE._after_fork())
