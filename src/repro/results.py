"""Unified result surface for every coverage-producing run in the repo.

Fault simulation (:class:`FaultSimResult`, produced by ``repro.faultsim`` and
``repro.engine``) and BIST session simulation (:class:`SessionResult`,
produced by ``repro.bist.session``) answer the same question — which faults
did this test detect? — but historically exposed it through different
shapes.  This module is the common home:

* :class:`CoverageResult` is the shared protocol: ``coverage()``,
  ``detected``, ``undetected`` and ``to_json()`` behave the same on every
  result type, so experiment harnesses and the CLI can consume either.
* Both concrete result classes live here; ``repro.faultsim`` and
  ``repro.bist`` export them under their package names.
* ``to_json()`` gives one serialization schema (used by the CLI's
  ``--json`` flag and the benchmark artifacts).

``SessionResult.coverage`` predates the protocol as a *property*; it now
returns a :class:`CoverageValue` — a ``float`` subclass that is also
callable — so both the old ``result.coverage`` and the protocol's
``result.coverage()`` spellings work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    runtime_checkable,
)

if TYPE_CHECKING:  # imported lazily to avoid a cycle with repro.faultsim
    from repro.faultsim.faults import Fault
    from repro.netlist.netlist import Netlist


@runtime_checkable
class CoverageResult(Protocol):
    """What every coverage-producing result exposes."""

    @property
    def detected(self) -> List[Fault]: ...

    @property
    def undetected(self) -> List[Fault]: ...

    def coverage(self) -> float: ...

    def to_json(self) -> Dict[str, Any]: ...


class CoverageValue(float):
    """A coverage fraction usable both as a float and as a call.

    Lets ``SessionResult.coverage`` honour its historical property contract
    (``result.coverage == 1.0``) while also satisfying the protocol's
    ``result.coverage()`` spelling.
    """

    def __call__(self, *args: Any, **kwargs: Any) -> float:
        return float(self)


def fault_to_json(fault: Fault) -> Dict[str, Any]:
    """One fault as a JSON-safe dict."""
    return {
        "net": fault.net,
        "stuck_at": fault.stuck_at,
        "gate_index": fault.gate_index,
        "pin": fault.pin,
    }


@dataclass
class FaultSimResult:
    """Outcome of a fault-simulation run.

    ``first_detection`` maps each detected fault to the 0-based index of the
    first pattern that detects it.  ``n_patterns`` is how many patterns were
    simulated in total.

    ``partial=True`` marks a run a :mod:`repro.guard` limit stopped early
    (deadline, pattern budget, memory ceiling, or cancellation); the
    structured ``stop_reason`` says which.  A partial result is internally
    consistent — coverage over the patterns actually applied — and a
    checkpointed run resumed later completes it bit-identically.
    """

    netlist: Netlist
    faults: List[Fault]
    first_detection: Dict[Fault, int] = field(default_factory=dict)
    n_patterns: int = 0
    undetectable: List[Fault] = field(default_factory=list)
    partial: bool = False
    stop_reason: Optional[str] = None

    @property
    def n_faults(self) -> int:
        return len(self.faults)

    @property
    def detected(self) -> List[Fault]:
        return list(self.first_detection)

    @property
    def undetected(self) -> List[Fault]:
        """Faults never detected, in fault-universe order.

        ``first_detection`` is consulted through a snapshot set so the cost
        is O(faults) however the mapping is represented — never a per-fault
        scan of the detected list.
        """
        detected = set(self.first_detection)
        return [f for f in self.faults if f not in detected]

    def coverage(self, after_patterns: Optional[int] = None, of_detectable: bool = False) -> float:
        """Fault coverage (fraction in [0,1]).

        With ``after_patterns`` given, counts only detections whose first
        pattern index is below it.  With ``of_detectable``, the denominator
        excludes faults proven undetectable (the paper reports coverage of
        detectable faults).
        """
        if after_patterns is None:
            hits = len(self.first_detection)
        else:
            hits = sum(1 for idx in self.first_detection.values() if idx < after_patterns)
        denom = len(self.faults)
        if of_detectable:
            denom -= len(self.undetectable)
        return hits / denom if denom else 1.0

    def detection_indices(self) -> List[int]:
        """Sorted first-detection pattern indices of all detected faults."""
        return sorted(self.first_detection.values())

    def patterns_for_coverage(self, target: float, of_detectable: bool = True) -> Optional[int]:
        """Fewest patterns reaching ``target`` coverage, or None if never.

        Returns the pattern *count* (index of the detecting pattern + 1).
        """
        denom = len(self.faults) - (len(self.undetectable) if of_detectable else 0)
        if denom <= 0:
            return 0
        needed = target * denom
        indices = self.detection_indices()
        # Smallest k with (#detections at index < k) >= needed.
        count = 0
        for position, index in enumerate(indices, start=1):
            count = position
            if count >= needed - 1e-9:
                return index + 1
        return None

    def merge_undetectable(self, faults: Iterable[Fault]) -> None:
        """Record faults proven redundant (e.g. by ATPG)."""
        known = set(self.undetectable)
        for fault in faults:
            if fault not in known:
                self.undetectable.append(fault)
                known.add(fault)

    def to_json(self, include_faults: bool = False) -> Dict[str, Any]:
        """Unified JSON shape (see :class:`CoverageResult`).

        ``include_faults`` adds the per-fault first-detection table, which
        can be large; the summary alone is enough for most artifacts.
        """
        payload: Dict[str, Any] = {
            "kind": "faultsim",
            "name": self.netlist.name,
            "n_faults": self.n_faults,
            "n_detected": len(self.first_detection),
            "n_undetected": self.n_faults - len(self.first_detection),
            "n_undetectable": len(self.undetectable),
            "n_patterns": self.n_patterns,
            "coverage": self.coverage(),
            "coverage_of_detectable": self.coverage(of_detectable=True),
            "partial": self.partial,
            "stop_reason": self.stop_reason,
        }
        if include_faults:
            payload["first_detection"] = [
                {**fault_to_json(fault), "pattern": index}
                for fault, index in self.first_detection.items()
            ]
            payload["undetected"] = [fault_to_json(f) for f in self.undetected]
        return payload


@dataclass
class SessionResult:
    """Outcome of one BIST session over a set of faults."""

    cycles: int
    golden_signatures: Dict[str, int]
    fault_signatures: Dict[Fault, Dict[str, int]]
    detected: List[Fault] = field(default_factory=list)
    undetected: List[Fault] = field(default_factory=list)
    partial: bool = False                #: stopped early by a guard limit
    stop_reason: Optional[str] = None    #: which limit (see repro.guard)

    @property
    def coverage(self) -> CoverageValue:
        total = len(self.detected) + len(self.undetected)
        return CoverageValue(len(self.detected) / total if total else 1.0)

    def to_json(self, include_faults: bool = False) -> Dict[str, Any]:
        """Unified JSON shape (see :class:`CoverageResult`)."""
        payload: Dict[str, Any] = {
            "kind": "session",
            "cycles": self.cycles,
            "n_faults": len(self.detected) + len(self.undetected),
            "n_detected": len(self.detected),
            "n_undetected": len(self.undetected),
            "coverage": float(self.coverage),
            "partial": self.partial,
            "stop_reason": self.stop_reason,
            "golden_signatures": {
                name: hex(signature)
                for name, signature in self.golden_signatures.items()
            },
        }
        if include_faults:
            payload["detected"] = [fault_to_json(f) for f in self.detected]
            payload["undetected"] = [fault_to_json(f) for f in self.undetected]
        return payload


__all__ = [
    "CoverageResult",
    "CoverageValue",
    "FaultSimResult",
    "SessionResult",
    "fault_to_json",
]
