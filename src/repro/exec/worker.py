"""The one shard-round primitive every execution backend runs.

Bit-identity across the ``serial`` and ``process`` backends (and the
driver's in-parent rounds) holds because they all execute the *same*
loop, :func:`consume_batches` — behind :func:`run_work_unit` in both
backends — against per-worker
:class:`~repro.faultsim.simulator.FaultSimulator` instances.  This module
also hosts the process-backend worker entry points — they must live at
module level so :class:`concurrent.futures.ProcessPoolExecutor` can pickle
references to them.

Integrity: every round's result carries a checksum taken *before* any
chaos corruption is applied, so a tampered payload is detectable by the
:class:`~repro.exec.driver.RoundDriver`.  Chaos: the ``crash`` mode is
mapped to a clean :class:`~repro.engine.chaos.ChaosError` on the
in-process ``serial`` backend (``os._exit`` would take the parent down
with the "worker"), which exercises the identical retry path.
Telemetry: out-of-process workers drain their span buffer into the
result for the parent to absorb; in-process rounds record straight into
the parent tracer (draining would steal the parent's own spans) and ship
none.
"""

from __future__ import annotations

import hashlib
import marshal
import pickle
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro import telemetry
from repro.exec.base import RoundResult, WorkUnit
from repro.faultsim.faults import Fault
from repro.faultsim.simulator import FaultSimulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.chaos import FaultInjector


def make_simulator(netlist, batch_width: int, kernel: str) -> FaultSimulator:
    """Build the simulator for one resolved kernel name.

    The single factory every execution path uses — per-worker builds in
    every backend (the ``serial`` one included), the driver's degraded
    fallback — so a run's kernel choice is honoured uniformly.  The vec
    class is imported lazily: repro.exec must stay loadable without
    touching repro.engine (the engine imports this package), and the
    kernel was resolved by the engine only where vec is actually usable.
    """
    if kernel == "vec":
        from repro.engine.vec import VecFaultSimulator

        return VecFaultSimulator(netlist, batch_width)
    return FaultSimulator(netlist, batch_width)


def fault_key(fault: Fault) -> Tuple[int, int, int, int]:
    """A total-orderable identity tuple (stem faults carry None fields)."""
    return (
        fault.net,
        fault.stuck_at,
        -1 if fault.gate_index is None else fault.gate_index,
        -1 if fault.pin is None else fault.pin,
    )


def round_checksum(
    detections: Dict[Fault, int], survivors: List[Fault], patterns: int
) -> str:
    """Integrity digest over one shard round's result payload.

    Every round is digested twice (by its worker, then by the driver), so
    the encoding is ``marshal`` format 2: a byte-stable function of these
    int tuples alone, without format 3's object-identity back-references,
    and cheaper than their ``repr``.
    """
    blob = marshal.dumps((
        sorted(fault_key(f) + (index,) for f, index in detections.items()),
        [fault_key(f) for f in survivors],
        patterns,
    ), 2)
    return hashlib.sha256(blob).hexdigest()


def consume_batches(
    simulator: FaultSimulator,
    faults: List[Fault],
    golden_batches: List[Tuple[int, Dict[int, int]]],
    pattern_base: int,
    drop_detected: bool,
) -> Tuple[Dict[Fault, int], List[Fault], Dict[str, float]]:
    """Run one round of batches for one fault list on one simulator.

    The shared primitive behind every backend's shard round and the
    driver's degraded in-process fallback — one implementation is what
    keeps every execution path bit-identical.
    """
    start = time.perf_counter()
    events_before = simulator.events_propagated
    detections: Dict[Fault, int] = {}
    live = list(faults)
    base = pattern_base
    patterns = 0
    for mask, good in golden_batches:
        width = mask.bit_length()
        live = simulator.simulate_batch(
            live, good, mask, base, detections, drop_detected
        )
        base += width
        patterns += width
        if not live:
            break
    measurements = {
        "events": simulator.events_propagated - events_before,
        "patterns": patterns,
        "wall": time.perf_counter() - start,
    }
    return detections, live, measurements


def _apply_chaos(
    injector: Optional["FaultInjector"],
    shard_id: int,
    round_index: int,
    attempt: int,
    in_process: bool,
) -> bool:
    """Worker-side chaos, backend-aware.

    ``crash`` on an in-process backend becomes a raised
    :class:`~repro.engine.chaos.ChaosError`: there is no separate worker
    process to kill, and ``os._exit(13)`` would take the whole run down
    instead of exercising the retry path the mode exists to test.
    Process workers keep the real hard exit.  Returns True when the
    result payload should be corrupted.
    """
    if injector is None:
        return False
    if in_process and injector.mode == "crash":
        # Imported here, not at module level: repro.exec must be loadable
        # without touching repro.engine (the engine imports this package).
        from repro.engine.chaos import ChaosError

        if injector.fires(shard_id, round_index, attempt):
            raise ChaosError(
                f"chaos: injected crash in in-process shard {shard_id} "
                f"round {round_index}"
            )
        return False
    return injector.apply(shard_id, round_index, attempt)


def run_work_unit(
    simulator: FaultSimulator, unit: WorkUnit, in_process: bool
) -> RoundResult:
    """Simulate one :class:`WorkUnit` on one simulator.

    Returns the shard's new detections (absolute pattern indices), its
    surviving fault list, round measurements and an integrity checksum
    taken *before* any chaos corruption, so tampering is detectable by
    the driver.
    """
    corrupt = _apply_chaos(
        unit.chaos, unit.shard_id, unit.round_index, unit.attempt, in_process
    )
    with telemetry.span(
        "engine.shard_round",
        shard=unit.shard_id, round=unit.round_index, attempt=unit.attempt,
        n_faults=len(unit.faults),
    ):
        detections, live, measurements = consume_batches(
            simulator, list(unit.faults), list(unit.golden_batches),
            unit.pattern_base, unit.drop_detected,
        )
    checksum = round_checksum(detections, live, int(measurements["patterns"]))
    spans: List = []
    if not in_process:
        tele = telemetry.get_telemetry()
        spans = tele.tracer.drain() if tele.enabled else []
    if corrupt:
        if detections:
            first = next(iter(detections))
            detections[first] += 1
        elif live:
            detections[live[0]] = unit.pattern_base
        else:
            measurements["patterns"] = int(measurements["patterns"]) + 1
    return RoundResult(
        shard_id=unit.shard_id,
        detections=detections,
        survivors=live,
        measurements=measurements,
        checksum=checksum,
        spans=spans,
    )


# ------------------------------------------------- process-worker entry points

_WORKER_SIMULATOR: Optional[FaultSimulator] = None


def init_worker(payload: bytes) -> None:
    """Build this worker process's simulator from the pickled netlist."""
    global _WORKER_SIMULATOR
    netlist, batch_width, telemetry_on, kernel = pickle.loads(payload)
    # Forked workers inherit the parent's span buffer and metrics; wipe
    # them or every drain() would ship the parent's records back and the
    # join would duplicate them.  Spawn-started workers don't inherit the
    # parent's enable() call either way, so the init payload carries it.
    telemetry.get_telemetry().reset()
    if telemetry_on:
        telemetry.enable()
    _WORKER_SIMULATOR = make_simulator(netlist, batch_width, kernel)


def execute_unit(unit: WorkUnit) -> RoundResult:
    """Process-pool task: run one unit on this worker's simulator."""
    simulator = _WORKER_SIMULATOR
    assert simulator is not None, "worker used before initialization"
    return run_work_unit(simulator, unit, in_process=False)
