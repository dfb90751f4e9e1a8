"""The one shard-round primitive every round runs, wherever it runs.

Bit-identity across the ``serial`` and ``process`` backends (and the
driver's degraded fallback) holds because every attempt of every shard
round is one call of :func:`run_work_unit` — one
:meth:`~repro.faultsim.simulator.FaultSimulator.simulate_batch` pass over
the round's golden word — in the parent and in pool workers alike,
against per-run simulators, each built by :meth:`repro.engine.artifacts.
NetlistArtifacts.simulator` over the netlist's shared tables.  This module
also hosts the process-backend worker entry points — they must live at
module level so :class:`concurrent.futures.ProcessPoolExecutor` can pickle
references to them.

Integrity: every round's result carries a checksum taken *before* any
chaos corruption is applied, so a tampered payload is detectable by the
:class:`~repro.exec.driver.RoundDriver`.  Chaos: the ``crash`` mode is
mapped to a clean :class:`~repro.engine.chaos.ChaosError` for a round
run in the parent (``os._exit`` would take the parent down with the
"worker"), which exercises the identical retry path.
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


def fault_key(fault: Fault) -> Tuple[int, int, int, int]:
    """A total-orderable identity tuple (stem faults carry None fields)."""
    return (
        fault.net,
        fault.stuck_at,
        -1 if fault.gate_index is None else fault.gate_index,
        -1 if fault.pin is None else fault.pin,
    )


def round_checksum(
    detections: Dict[int, int], survivors: List[int], patterns: int
) -> str:
    """Integrity digest over one shard round's result payload.

    The payload names each fault by its position in the unit's fault
    tuple.  Every round is digested twice (by its worker, then by the
    driver), so the encoding is ``marshal`` format 2: a byte-stable
    function of these ints alone, without format 3's object-identity
    back-references, and cheaper than their ``repr``.
    """
    blob = marshal.dumps(
        (sorted(detections.items()), survivors, patterns), 2)
    return hashlib.sha256(blob).hexdigest()


def _apply_chaos(
    injector: Optional["FaultInjector"],
    shard_id: int,
    round_index: int,
    attempt: int,
    in_process: bool,
) -> bool:
    """Worker-side chaos, backend-aware.

    ``crash`` on a round run in the parent becomes a raised
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

    Returns the shard's new detections (absolute pattern indices) and
    surviving faults, each fault named by its position in ``unit.faults``,
    with round measurements and an integrity checksum taken *before* any
    chaos corruption, so tampering is detectable by the driver.
    """
    corrupt = _apply_chaos(
        unit.chaos, unit.shard_id, unit.round_index, unit.attempt, in_process
    )
    start = time.perf_counter()
    events_before = simulator.events_propagated
    detections: Dict[Fault, int] = {}
    with telemetry.span(
        "engine.shard_round",
        shard=unit.shard_id, round=unit.round_index, attempt=unit.attempt,
        n_faults=len(unit.faults),
    ):
        live = simulator.simulate_batch(
            unit.faults, unit.golden, unit.mask, unit.pattern_base,
            detections, unit.drop_detected,
        )
    measurements = {
        "events": simulator.events_propagated - events_before,
        "patterns": unit.mask.bit_length(),
        "wall": time.perf_counter() - start,
    }
    # Positions, not faults, go back: ints pickle and digest cheaply, and
    # the driver holds the unit to map them back.  Keyed by identity, which
    # hashes far cheaper than a frozen dataclass: both kernels record and
    # return the very fault objects they are given.
    position = {id(fault): i for i, fault in enumerate(unit.faults)}
    found = {position[id(fault)]: index
             for fault, index in detections.items()}
    survivors = [position[id(fault)] for fault in live]
    checksum = round_checksum(
        found, survivors, int(measurements["patterns"]))
    spans: List = []
    if not in_process:
        tele = telemetry.get_telemetry()
        spans = tele.tracer.drain() if tele.enabled else []
    if corrupt:
        if found:
            first = next(iter(found))
            found[first] += 1
        elif survivors:
            found[survivors[0]] = unit.pattern_base
        else:
            measurements["patterns"] = int(measurements["patterns"]) + 1
    return RoundResult(
        shard_id=unit.shard_id,
        detections=found,
        survivors=survivors,
        measurements=measurements,
        checksum=checksum,
        spans=spans,
    )


# ------------------------------------------------- process-worker entry points

_WORKER_SIMULATOR: Optional[FaultSimulator] = None


def init_worker(payload: bytes) -> None:
    """Build this worker process's simulator from the pickled netlist.

    The payload carries the netlist's fingerprint, so the worker finds
    its artifacts (inherited from the parent when forked) without
    hashing the netlist again.
    """
    global _WORKER_SIMULATOR
    # Imported here: repro.exec must stay loadable without touching
    # repro.engine, which imports this package.
    from repro.engine.artifacts import netlist_artifacts

    netlist, fingerprint, batch_width, telemetry_on, kernel = pickle.loads(
        payload)
    # Forked workers inherit the parent's span buffer and metrics; wipe
    # them or every drain() would ship the parent's records back and the
    # join would duplicate them.  Spawn-started workers don't inherit the
    # parent's enable() call either way, so the init payload carries it.
    telemetry.get_telemetry().reset()
    if telemetry_on:
        telemetry.enable()
    _WORKER_SIMULATOR = netlist_artifacts(netlist, fingerprint).simulator(
        netlist, batch_width, kernel)


def execute_unit(unit: WorkUnit) -> RoundResult:
    """Process-pool task: run one unit on this worker's simulator."""
    simulator = _WORKER_SIMULATOR
    assert simulator is not None, "worker used before initialization"
    return run_work_unit(simulator, unit, in_process=False)
