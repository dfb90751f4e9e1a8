"""Run checkpointing: journal completed shard rounds, resume interrupted runs.

Long Table 2 sweeps apply 2^17 patterns per kernel; losing a run to one
crashed machine and restarting from zero is exactly the cost this module
removes.  The engine journals every completed shard round — the round's new
detections and surviving faults, as *indices into the run's fault list* —
into a directory keyed by the content fingerprints of the netlist and the
pattern stream, plus every parameter that shapes shard/round boundaries.  A
re-invocation with ``resume=True`` replays journaled rounds instead of
re-executing them (surfaced as ``ShardStats.rounds_resumed``), then picks
up the real work where the interrupted run stopped.

Layout::

    <checkpoint root>/<run key (sha256 prefix)>/shard0003_round0012.rec

Records are pickled dicts written atomically (temp file, ``fsync``, then
``os.replace``) so an interruption — including a SIGKILL mid-flush — can
never leave a half-written record behind under the final name; stale
``*.tmp`` files from a killed writer are swept on the next ``load()`` /
``clear()``, and a record that fails to unpickle is simply treated as
never written.  The run key covers the journal version, the netlist
fingerprint, the pattern-source fingerprint, the fault list, and (batch
width, max patterns, jobs, chunk size, stop/drop semantics) — any change
to those invalidates the journal wholesale, so a stale journal is never
replayed.  Sources without a stable fingerprint cannot be journaled
(``run_key`` returns None) and the engine silently runs without
checkpointing.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.exec.config import RunConfig, canonical_fields, shard_count
from repro.faultsim.faults import Fault
from repro.faultsim.patterns import PatternSource, source_fingerprint
from repro.netlist.netlist import Netlist

#: Bumped whenever the record layout or a round's geometry changes; part
#: of the run key so stale journals from older engine versions can never
#: be replayed.  Version 2: every round of a run has the planned width
#: (version-1 records could carry halved or one-batch rounds).
JOURNAL_VERSION = 2


def run_key(
    netlist: Netlist,
    source: PatternSource,
    faults: Sequence[Fault],
    config: RunConfig,
    jobs: int,
    *,
    fingerprint: Optional[str] = None,
) -> Optional[str]:
    """Content key identifying one resumable run, or None if unkeyable.

    Only the *canonical* configuration fields participate
    (:func:`repro.exec.config.canonical_fields`): executor choice, retry
    policy, budget and chaos are execution strategy that cannot move a
    result, so a journal written under one backend resumes under any
    other.  Those fields fix every round's width, so a record's round
    index alone places it.  The key bytes are pinned by the golden-key
    regression tests; moving them orphans every journal, so it takes a
    :data:`JOURNAL_VERSION` bump.  ``fingerprint`` is
    ``netlist.fingerprint()``, for callers that have it already.
    """
    stream_id = source_fingerprint(source)
    if stream_id is None:
        return None
    if fingerprint is None:
        fingerprint = netlist.fingerprint()
    fault_digest = hashlib.sha256(
        repr([
            (f.net, f.stuck_at, f.gate_index, f.pin) for f in faults
        ]).encode()
    ).hexdigest()
    blob = repr((
        JOURNAL_VERSION,
        fingerprint,
        stream_id,
        fault_digest,
    ) + canonical_fields(config, jobs)).encode()
    return hashlib.sha256(blob).hexdigest()


def resolve_run_key(
    netlist: Netlist,
    source: PatternSource,
    faults: Sequence[Fault],
    config: RunConfig,
) -> Optional[str]:
    """The key :func:`repro.engine.simulate` will journal this run under.

    Keys by :func:`repro.exec.config.shard_count`, the shard count the
    engine actually executes: a run with too few faults to shard is keyed
    as ``jobs=1`` whatever the config requested.  This is the entry point
    for callers that need the key *without* running the engine, most
    importantly the ``repro.serve`` result cache, whose content addressing
    must match the journal exactly (pinned by a golden regression test
    against a real journal directory).
    """
    fault_list = list(faults)
    return run_key(netlist, source, fault_list, config,
                   shard_count(config, len(fault_list)))


class CheckpointStore:
    """One run's journal directory: load, record, and replay shard rounds."""

    def __init__(self, root, key: str):
        self.root = Path(root)
        self.key = key
        self.directory = self.root / key[:32]

    def _record_path(self, shard: int, round_index: int) -> Path:
        return self.directory / f"shard{shard:04d}_round{round_index:06d}.rec"

    # -------------------------------------------------------------- loading

    def load(self, *, sweep: bool = True) -> Dict[Tuple[int, int], Dict[str, Any]]:
        """All readable records, keyed by ``(shard, round)``.

        Unreadable (half-written, foreign) files are skipped, not fatal:
        the engine just re-executes those rounds.

        ``sweep=False`` makes the load strictly read-only.  The default
        sweep of stale ``*.tmp`` files is only safe when no writer is
        live — a concurrent reader (the serve progress endpoint polling a
        running job's journal) would otherwise delete a record the engine
        is about to rename into place.
        """
        records: Dict[Tuple[int, int], Dict[str, Any]] = {}
        if not self.directory.is_dir():
            return records
        if sweep:
            self._sweep_stale_tmp()
        for path in sorted(self.directory.glob("shard*_round*.rec")):
            try:
                with open(path, "rb") as handle:
                    record = pickle.load(handle)
                shard = int(record["shard"])
                round_index = int(record["round"])
            except (OSError, EOFError, pickle.UnpicklingError, KeyError,
                    IndexError, ValueError, TypeError, AttributeError,
                    ImportError):
                # Half-written or foreign record: unpickling garbage can
                # surface as almost any of these.  The round just re-runs.
                telemetry.count("engine.swallowed_errors")
                continue
            records[(shard, round_index)] = record
        return records

    def clear(self) -> None:
        """Drop every record of this run (a fresh, non-resumed start)."""
        if not self.directory.is_dir():
            return
        self._sweep_stale_tmp()
        for path in self.directory.glob("shard*_round*.rec"):
            try:
                path.unlink()
            except OSError:
                pass

    def _sweep_stale_tmp(self) -> None:
        """Remove temp files a killed writer left behind.

        A record is only ever visible under its final name (the ``.tmp``
        to final rename is atomic), so any surviving ``*.tmp`` is garbage
        from a writer that died mid-flush — never a live record.
        """
        for path in self.directory.glob("*.tmp"):
            try:
                path.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------ recording

    def record(
        self,
        shard: int,
        round_index: int,
        detections: Dict[int, int],
        survivors: List[int],
        patterns: int,
    ) -> None:
        """Atomically journal one completed shard round.

        ``detections`` maps fault-list *indices* to absolute pattern
        indices; ``survivors`` lists the indices still live afterwards.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = {
            "shard": shard,
            "round": round_index,
            "detections": dict(detections),
            "survivors": list(survivors),
            "patterns": int(patterns),
        }
        descriptor, temp_name = tempfile.mkstemp(
            dir=str(self.directory), suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                pickle.dump(payload, handle)
                handle.flush()
                # Durability, not just atomicity: without the fsync a
                # crash shortly after the rename can still surface a
                # zero-length file under the final name on some
                # filesystems — exactly the poisoned-journal case the
                # guard's signal path must never create.
                os.fsync(handle.fileno())
            os.replace(temp_name, self._record_path(shard, round_index))
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    def n_records(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("shard*_round*.rec"))


def open_store(
    netlist: Netlist,
    source: PatternSource,
    faults: Sequence[Fault],
    config: RunConfig,
    jobs: int,
    *,
    fingerprint: Optional[str] = None,
) -> Optional[CheckpointStore]:
    """The engine's entry point: a store for this run, or None.

    Returns None when ``config.checkpoint.directory`` is unset or the run
    has no stable content key.  With ``resume=False`` any existing journal
    for this exact run is cleared so the journal always reflects a single
    coherent run.
    """
    if config.checkpoint.directory is None:
        return None
    key = run_key(netlist, source, faults, config, jobs,
                  fingerprint=fingerprint)
    if key is None:
        return None
    store = CheckpointStore(config.checkpoint.directory, key)
    if not config.checkpoint.resume:
        store.clear()
    return store
