"""Run checkpointing: journal completed rounds, resume interrupted runs.

Long Table 2 sweeps apply 2^17 patterns per kernel; losing a run to one
crashed machine and restarting from zero is exactly the cost this module
removes.  The engine journals every completed round — its end pattern
and its detections, as *indices into the run's fault list* — into one
append-only file per run, named by the content fingerprints of the
netlist and the pattern stream plus every parameter that shapes a round.
A re-invocation with ``resume=True`` replays journaled rounds instead of
re-executing them (surfaced as ``ShardStats.rounds_resumed``), then picks
up the real work where the interrupted run stopped.

Layout::

    <checkpoint root>/<run key (sha256 prefix)>.journal

A record is a header ``<II`` (body length, ``zlib.crc32`` of the body)
and a body of little-endian int64s: ``round, end``, then ``(fault index,
pattern index)`` pairs in merge order.  Each record is appended with one
``write`` and one ``fsync``.  Records are untrusted bytes: loading parses
ints and never executes anything, stops at the first record that is
short, has a bad length or fails its CRC (a torn tail from a killed
writer), and raises nothing whatever the bytes.  The run key covers the
journal version, the netlist fingerprint, the pattern-source fingerprint,
the fault list, and (batch width, max patterns, chunk size, stop/drop
semantics) — any change to those names another file, so a stale journal
is never replayed.  Sources without a stable fingerprint cannot be
journaled (``run_key`` returns None) and the engine silently runs without
checkpointing.
"""

from __future__ import annotations

import hashlib
import os
import struct
import sys
import zlib
from array import array
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from repro import telemetry
from repro.exec.config import RunConfig, canonical_fields
from repro.faultsim.faults import Fault
from repro.faultsim.patterns import PatternSource, source_fingerprint
from repro.netlist.netlist import Netlist

#: Bumped whenever the record layout or a round's geometry changes; part
#: of the run key so stale journals from older engine versions can never
#: be replayed.  Version 3: one file of int records per run, and the
#: shard count left the key.
JOURNAL_VERSION = 3

#: A record's header: body length and the body's ``zlib.crc32``.
_HEADER = struct.Struct("<II")

#: One journaled round: its end pattern and its ``{fault index: pattern}``
#: detections in merge order.
Round = Tuple[int, Dict[int, int]]


def run_key(
    netlist: Netlist,
    source: PatternSource,
    faults: Sequence[Fault],
    config: RunConfig,
    *,
    fingerprint: Optional[str] = None,
) -> Optional[str]:
    """Content key identifying one resumable run, or None if unkeyable.

    Only the *canonical* configuration fields participate
    (:func:`repro.exec.config.canonical_fields`): executor choice, shard
    count, retry policy, budget and chaos are execution strategy that
    cannot move a result, so a journal written under one backend or shard
    count resumes under any other.  Those fields fix every round's width,
    so a record's round index alone places it.  This is also the key of
    the ``repro.serve`` result cache.  The key bytes are pinned by the
    golden-key regression tests; moving them orphans every journal, so it
    takes a :data:`JOURNAL_VERSION` bump.  ``fingerprint`` is
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
    ) + canonical_fields(config)).encode()
    return hashlib.sha256(blob).hexdigest()


def _little_endian(values: array) -> array:
    """``values`` in little-endian byte order (a no-op on most hosts)."""
    if sys.byteorder == "big":  # pragma: no cover - little-endian hosts
        values.byteswap()
    return values


class CheckpointStore:
    """One run's journal file: append rounds, load the intact ones."""

    def __init__(self, root, key: str):
        self.path = Path(root) / f"{key[:32]}.journal"
        #: Where the last :meth:`load` found a torn tail, else None.
        self.torn_at: Optional[int] = None

    def _record_path(self, *_) -> Path:
        # Read only by the benchmark suite's ``journal_bytes`` hook.
        return self.path

    def load(self) -> Dict[int, Round]:
        """Every intact round, ``{round: (end, {index: pattern})}``.

        Read-only, so a concurrent reader (the serve progress endpoint
        polling a running job) is safe.  Reading stops at the first
        record that is short, has a bad length or fails its CRC.  A round
        journaled twice (two engines running one job, or a round rerun
        because its record did not fit) loads as its last record.
        """
        self.torn_at = None
        try:
            blob = self.path.read_bytes()
        except OSError:
            return {}
        rounds: Dict[int, Round] = {}
        offset = 0
        while offset + _HEADER.size <= len(blob):
            length, crc = _HEADER.unpack_from(blob, offset)
            start = offset + _HEADER.size
            body = blob[start:start + length]
            if length < 16 or length % 16 or len(body) < length \
                    or zlib.crc32(body) != crc:
                break
            values = _little_endian(array("q", body))
            rounds[values[0]] = (
                values[1], dict(zip(values[2::2], values[3::2])))
            offset = start + length
        if offset < len(blob):
            self.torn_at = offset
        return rounds

    def record(
        self, round_index: int, end: int, detections: Dict[int, int]
    ) -> None:
        """Append one completed round: one ``write``, one ``fsync``.

        ``detections`` maps fault-list *indices* to absolute pattern
        indices, in merge order.
        """
        values = array("q", (round_index, end))
        for pair in detections.items():
            values.extend(pair)
        body = _little_endian(values).tobytes()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "ab") as handle:
            handle.write(_HEADER.pack(len(body), zlib.crc32(body)) + body)
            handle.flush()
            # Durability: the guard's signal path reports a saved
            # checkpoint, so the round must be on disk when this returns.
            os.fsync(handle.fileno())


def open_store(
    netlist: Netlist,
    source: PatternSource,
    faults: Sequence[Fault],
    config: RunConfig,
    *,
    fingerprint: Optional[str] = None,
) -> Tuple[Optional[CheckpointStore], Dict[int, Round]]:
    """The engine's entry point: this run's store and the rounds to replay.

    Returns ``(None, {})`` when ``config.checkpoint.directory`` is unset
    or the run has no stable content key.  With ``resume=False`` an
    existing journal for this exact run is removed, so the journal always
    reflects a single coherent run; with ``resume=True`` it is loaded and
    a torn tail is cut, so the rounds this run appends stay reachable.
    """
    if config.checkpoint.directory is None:
        return None, {}
    key = run_key(netlist, source, faults, config, fingerprint=fingerprint)
    if key is None:
        return None, {}
    store = CheckpointStore(config.checkpoint.directory, key)
    if not config.checkpoint.resume:
        store.path.unlink(missing_ok=True)
        return store, {}
    journal = store.load()
    if store.torn_at is not None:
        # A writer died mid-append: count its torn tail and cut it.
        telemetry.count("engine.swallowed_errors")
        os.truncate(store.path, store.torn_at)
    return store, journal
