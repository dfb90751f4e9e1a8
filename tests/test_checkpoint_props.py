"""The checkpoint journal's loader against arbitrary bytes.

A journal file is untrusted input: ``--resume`` and a serve state
directory read files that another process wrote.  Three properties of
:class:`repro.engine.checkpoint.CheckpointStore`:

1. Rounds of arbitrary int maps round-trip through ``record`` and
   ``load``, each map in its recorded order (merge order shows in a
   result's ``first_detection``).
2. Intact records followed by arbitrary bytes load as exactly those
   records, and the load marks where the tail starts: a torn tail is
   dropped, never merged.
3. Arbitrary bytes as the whole file, or an intact journal with one byte
   flipped or its end cut, never make the loader raise, and what it
   returns is ints only.
"""

from __future__ import annotations

import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from repro.engine.checkpoint import CheckpointStore  # noqa: E402

INT64 = st.integers(-(1 << 63), (1 << 63) - 1)

#: ``{round: (end, {index: pattern})}``, the shape ``load`` returns.
JOURNALS = st.dictionaries(
    st.integers(0, 1 << 20),
    st.tuples(INT64, st.dictionaries(INT64, INT64, max_size=12)),
    max_size=6,
)


def _store(directory: str) -> CheckpointStore:
    return CheckpointStore(directory, "c" * 64)


def _write(store: CheckpointStore, journal) -> None:
    for round_index, (end, detections) in journal.items():
        store.record(round_index, end, detections)


def _ints_only(rounds) -> bool:
    return all(
        type(round_index) is int and type(end) is int
        and all(type(k) is int and type(v) is int
                for k, v in detections.items())
        for round_index, (end, detections) in rounds.items()
    )


@given(journal=JOURNALS)
def test_records_round_trip_in_order(journal):
    with tempfile.TemporaryDirectory() as directory:
        store = _store(directory)
        _write(store, journal)
        loaded = store.load()
    assert loaded == journal
    for round_index, (_, detections) in journal.items():
        assert list(loaded[round_index][1].items()) == list(detections.items())
    assert store.torn_at is None


@given(journal=JOURNALS, tail=st.binary(min_size=1, max_size=256))
def test_a_tail_after_intact_records_is_dropped(journal, tail):
    with tempfile.TemporaryDirectory() as directory:
        store = _store(directory)
        _write(store, journal)
        intact = store.path.stat().st_size if journal else 0
        with open(store.path, "ab") as handle:
            handle.write(tail)
        assert store.load() == journal
    assert store.torn_at == intact


@st.composite
def damaged_journals(draw) -> bytes:
    """An intact journal's bytes with one byte flipped or its end cut."""
    with tempfile.TemporaryDirectory() as directory:
        store = _store(directory)
        _write(store, draw(JOURNALS.filter(bool)))
        blob = bytearray(store.path.read_bytes())
    position = draw(st.integers(0, len(blob) - 1))
    if draw(st.booleans()):
        blob[position] ^= draw(st.integers(1, 255))
        return bytes(blob)
    return bytes(blob[:position])


@given(blob=st.one_of(st.binary(max_size=512), damaged_journals()))
def test_arbitrary_bytes_never_raise(blob):
    with tempfile.TemporaryDirectory() as directory:
        store = _store(directory)
        store.path.write_bytes(blob)
        rounds = store.load()
    assert isinstance(rounds, dict)
    assert _ints_only(rounds)
    assert store.torn_at is None or 0 <= store.torn_at < len(blob)
