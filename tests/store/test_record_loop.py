"""One record loop for every log, seen from the spill: one rule per test.

A WAL and a spill partition file are read back by one loop,
``repro.storage.serialization.read_records``. Store recovery, the
reader's tail, the shipper and the spill merge each hand it a callback,
and WAL replay and the spill merge check records with the WAL's
``check_wal_record``. So a zero-filled tail ends a spill file as it ends
a WAL. The rules the WAL readers already shared are pinned in
``test_zero_tail.py``, ``test_wal_fuzz.py``, ``test_spill.py`` and
``test_segmented_fold.py`` (a refused record names its offset on every
reader, the spill merge included).
"""

import numpy as np
import pytest

from repro.storage.serialization import SerializationError, read_record_from, write_record
from repro.store import RECORD_SKETCH, SpilledGroupBy, spill_files
from repro.store.sketchstore import _FILE_HEADER_BYTES


def _hashes(seed, count):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 1 << 64, size=count, dtype=np.uint64)


def _spill(directory, batches):
    """A one-partition spill of ``batches`` one-segment records: its file and state."""
    with SpilledGroupBy(directory, p=8, partitions=1) as spill:
        for index in range(batches):
            spill.write_segments([(f"g{index % 2}".encode(), _hashes(index, 20))])
        state = spill.to_aggregator().to_bytes()
    [[path]] = spill_files(directory).values()
    return path, state


def _record_start(path, index):
    """Offset of record ``index`` (from 0) of a spill file."""
    with open(path, "rb") as handle:
        handle.seek(_FILE_HEADER_BYTES)
        for _ in range(index):
            read_record_from(handle, lsn=False)
        return handle.tell()


def _zero_tail(path, zeroed):
    """Zero the file's last ``zeroed`` bytes, then append 64 zero bytes."""
    data = bytearray(path.read_bytes())
    data[len(data) - zeroed :] = bytes(zeroed)
    path.write_bytes(bytes(data) + bytes(64))


@pytest.mark.parametrize("zeroed", [0, 1, 40])
def test_an_attached_spill_reads_the_durable_prefix_before_a_zero_filled_tail(
    tmp_path, zeroed
):
    path, _ = _spill(tmp_path / "s", 3)
    _zero_tail(path, zeroed)
    _, expected = _spill(tmp_path / "ref", 3 if zeroed == 0 else 2)
    attached = SpilledGroupBy.attach(tmp_path / "s")
    assert attached.to_aggregator().to_bytes() == expected


@pytest.mark.parametrize("zeroed", [0, 40])
def test_the_writing_spill_raises_truncated_spill_record_at_a_zero_filled_tail(
    tmp_path, zeroed
):
    path, _ = _spill(tmp_path / "s", 3)
    offset = _record_start(path, 3 if zeroed == 0 else 2)
    _zero_tail(path, zeroed)
    with SpilledGroupBy(tmp_path / "s", p=8, partitions=1) as writer:
        with pytest.raises(SerializationError) as caught:
            writer.top(1)
    assert str(caught.value) == f"{path}: record at offset {offset}: truncated spill record"


def test_a_spill_record_of_a_kind_no_spill_holds_is_refused_naming_its_offset(tmp_path):
    path, _ = _spill(tmp_path / "s", 2)
    offset = path.stat().st_size
    buffer = bytearray()
    write_record(buffer, RECORD_SKETCH, b"g", b"")  # a WAL kind check_wal_record accepts
    with open(path, "ab") as handle:
        handle.write(buffer)
    with pytest.raises(SerializationError) as caught:
        SpilledGroupBy.attach(tmp_path / "s").top(1)
    assert str(caught.value) == (
        f"{path}: record at offset {offset}: unexpected spill record kind 0x2"
    )
