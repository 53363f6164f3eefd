"""Truncated/corrupted-WAL fuzz: recovery must never load garbage.

The acceptance contract: a WAL cut at *any* byte offset must either
recover cleanly to the last complete record or raise
``SerializationError`` — the recovered state is always one of the exact
prefix states, never an in-between or corrupted one.
"""

import io
import shutil

import numpy as np
import pytest

from repro.aggregate import DistinctCountAggregator
from repro.storage.serialization import SerializationError, read_lsn_record_from
from repro.store import FollowerStore, SketchStore, SnapshotReader, WalShipper
from repro.store.sketchstore import _FILE_HEADER_BYTES
from tests.invariants.harness import ScalarOracle


def _hashes(seed, count):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 1 << 64, size=count, dtype=np.uint64)


#: A few small batches so the WAL stays a few hundred bytes and the fuzz
#: can afford to cut at every single offset.
BATCHES = [
    ("DE", _hashes(1, 9)),
    ("AT", _hashes(2, 4)),
    ("DE", _hashes(3, 7)),
    ("CH", _hashes(4, 1)),
]


def _prefix_states():
    """Serialized aggregator state after each durable prefix of BATCHES."""
    states = []
    oracle = ScalarOracle(2, 20, 8)
    states.append(oracle.to_bytes())
    for group, hashes in BATCHES:
        oracle.add_hashes(group, hashes)
        states.append(oracle.to_bytes())
    return states


@pytest.fixture
def populated_store(tmp_path):
    store = SketchStore.open(tmp_path / "origin")
    for group, hashes in BATCHES:
        store.append_hashes(group, hashes)
    store.close()
    return tmp_path / "origin"


def _record_boundaries(wal_bytes):
    """Offsets at which a record ends (including the file header)."""
    handle = io.BytesIO(wal_bytes)
    handle.seek(_FILE_HEADER_BYTES)
    boundaries = [_FILE_HEADER_BYTES]
    while read_lsn_record_from(handle) is not None:
        boundaries.append(handle.tell())
    return boundaries


def test_truncation_at_every_offset(populated_store, tmp_path):
    wal_path = populated_store / "wal-00000000.log"
    wal_bytes = wal_path.read_bytes()
    boundaries = _record_boundaries(wal_bytes)
    assert len(boundaries) == len(BATCHES) + 1
    prefix_states = _prefix_states()

    for cut in range(len(wal_bytes) + 1):
        target = tmp_path / f"cut-{cut}"
        shutil.copytree(populated_store, target)
        (target / "wal-00000000.log").write_bytes(wal_bytes[:cut])
        if cut < _FILE_HEADER_BYTES:
            # Even the file header is gone: must refuse, not guess.
            with pytest.raises(SerializationError):
                SketchStore.open(target)
            continue
        # Complete records below the cut — the exact durable prefix.
        durable = max(i for i, end in enumerate(boundaries) if end <= cut)
        store = SketchStore.open(target)
        assert store.aggregator.to_bytes() == prefix_states[durable], (
            f"cut at {cut}: recovered state is not the {durable}-record prefix"
        )
        assert store.wal_records == durable
        # The torn tail must have been truncated so appends stay valid.
        store.append_hashes("post", _hashes(99, 3))
        store.close()
        reopened = SketchStore.open(target)
        assert reopened.wal_records == durable + 1
        reopened.close()
        shutil.rmtree(target)


def test_byte_flip_never_loads_garbage(populated_store, tmp_path):
    wal_path = populated_store / "wal-00000000.log"
    wal_bytes = bytearray(wal_path.read_bytes())
    prefix_states = set(_prefix_states())

    # Flip every byte of the second record (covers kind, lengths, key,
    # payload and CRC positions) and every byte of the file header.
    boundaries = _record_boundaries(bytes(wal_bytes))
    flip_range = list(range(0, _FILE_HEADER_BYTES)) + list(
        range(boundaries[1], boundaries[2])
    )
    for position in flip_range:
        mutated = bytearray(wal_bytes)
        mutated[position] ^= 0x5A
        target = tmp_path / f"flip-{position}"
        shutil.copytree(populated_store, target)
        (target / "wal-00000000.log").write_bytes(bytes(mutated))
        try:
            store = SketchStore.open(target)
        except SerializationError as error:
            # Refusing corrupt data is always acceptable, if it says where.
            assert str(target / "wal-00000000.log") in str(error), (
                f"flip at {position}: {error}"
            )
        else:
            # If recovery succeeded it must be an exact prefix state —
            # e.g. a flipped length made the tail look torn.
            assert store.aggregator.to_bytes() in prefix_states
            store.close()
        shutil.rmtree(target)


def test_bad_record_names_the_file_and_offset(populated_store, tmp_path):
    """Every WAL record loop names the file and the bad record's offset."""
    wal_path = populated_store / "wal-00000000.log"
    wal_bytes = bytearray(wal_path.read_bytes())
    boundaries = _record_boundaries(bytes(wal_bytes))
    wal_bytes[boundaries[2] - 1] ^= 0x5A  # last CRC byte of the second record
    wal_path.write_bytes(bytes(wal_bytes))

    def ship(directory):
        with FollowerStore.open(tmp_path / "replica") as follower:
            WalShipper(directory).sync(follower)

    openers = {
        "writer": SketchStore.open,
        "read-only": lambda directory: SketchStore.open(directory, read_only=True),
        "reader": SnapshotReader.open,
        "shipper": ship,
    }
    for name, opener in openers.items():
        with pytest.raises(SerializationError) as caught:
            opener(populated_store)
        message = str(caught.value)
        assert message.startswith(
            f"{wal_path}: record at offset {boundaries[1]}: "
        ), f"{name}: {message}"
        assert "checksum mismatch" in message, f"{name}: {message}"
    assert wal_path.read_bytes() == wal_bytes  # no opener cut the bad record


def test_wal_cut_to_header_only_recovers_snapshot(populated_store):
    wal_path = populated_store / "wal-00000000.log"
    wal_path.write_bytes(wal_path.read_bytes()[:_FILE_HEADER_BYTES])
    store = SketchStore.open(populated_store)
    assert store.wal_records == 0
    assert len(store) == 0
    store.close()
