"""Shared serialization primitives: versioned headers and varints.

Every sketch in the library serializes as::

    magic (2 bytes) | format version (1) | sketch tag (1) | payload

so that ``from_bytes`` can fail loudly on foreign data, and so the exact
serialized sizes reported by the Table 2 / Figure 10 benches are honest
byte counts of a real, round-trippable format (header included, which is
why e.g. ULL(p=10) serializes to 1024 + 8 bytes here; the memory model in
:mod:`repro.simulation.memory` accounts headers separately when comparing
against the paper's payload-only numbers).
"""

from __future__ import annotations

MAGIC = b"\xe1\x1c"  # "ELL-count" magic
FORMAT_VERSION = 1

#: Registry of sketch tags (one byte each).
TAG_EXALOGLOG = 0x01
TAG_EXALOGLOG_MARTINGALE = 0x02
TAG_SPARSE_EXALOGLOG = 0x03
TAG_HYPERLOGLOG = 0x10
TAG_HLL_COMPACT4 = 0x11
TAG_ULTRALOGLOG = 0x12
TAG_EXTENDEDHLL = 0x13
TAG_PCSA = 0x20
TAG_CPC = 0x21
TAG_HLLL = 0x22
TAG_SPIKESKETCH = 0x23
#: Durable-store file tags (see :mod:`repro.store`).
# 0x40 is retired (np.memmap register files); do not reuse it.
TAG_WAL = 0x41
TAG_SNAPSHOT = 0x42
TAG_SPILL = 0x43
# 0x44 is retired (a group-level WAL index); do not reuse it.
TAG_SPILL_META = 0x45


class SerializationError(ValueError):
    """Raised when deserializing malformed or foreign data."""


class IncompleteRecordError(SerializationError):
    """A record's declared length runs past the end of the buffer.

    Distinguished from generic corruption because an append-only log cut
    mid-write (crash, ``kill -9``) legitimately ends in a partial record:
    recovery treats this as "stop at the last complete record", whereas
    any other :class:`SerializationError` (bad magic, bad CRC, unknown
    record kind) means the durable prefix itself is damaged and must not
    be loaded.
    """


def write_header(tag: int) -> bytearray:
    """Return a buffer pre-filled with the common header."""
    buffer = bytearray(MAGIC)
    buffer.append(FORMAT_VERSION)
    buffer.append(tag)
    return buffer


def read_header(data: bytes, expected_tag: int) -> int:
    """Validate the common header, returning the payload offset."""
    if len(data) < 4:
        raise SerializationError("buffer too short to contain a sketch header")
    if data[:2] != MAGIC:
        raise SerializationError("bad magic: not a repro sketch")
    if data[2] != FORMAT_VERSION:
        raise SerializationError(f"unsupported format version {data[2]}")
    if data[3] != expected_tag:
        raise SerializationError(f"sketch tag mismatch: expected {expected_tag:#x}, got {data[3]:#x}")
    return 4


HEADER_SIZE = 4


def write_uvarint(buffer: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint."""
    if value < 0:
        raise ValueError("uvarint value must be non-negative")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buffer.append(byte | 0x80)
        else:
            buffer.append(byte)
            return


def read_uvarint(data: bytes, offset: int) -> tuple[int, int]:
    """Read an unsigned LEB128 varint, returning ``(value, new_offset)``."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise SerializationError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 70:
            raise SerializationError("varint too long")


def read_uvarints(data: bytes, offset: int, count: int):
    """Read ``count`` consecutive uvarints below ``2**64`` in one pass.

    Returns ``(values, new_offset)`` with ``values`` a uint64 NumPy array:
    the vectorised :func:`read_uvarint` for long runs, such as a sparse
    sketch's token deltas. A varint of more than 10 bytes cannot hold a
    64-bit value and is rejected.
    """
    import numpy as np

    if count == 0:
        return np.zeros(0, dtype=np.uint64), offset
    window = np.frombuffer(
        data, dtype=np.uint8, count=min(len(data) - offset, 10 * count), offset=offset
    )
    ends = np.flatnonzero(window < 0x80)[:count]
    if len(ends) < count:
        raise SerializationError(
            "varint too long" if len(window) == 10 * count else "truncated varint"
        )
    if ends[-1] == count - 1:  # every varint is one byte
        return window[:count].astype(np.uint64), offset + count
    starts = np.concatenate(([0], ends[:-1] + 1))
    lengths = ends - starts + 1
    if int(lengths.max()) > 10:
        raise SerializationError("varint too long")
    stop = int(ends[-1]) + 1
    shifts = 7 * (np.arange(stop) - np.repeat(starts, lengths))
    parts = (window[:stop] & 0x7F).astype(np.uint64) << shifts.astype(np.uint64)
    return np.add.reduceat(parts, starts), offset + stop


def write_uvarints(buffer: bytearray, values) -> None:
    """Append each of ``values`` (non-negative, below ``2**64``) as a uvarint.

    The vectorised :func:`write_uvarint`, the inverse of
    :func:`read_uvarints`: one pass however many values there are.
    """
    import numpy as np

    values = np.asarray(values, dtype=np.uint64)
    if not len(values):
        return
    if int(values.max()) < 0x80:
        buffer.extend(values.astype(np.uint8).tobytes())
        return
    sizes = np.ones(len(values), dtype=np.int64)
    rest = values >> np.uint64(7)
    while rest.any():
        sizes += rest > 0
        rest >>= np.uint64(7)
    starts = np.cumsum(sizes) - sizes
    position = np.arange(int(sizes.sum())) - np.repeat(starts, sizes)
    parts = (np.repeat(values, sizes) >> (7 * position).astype(np.uint64)) & np.uint64(0x7F)
    more = position < np.repeat(sizes, sizes) - 1
    buffer.extend((parts.astype(np.uint8) | (more.astype(np.uint8) << 7)).tobytes())


def uvarint_size(value: int) -> int:
    """Number of bytes :func:`write_uvarint` uses for ``value``."""
    if value < 0:
        raise ValueError("uvarint value must be non-negative")
    size = 1
    while value >= 0x80:
        value >>= 7
        size += 1
    return size


# -- checksummed log records ---------------------------------------------------
#
# The durable-store layer (repro.store) appends keyed payloads to files:
# WAL batches, spilled GROUP BY segments. All of them share one record
# framing so a single reader handles every log-structured file:
#
#     kind (1) | uvarint key_len | key | uvarint payload_len | payload
#     | crc32 (4, little-endian, over everything from kind onward)
#
# The trailing CRC makes torn writes detectable: a record is durable iff
# it is complete *and* its checksum matches.


def write_record(buffer: bytearray, kind: int, key: bytes, payload: bytes) -> None:
    """Append one checksummed ``(kind, key, payload)`` record to ``buffer``."""
    import zlib

    if not 0 <= kind <= 0xFF:
        raise ValueError(f"record kind {kind} out of byte range")
    start = len(buffer)
    buffer.append(kind)
    write_uvarint(buffer, len(key))
    buffer.extend(key)
    write_uvarint(buffer, len(payload))
    buffer.extend(payload)
    crc = zlib.crc32(memoryview(buffer)[start:])
    buffer.extend(crc.to_bytes(4, "little"))


def write_lsn_record(
    buffer: bytearray, lsn: int, kind: int, key: bytes, payload: bytes
) -> None:
    """Append one checksummed, LSN-stamped record to ``buffer``.

    The WAL / replication framing: like :func:`write_record` but with the
    log sequence number between the kind byte and the key::

        kind (1) | uvarint lsn | uvarint key_len | key
        | uvarint payload_len | payload | crc32 (4, LE, from kind onward)

    The LSN lives under the CRC, so a shipped record carries its ordinal
    tamper-evidently; followers deduplicate replayed records by it. The
    framing is deterministic: re-encoding a received ``(lsn, kind, key,
    payload)`` reproduces the writer's bytes exactly, which is what makes
    follower WALs byte-comparable to the leader's.
    """
    import zlib

    if not 0 <= kind <= 0xFF:
        raise ValueError(f"record kind {kind} out of byte range")
    start = len(buffer)
    buffer.append(kind)
    write_uvarint(buffer, lsn)
    write_uvarint(buffer, len(key))
    buffer.extend(key)
    write_uvarint(buffer, len(payload))
    buffer.extend(payload)
    crc = zlib.crc32(memoryview(buffer)[start:])
    buffer.extend(crc.to_bytes(4, "little"))


def _zeros_to_end(handle) -> bool:
    """True when every byte from ``handle``'s position to the end is zero."""
    while chunk := handle.read(1 << 16):
        if chunk.strip(b"\x00"):
            return False
    return True


def read_lsn_record_from(handle) -> "tuple[int, int, bytes, bytes] | None":
    """Stream one LSN-stamped record from a binary handle.

    Returns ``(lsn, kind, key, payload)``, or ``None`` at a clean end of
    file. EOF inside the record raises :class:`IncompleteRecordError` —
    for a live WAL being tailed that means "the writer is mid-append";
    the caller seeks back to the record start and retries later.

    So does a record that fails its checksum when the file ends in zero
    bytes that begin inside it, or at its start: the stored CRC's last
    byte and every byte after the record are zero. A power cut that
    persisted a commit's new file size but not its last pages leaves
    that shape, so it is a torn tail, not corruption. A zero run with
    any byte after it that is not zero still raises.
    """
    import zlib

    first = handle.read(1)
    if not first:
        return None
    crc = zlib.crc32(first)
    kind = first[0]

    def read_exact(count: int, what: str) -> bytes:
        nonlocal crc
        data = handle.read(count)
        if len(data) != count:
            raise IncompleteRecordError(f"record {what} runs past end of file")
        crc = zlib.crc32(data, crc)
        return data

    def read_length() -> int:
        result = 0
        shift = 0
        while True:
            byte = read_exact(1, "length varint")[0]
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 70:
                raise SerializationError("varint too long")

    lsn = read_length()
    key = read_exact(read_length(), "key")
    payload = read_exact(read_length(), "payload")
    actual_crc = crc
    stored = handle.read(4)
    if len(stored) != 4:
        raise IncompleteRecordError("record checksum runs past end of file")
    stored_crc = int.from_bytes(stored, "little")
    if stored_crc != actual_crc:
        if stored[3] == 0 and _zeros_to_end(handle):
            raise IncompleteRecordError("record ends in a zero-filled tail")
        raise SerializationError(
            f"record checksum mismatch: stored {stored_crc:#010x}, "
            f"computed {actual_crc:#010x}"
        )
    return lsn, kind, key, payload


def read_record_from(handle) -> "tuple[int, bytes, bytes] | None":
    """Read one record incrementally from a binary file handle.

    Reads the :func:`write_record` framing from files too large to slurp
    (spill partitions): only one record's bytes are resident at a time. Returns ``(kind, key, payload)``, or ``None`` at
    a clean end of file (no bytes left). EOF *inside* a record raises
    :class:`IncompleteRecordError`; a CRC mismatch raises
    :class:`SerializationError`.
    """
    import zlib

    first = handle.read(1)
    if not first:
        return None
    crc = zlib.crc32(first)
    kind = first[0]

    def read_exact(count: int, what: str) -> bytes:
        nonlocal crc
        data = handle.read(count)
        if len(data) != count:
            raise IncompleteRecordError(f"record {what} runs past end of file")
        crc = zlib.crc32(data, crc)
        return data

    def read_length() -> int:
        result = 0
        shift = 0
        while True:
            byte = read_exact(1, "length varint")[0]
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 70:
                raise SerializationError("varint too long")

    key = read_exact(read_length(), "key")
    payload = read_exact(read_length(), "payload")
    actual_crc = crc
    stored = handle.read(4)
    if len(stored) != 4:
        raise IncompleteRecordError("record checksum runs past end of file")
    stored_crc = int.from_bytes(stored, "little")
    if stored_crc != actual_crc:
        raise SerializationError(
            f"record checksum mismatch: stored {stored_crc:#010x}, "
            f"computed {actual_crc:#010x}"
        )
    return kind, key, payload


# -- segments payloads ---------------------------------------------------------
#
# A batch's ``(key, hashes)`` segments under one record (the WAL's and the
# spill's ``RECORD_SEGMENTS``)::
#
#     uvarint segment_count
#     | segment_count x (uvarint key_len, uvarint hash_count)
#     | the keys, concatenated
#     | the hashes as little-endian uint64, concatenated in segment order


def encode_segments(segments) -> bytearray:
    """The segments payload of ``(key bytes, uint64 hashes)`` pairs, in order.

    Every segment holds at least one hash: :func:`segments_layout`
    refuses an empty one.
    """
    import numpy as np

    keys = [key for key, _ in segments]
    arrays = [hashes for _, hashes in segments]
    payload = bytearray()
    write_uvarint(payload, len(keys))
    fields = np.empty(2 * len(keys), dtype=np.uint64)
    fields[0::2] = [len(key) for key in keys]
    fields[1::2] = [len(hashes) for hashes in arrays]
    write_uvarints(payload, fields)
    payload += b"".join(keys)
    hashes = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
    payload += hashes.astype("<u8", copy=False).data
    return payload


def segments_layout(payload: bytes) -> "tuple[int, list[int], list[int]]":
    """Check a segments payload; return ``(keys_at, key_ends, hash_ends)``.

    ``keys_at`` is the offset of the keys block, and the ends are
    cumulative: segment ``i``'s key is ``keys[key_ends[i-1]:key_ends[i]]``
    of that block, its hashes the same slice of the hash block that
    follows it. Raises :class:`SerializationError` for a payload that
    holds no segment, a segment that holds no hash, a key that runs past
    the keys block, or counts that do not add up to the payload length.
    The header decodes in one :func:`read_uvarints` call.
    """
    import numpy as np

    count, offset = read_uvarint(payload, 0)
    if not count:
        raise SerializationError("segments record holds no segment")
    fields, offset = read_uvarints(payload, offset, 2 * count)
    key_lengths, hash_counts = fields[0::2], fields[1::2]
    body = len(payload) - offset
    # Each count is bounded before the sums, so they cannot wrap.
    if int(hash_counts.max()) > body // 8 or int(key_lengths.max()) > body:
        raise SerializationError(
            f"segment counts run past the {len(payload)}-byte payload"
        )
    hash_ends = np.cumsum(hash_counts)
    keys_size = body - 8 * int(hash_ends[-1])
    if keys_size < 0:
        raise SerializationError(
            f"{int(hash_ends[-1])} hashes run past the {len(payload)}-byte payload"
        )
    key_ends = np.cumsum(key_lengths)
    if int(key_ends[-1]) > keys_size:
        index = int(np.flatnonzero(key_ends > keys_size)[0])
        raise SerializationError(
            f"key of segment {index} runs past the {keys_size}-byte keys block"
        )
    if int(key_ends[-1]) != keys_size:
        raise SerializationError(
            f"segment counts do not add up to the {len(payload)}-byte payload "
            f"({keys_size - int(key_ends[-1])} bytes unclaimed)"
        )
    empty = np.flatnonzero(hash_counts == 0)
    if len(empty):
        raise SerializationError(f"segment {int(empty[0])} holds no hash")
    return offset, key_ends.tolist(), hash_ends.tolist()


def decode_segments(payload: bytes, layout=None) -> list:
    """The ``(key, hashes)`` segments of a payload :func:`segments_layout` accepts.

    ``layout`` is the payload's :func:`segments_layout`, when a record
    check already parsed it; the header is parsed here otherwise. The
    hashes decode with one ``np.frombuffer`` (copied once if the block
    is unaligned), and each segment's hashes are a slice of it.
    """
    import numpy as np

    keys_at, key_ends, hash_ends = layout or segments_layout(payload)
    hashes_at = keys_at + key_ends[-1]
    keys = bytes(payload[keys_at:hashes_at])
    hashes = np.frombuffer(payload, dtype="<u8", count=hash_ends[-1], offset=hashes_at)
    if not hashes.flags.aligned:
        hashes = hashes.copy()
    return [
        (keys[key_start:key_end], hashes[hash_start:hash_end])
        for key_start, key_end, hash_start, hash_end in zip(
            [0, *key_ends], key_ends, [0, *hash_ends], hash_ends
        )
    ]
