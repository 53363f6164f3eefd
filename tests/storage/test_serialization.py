"""Header and varint primitives."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage.serialization import (
    HEADER_SIZE,
    SerializationError,
    TAG_EXALOGLOG,
    TAG_HYPERLOGLOG,
    read_header,
    read_uvarint,
    read_uvarints,
    uvarint_size,
    write_header,
    write_uvarint,
    write_uvarints,
)


class TestHeader:
    def test_roundtrip(self):
        buffer = write_header(TAG_EXALOGLOG)
        assert read_header(bytes(buffer), TAG_EXALOGLOG) == HEADER_SIZE

    def test_wrong_tag(self):
        buffer = bytes(write_header(TAG_EXALOGLOG))
        with pytest.raises(SerializationError):
            read_header(buffer, TAG_HYPERLOGLOG)

    def test_bad_magic(self):
        with pytest.raises(SerializationError):
            read_header(b"\x00\x00\x01\x01", TAG_EXALOGLOG)

    def test_truncated(self):
        with pytest.raises(SerializationError):
            read_header(b"\xe1", TAG_EXALOGLOG)

    def test_bad_version(self):
        buffer = bytearray(write_header(TAG_EXALOGLOG))
        buffer[2] = 99
        with pytest.raises(SerializationError):
            read_header(bytes(buffer), TAG_EXALOGLOG)


class TestUvarint:
    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_roundtrip(self, value):
        buffer = bytearray()
        write_uvarint(buffer, value)
        decoded, offset = read_uvarint(bytes(buffer), 0)
        assert decoded == value
        assert offset == len(buffer)
        assert uvarint_size(value) == len(buffer)

    def test_one_byte_boundary(self):
        assert uvarint_size(127) == 1
        assert uvarint_size(128) == 2

    def test_sequence(self):
        buffer = bytearray()
        for value in (0, 1, 300, 70000):
            write_uvarint(buffer, value)
        offset = 0
        decoded = []
        for _ in range(4):
            value, offset = read_uvarint(bytes(buffer), offset)
            decoded.append(value)
        assert decoded == [0, 1, 300, 70000]

    def test_truncated(self):
        with pytest.raises(SerializationError):
            read_uvarint(b"\x80", 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            write_uvarint(bytearray(), -1)


class TestUvarintRuns:
    @given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), max_size=40))
    def test_equals_one_varint_at_a_time(self, values):
        buffer = bytearray(b"\x07")  # a leading byte: reads start at offset 1
        for value in values:
            write_uvarint(buffer, value)
        buffer.extend(b"\xff\xff")  # trailing bytes stay unread
        decoded, offset = read_uvarints(bytes(buffer), 1, len(values))
        expected_offset = 1
        expected = []
        for _ in values:
            value, expected_offset = read_uvarint(bytes(buffer), expected_offset)
            expected.append(value)
        assert decoded.tolist() == expected == values
        assert offset == expected_offset

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), max_size=40))
    def test_writing_a_run_equals_one_varint_at_a_time(self, values):
        import numpy as np

        expected = bytearray(b"\x07")
        for value in values:
            write_uvarint(expected, value)
        buffer = bytearray(b"\x07")
        write_uvarints(buffer, np.array(values, dtype=np.uint64))
        assert buffer == expected

    def test_truncated_run(self):
        buffer = bytearray()
        write_uvarint(buffer, 300)
        with pytest.raises(SerializationError, match="truncated"):
            read_uvarints(bytes(buffer) + b"\x80", 0, 2)

    def test_varint_longer_than_ten_bytes(self):
        with pytest.raises(SerializationError, match="too long"):
            read_uvarints(b"\xff" * 11 + b"\x01", 0, 1)
