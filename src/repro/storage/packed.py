"""Dense arrays of fixed-width registers.

The paper stores registers "densely packed in a bit array" — e.g. two
28-bit ELL(2, 20) registers per 7 bytes, 6-bit HyperLogLog registers at
4/3 bytes per register pair, 3-bit HyperLogLogLog registers, and so on.

:class:`PackedArray` reproduces that layout exactly. The hot paths of the
sketches keep registers in a plain Python list (CPython attribute/array
access dominates bit twiddling anyway — see DESIGN.md), and use this class
for the serialized representation, whose byte sizes therefore match the
paper's serialization-size accounting bit for bit.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator


class PackedArray:
    """Fixed-length array of ``count`` unsigned integers of ``width`` bits.

    The layout is MSB-first: register 0 occupies the highest-order bits of
    byte 0. The total storage is ``ceil(count * width / 8)`` bytes; the
    final partial byte, if any, is zero-padded.
    """

    __slots__ = ("_count", "_data", "_width")

    def __init__(self, width: int, count: int, data: bytearray | None = None) -> None:
        # Up to 128 bits: ELL(0, 64) — the PCSA-information-equivalent
        # configuration of Sec. 2.5 — needs 70-bit registers.
        if not 1 <= width <= 128:
            raise ValueError(f"register width must be in [1, 128], got {width}")
        if count < 0:
            raise ValueError("count must be non-negative")
        self._width = width
        self._count = count
        needed = (width * count + 7) // 8
        if data is None:
            self._data = bytearray(needed)
        else:
            if len(data) != needed:
                raise ValueError(f"expected {needed} bytes for {count}x{width}-bit, got {len(data)}")
            self._data = bytearray(data)

    @property
    def width(self) -> int:
        """Bits per register."""
        return self._width

    @property
    def count(self) -> int:
        """Number of registers."""
        return self._count

    @property
    def byte_size(self) -> int:
        """Exact storage footprint in bytes."""
        return len(self._data)

    def __len__(self) -> int:
        return self._count

    def _check_index(self, index: int) -> int:
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError(f"register index {index} out of range for {self._count} registers")
        return index

    def __getitem__(self, index: int) -> int:
        index = self._check_index(index)
        width = self._width
        bit_start = index * width
        byte_start, bit_offset = divmod(bit_start, 8)
        span = (bit_offset + width + 7) // 8
        window = int.from_bytes(self._data[byte_start : byte_start + span], "big")
        shift = span * 8 - bit_offset - width
        return (window >> shift) & ((1 << width) - 1)

    def __setitem__(self, index: int, value: int) -> None:
        index = self._check_index(index)
        width = self._width
        if value < 0 or value.bit_length() > width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        bit_start = index * width
        byte_start, bit_offset = divmod(bit_start, 8)
        span = (bit_offset + width + 7) // 8
        window = int.from_bytes(self._data[byte_start : byte_start + span], "big")
        shift = span * 8 - bit_offset - width
        mask = ((1 << width) - 1) << shift
        window = (window & ~mask) | (value << shift)
        self._data[byte_start : byte_start + span] = window.to_bytes(span, "big")

    def __iter__(self) -> Iterator[int]:
        for i in range(self._count):
            yield self[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedArray):
            return NotImplemented
        return (
            self._width == other._width
            and self._count == other._count
            and self._data == other._data
        )

    def __repr__(self) -> str:
        return f"PackedArray(width={self._width}, count={self._count})"

    def to_bytes(self) -> bytes:
        """Return the raw packed representation."""
        return bytes(self._data)

    def to_list(self) -> list[int]:
        """Unpack all registers into a list (bulk path, faster than per-item).

        Registers of up to 63 bits unpack in NumPy: the MSB-first bit
        string, one row of ``width`` bits per register, times the bit
        weights. Wider ones shift one big integer per register.
        """
        width = self._width
        count = self._count
        if count == 0:
            return []
        if width <= 63:
            import numpy as np

            data = np.frombuffer(self._data, dtype=np.uint8)
            bits = np.unpackbits(data, count=count * width).reshape(count, width)
            weights = np.left_shift(1, np.arange(width - 1, -1, -1, dtype=np.int64))
            return (bits @ weights).tolist()
        window = int.from_bytes(self._data, "big")
        total_bits = len(self._data) * 8
        mask = (1 << width) - 1
        return [
            (window >> (total_bits - (i + 1) * width)) & mask for i in range(count)
        ]

    @classmethod
    def from_bytes(cls, width: int, count: int, data: bytes) -> "PackedArray":
        """Rebuild a packed array from its raw representation."""
        return cls(width, count, bytearray(data))

    @classmethod
    def from_values(cls, width: int, values: Iterable[int]) -> "PackedArray":
        """Pack an iterable of register values (bulk path)."""
        values = list(values)
        count = len(values)
        array = cls(width, count)
        if count == 0:
            return array
        mask = (1 << width) - 1
        window = 0
        for value in values:
            if value < 0 or value > mask:
                raise ValueError(f"value {value} does not fit in {width} bits")
            window = (window << width) | value
        pad = len(array._data) * 8 - count * width
        window <<= pad
        array._data[:] = window.to_bytes(len(array._data), "big")
        return array
