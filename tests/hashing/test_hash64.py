"""Tests for the hash64 dispatcher and object encoding."""

import pytest

from repro.hashing import hash64, to_bytes


class TestToBytes:
    def test_bytes_passthrough(self):
        assert to_bytes(b"abc") == b"abc"

    def test_bytearray(self):
        assert to_bytes(bytearray(b"abc")) == b"abc"

    def test_str_utf8(self):
        assert to_bytes("héllo") == "héllo".encode("utf-8")

    def test_int_fixed_width(self):
        assert to_bytes(1) == (1).to_bytes(8, "little", signed=True)

    def test_negative_int(self):
        assert to_bytes(-1) == (-1).to_bytes(8, "little", signed=True)

    def test_int_and_str_differ(self):
        assert to_bytes(1) != to_bytes("1")

    def test_bool_distinct_from_int(self):
        assert to_bytes(True) != to_bytes(1)

    def test_float(self):
        assert len(to_bytes(3.14)) == 8

    def test_rejects_unsupported(self):
        with pytest.raises(TypeError):
            to_bytes(["list"])

    def test_numpy_scalars_encode_like_their_python_value(self):
        import numpy as np

        from repro.hashing.batch import hash_items

        assert to_bytes(np.int64(5)) == to_bytes(5)
        assert to_bytes(np.uint64(2**63)) == to_bytes(2**63)
        assert to_bytes(np.int8(-1)) == to_bytes(-1)
        assert to_bytes(np.bool_(True)) == to_bytes(True)
        assert to_bytes(np.float64(0.5)) == to_bytes(0.5)
        assert to_bytes(np.str_("DE")) == b"DE"
        assert hash64(np.int64(5)) == int(hash_items(np.array([5]), 0)[0])


class TestHash64:
    def test_deterministic(self):
        assert hash64("user-42") == hash64("user-42")

    def test_seed_sensitivity(self):
        assert hash64("user-42", 0) != hash64("user-42", 1)

    def test_algorithm_selection(self):
        assert hash64(b"x", algorithm="murmur3") != hash64(b"x", algorithm="xxhash64")

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            hash64(b"x", algorithm="md5")

    def test_range(self):
        for i in range(100):
            assert 0 <= hash64(i) < 1 << 64
