"""Sparse-mode ExaLogLog (paper Sec. 4.3)."""

import pytest

from repro.core.exaloglog import ExaLogLog
from repro.core.params import make_params
from repro.core.sparse import SparseExaLogLog
from repro.storage.serialization import SerializationError
from tests.conftest import random_hashes


def dense_reference(params, hashes):
    sketch = ExaLogLog.from_params(params)
    for h in hashes:
        sketch.add_hash(h)
    return sketch


class TestModes:
    def test_starts_sparse(self):
        sketch = SparseExaLogLog(2, 20, 8)
        assert sketch.is_sparse
        assert sketch.token_count == 0
        assert sketch.memory_bytes < 100

    def test_break_even_point(self):
        sketch = SparseExaLogLog(2, 20, 8, v=26)
        # dense array is 896 bytes; tokens are 4 bytes -> 224 tokens.
        assert sketch.break_even_tokens == 224

    def test_transition_happens(self):
        sketch = SparseExaLogLog(2, 20, 8)
        for h in random_hashes(1, 1000):
            sketch.add_hash(h)
        assert not sketch.is_sparse

    def test_transition_is_lossless(self):
        params = make_params(2, 20, 8)
        hashes = random_hashes(2, 5000)
        sparse = SparseExaLogLog(2, 20, 8)
        for h in hashes:
            sparse.add_hash(h)
        assert sparse.densify() == dense_reference(params, hashes)

    def test_forced_densify_small(self):
        params = make_params(2, 20, 8)
        hashes = random_hashes(3, 10)
        sparse = SparseExaLogLog(2, 20, 8)
        for h in hashes:
            sparse.add_hash(h)
        assert sparse.is_sparse
        assert sparse.densify() == dense_reference(params, hashes)

    def test_v_must_cover_p_plus_t(self):
        with pytest.raises(ValueError):
            SparseExaLogLog(2, 20, 8, v=9)  # p + t = 10 > 9

    def test_memory_grows_then_caps(self):
        sketch = SparseExaLogLog(2, 20, 8)
        sizes = []
        for h in random_hashes(4, 400):
            sketch.add_hash(h)
            sizes.append(sketch.memory_bytes)
        assert max(sizes) <= 16 + sketch.params.dense_bytes
        assert sizes[0] < sizes[50] < max(sizes)


class TestEstimation:
    @pytest.mark.parametrize("n", [0, 1, 10, 100, 200])
    def test_sparse_estimates(self, n):
        sketch = SparseExaLogLog(2, 20, 8)
        for h in random_hashes(n + 5, n):
            sketch.add_hash(h)
        assert sketch.estimate() == pytest.approx(n, rel=0.05, abs=1.0)

    def test_dense_estimates(self):
        n = 20000
        sketch = SparseExaLogLog(2, 20, 8)
        for h in random_hashes(6, n):
            sketch.add_hash(h)
        assert sketch.estimate() == pytest.approx(n, rel=0.12)

    def test_duplicates_ignored(self):
        sketch = SparseExaLogLog(2, 20, 8)
        h = 0x123456789ABCDEF0
        assert sketch.add_hash(h) is True
        assert sketch.add_hash(h) is False
        assert sketch.token_count == 1


class TestMerge:
    def test_sparse_sparse(self):
        a = SparseExaLogLog(2, 20, 8)
        b = SparseExaLogLog(2, 20, 8)
        hashes = random_hashes(7, 100)
        for h in hashes[:60]:
            a.add_hash(h)
        for h in hashes[40:]:
            b.add_hash(h)
        merged = a.merge(b)
        assert merged.estimate() == pytest.approx(100, rel=0.05, abs=2)

    def test_sparse_sparse_transitions_when_large(self):
        a = SparseExaLogLog(2, 20, 8)
        b = SparseExaLogLog(2, 20, 8)
        for h in random_hashes(8, 200):
            a.add_hash(h)
        for h in random_hashes(9, 200):
            b.add_hash(h)
        merged = a.merge(b)
        assert not merged.is_sparse

    def test_sparse_dense(self):
        params = make_params(2, 20, 8)
        hashes = random_hashes(10, 3000)
        sparse = SparseExaLogLog(2, 20, 8)
        for h in hashes[:100]:
            sparse.add_hash(h)
        dense = dense_reference(params, hashes[100:])
        merged = sparse.merge(dense)
        assert merged.densify() == dense_reference(params, hashes)

    def test_merge_equals_union_end_to_end(self):
        hashes = random_hashes(11, 2000)
        a = SparseExaLogLog(2, 20, 8)
        b = SparseExaLogLog(2, 20, 8)
        u = SparseExaLogLog(2, 20, 8)
        for h in hashes[:1200]:
            a.add_hash(h)
            u.add_hash(h)
        for h in hashes[1000:]:
            b.add_hash(h)
            u.add_hash(h)
        assert a.merge(b).densify() == u.densify()

    def test_parameter_mismatch(self):
        with pytest.raises(ValueError):
            SparseExaLogLog(2, 20, 8).merge(SparseExaLogLog(2, 20, 9))

    def test_foreign_type(self):
        with pytest.raises(TypeError):
            SparseExaLogLog(2, 20, 8).merge(42)  # type: ignore[arg-type]


class TestSerialization:
    def test_sparse_roundtrip(self):
        sketch = SparseExaLogLog(2, 20, 8)
        for h in random_hashes(12, 100):
            sketch.add_hash(h)
        restored = SparseExaLogLog.from_bytes(sketch.to_bytes())
        assert restored == sketch
        assert restored.is_sparse

    def test_sparse_roundtrip_64_bit_tokens(self):
        sketch = SparseExaLogLog(2, 20, 8, v=58)
        for h in random_hashes(15, 100):
            sketch.add_hash(h)
        assert max(sketch.tokens) >= 1 << 63
        restored = SparseExaLogLog.from_bytes(sketch.to_bytes())
        assert restored == sketch

    def test_truncated_token_run(self):
        sketch = SparseExaLogLog(2, 20, 8)
        for h in random_hashes(16, 100):
            sketch.add_hash(h)
        with pytest.raises(SerializationError, match="truncated varint"):
            SparseExaLogLog.from_bytes(sketch.to_bytes()[:-1])

    def test_dense_roundtrip(self):
        sketch = SparseExaLogLog(2, 20, 8)
        for h in random_hashes(13, 2000):
            sketch.add_hash(h)
        restored = SparseExaLogLog.from_bytes(sketch.to_bytes())
        assert restored == sketch
        assert not restored.is_sparse

    def test_sparse_serialization_is_compact(self):
        sketch = SparseExaLogLog(2, 20, 8)
        for h in random_hashes(14, 50):
            sketch.add_hash(h)
        # Delta-varint coding: well under 4 bytes per token + header.
        assert len(sketch.to_bytes()) < 50 * 4 + 16

    def test_truncated(self):
        sketch = SparseExaLogLog(2, 20, 8)
        sketch.add_hash(12345)
        with pytest.raises(SerializationError):
            SparseExaLogLog.from_bytes(sketch.to_bytes()[:5])

    def test_copy_independence(self):
        a = SparseExaLogLog(2, 20, 8)
        a.add_hash(1)
        b = a.copy()
        b.add_hash(2)
        assert a != b
