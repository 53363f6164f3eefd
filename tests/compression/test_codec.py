"""Model-based codecs: lossless round-trips and useful rates."""

import numpy as np
import pytest

from repro.backends import exaloglog_state, pcsa_state
from repro.baselines.pcsa import PCSA
from repro.compression.codec import (
    compress_bitmaps,
    compress_registers,
    decompress_bitmaps,
    decompress_registers,
)
from repro.compression.entropy import theoretical_compressed_bytes
from repro.core.params import make_params


def hashes_for(seed, count):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 1 << 64, size=count, dtype=np.uint64)


class TestBitmapCodec:
    @pytest.mark.parametrize("n", [0, 100, 5000, 50000])
    def test_lossless(self, n):
        p = 8
        sketch = PCSA(p)
        sketch._bitmaps = pcsa_state(hashes_for(n + 1, n), p)
        level_probs = [sketch.level_probability(k) for k in range(sketch.levels)]
        n_hint = max(float(n), 1.0)
        data = compress_bitmaps(sketch.bitmaps, level_probs, n_hint)
        assert decompress_bitmaps(data, sketch.m, level_probs) == list(sketch.bitmaps)

    def test_wrong_hint_still_lossless(self):
        """A bad n hint costs bits but never correctness."""
        p = 6
        sketch = PCSA(p)
        sketch._bitmaps = pcsa_state(hashes_for(5, 2000), p)
        level_probs = [sketch.level_probability(k) for k in range(sketch.levels)]
        good = compress_bitmaps(sketch.bitmaps, level_probs, 2000.0)
        bad = compress_bitmaps(sketch.bitmaps, level_probs, 5.0)
        assert decompress_bitmaps(bad, sketch.m, level_probs) == list(sketch.bitmaps)
        assert len(bad) > len(good)

    def test_compression_beats_raw(self):
        p = 10
        sketch = PCSA(p)
        sketch._bitmaps = pcsa_state(hashes_for(6, 100000), p)
        level_probs = [sketch.level_probability(k) for k in range(sketch.levels)]
        data = compress_bitmaps(sketch.bitmaps, level_probs, 100000.0)
        assert len(data) < sketch.bitmap_bytes / 5


class TestRegisterCodec:
    """The Sec. 6 future-work feature: entropy coding of ELL registers."""

    @pytest.mark.parametrize(
        "t,d,p,n",
        [(2, 6, 4, 0), (2, 6, 4, 1000), (1, 9, 6, 20000), (2, 16, 6, 5000), (0, 2, 8, 3000)],
    )
    def test_lossless(self, t, d, p, n):
        params = make_params(t, d, p)
        registers = exaloglog_state(hashes_for(n + 7, n), params)
        data = compress_registers(registers, params, max(float(n), 1.0))
        assert decompress_registers(data, params) == registers

    def test_beats_dense_array(self):
        params = make_params(2, 20, 8)
        n = 50000
        registers = exaloglog_state(hashes_for(8, n), params)
        data = compress_registers(registers, params, float(n))
        assert len(data) < params.dense_bytes

    def test_near_entropy_bound(self):
        """Within ~35 % of the Shannon bound (simple per-bit model)."""
        params = make_params(2, 6, 8)  # small d so the bound is computable
        n = 20000
        registers = exaloglog_state(hashes_for(9, n), params)
        data = compress_registers(registers, params, float(n))
        bound = theoretical_compressed_bytes(float(n), params)
        assert len(data) <= bound * 1.35 + 24

    def test_wrong_hint_lossless(self):
        params = make_params(2, 16, 4)
        registers = exaloglog_state(hashes_for(10, 3000), params)
        data = compress_registers(registers, params, 10.0)
        assert decompress_registers(data, params) == registers
