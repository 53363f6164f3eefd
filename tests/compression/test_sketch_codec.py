"""Compressed sketch serialization (Sec. 6 feature)."""

import numpy as np
import pytest

from repro.backends import exaloglog_state
from repro.compression.sketch_codec import (
    compress_sketch,
    compression_ratio,
    decompress_sketch,
)
from repro.core.exaloglog import ExaLogLog
from repro.core.params import make_params
from repro.storage.serialization import SerializationError


def filled(t, d, p, n, seed=1):
    params = make_params(t, d, p)
    rng = np.random.Generator(np.random.PCG64(seed))
    hashes = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
    return ExaLogLog.from_registers(params, exaloglog_state(hashes, params))


class TestRoundtrip:
    @pytest.mark.parametrize(
        "t,d,p,n",
        [(2, 20, 8, 0), (2, 20, 8, 50_000), (1, 9, 6, 3000), (0, 2, 10, 10_000),
         (2, 24, 6, 500)],
    )
    def test_lossless(self, t, d, p, n):
        sketch = filled(t, d, p, n)
        assert decompress_sketch(compress_sketch(sketch)) == sketch

    def test_explicit_hint_lossless(self):
        sketch = filled(2, 16, 6, 2000)
        blob = compress_sketch(sketch, n_hint=13.0)  # terrible hint
        assert decompress_sketch(blob) == sketch

    def test_rejects_plain_format(self):
        sketch = filled(2, 20, 4, 100)
        with pytest.raises(SerializationError):
            decompress_sketch(sketch.to_bytes())

    def test_truncated(self):
        blob = compress_sketch(filled(2, 20, 4, 100))
        with pytest.raises((SerializationError, Exception)):
            decompress_sketch(blob[:6])


class TestCompressionWin:
    def test_smaller_than_dense_at_scale(self):
        sketch = filled(2, 20, 8, 100_000)
        assert compression_ratio(sketch) < 0.9

    def test_empty_sketch_compresses_hard(self):
        sketch = ExaLogLog(2, 20, 8)
        assert compression_ratio(sketch) < 0.1

    def test_ratio_direction_matches_figure6(self):
        """Figure 6 predicts ~40 % savings for ELL(2,20) under optimal
        coding (MVP 3.67 -> 2.21); the simple per-bit model should get a
        meaningful part of the way there."""
        sketch = filled(2, 20, 8, 200_000, seed=7)
        assert compression_ratio(sketch) < 0.85
