"""Vectorised batch insertion must equal sequential Algorithm 2."""

import numpy as np
import pytest

from repro.backends import (
    exaloglog_state,
    hyperloglog_state,
    nlz64_array,
    ntz64_array,
    pcsa_state,
    spikesketch_state,
    split_hashes,
)
from repro.baselines.hyperloglog import HyperLogLog
from repro.baselines.pcsa import PCSA
from repro.baselines.spikesketch import SpikeSketch
from repro.core.exaloglog import ExaLogLog
from repro.core.params import make_params
from tests.conftest import SMALL_PARAMS


def hashes_for(seed: int, count: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 1 << 64, size=count, dtype=np.uint64)


class TestBitPrimitives:
    def test_nlz_matches_scalar(self):
        values = np.array(
            [0, 1, 2, 0b10110, 1 << 63, (1 << 64) - 1, 12345678901234567],
            dtype=np.uint64,
        )
        expected = [64 - int(v).bit_length() for v in values]
        assert nlz64_array(values).tolist() == expected

    def test_ntz_matches_scalar(self):
        values = np.array([0, 1, 2, 8, 1 << 63, 0xF0], dtype=np.uint64)
        def scalar_ntz(x):
            x = int(x)
            return 64 if x == 0 else (x & -x).bit_length() - 1
        assert ntz64_array(values).tolist() == [scalar_ntz(v) for v in values]

    def test_random_agreement(self):
        values = hashes_for(1, 5000)
        nlz = nlz64_array(values)
        for i in range(0, 5000, 271):
            assert nlz[i] == 64 - int(values[i]).bit_length()


class TestSplitHashes:
    @pytest.mark.parametrize("params", SMALL_PARAMS[:6], ids=str)
    def test_matches_scalar_split(self, params):
        from repro.core.distribution import update_value_from_hash

        hashes = hashes_for(2, 2000)
        index, k = split_hashes(hashes, params)
        for i in range(0, 2000, 97):
            expected = update_value_from_hash(int(hashes[i]), params)
            assert (int(index[i]), int(k[i])) == expected


class TestExaLogLogState:
    @pytest.mark.parametrize("params", SMALL_PARAMS, ids=str)
    def test_matches_sequential(self, params):
        hashes = hashes_for(3, 4000)
        sequential = ExaLogLog.from_params(params)
        for h in hashes.tolist():
            sequential.add_hash(h)
        assert exaloglog_state(hashes, params) == list(sequential.registers)

    def test_empty_batch(self):
        params = make_params(2, 20, 4)
        assert exaloglog_state(np.empty(0, dtype=np.uint64), params) == [0] * 16

    def test_hashes_with_leading_zero_runs(self):
        """Small integer 'hashes' hit the NLZ saturation paths."""
        params = make_params(2, 8, 4)
        hashes = np.arange(0, 500, dtype=np.uint64)
        sequential = ExaLogLog.from_params(params)
        for h in hashes.tolist():
            sequential.add_hash(h)
        assert exaloglog_state(hashes, params) == list(sequential.registers)


class TestBaselineStates:
    def test_hyperloglog_matches_sequential(self):
        hashes = hashes_for(4, 3000)
        sequential = HyperLogLog(p=8)
        for h in hashes.tolist():
            sequential.add_hash(h)
        assert hyperloglog_state(hashes, 8) == list(sequential.registers)

    def test_pcsa_matches_sequential(self):
        hashes = hashes_for(5, 3000)
        sequential = PCSA(p=6)
        for h in hashes.tolist():
            sequential.add_hash(h)
        assert pcsa_state(hashes, 6) == list(sequential.bitmaps)

    def test_spikesketch_matches_sequential(self):
        hashes = hashes_for(6, 3000)
        sequential = SpikeSketch(64)
        for h in hashes.tolist():
            sequential.add_hash(h)
        assert spikesketch_state(hashes, 64) == list(sequential._registers)
