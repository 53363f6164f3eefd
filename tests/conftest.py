"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import random

import pytest

from repro.core.params import make_params


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG; reseed per test for reproducibility."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def fsynced_inodes(monkeypatch) -> list[int]:
    """Inode of every file ``os.fsync`` is called on, in call order."""
    inodes: list[int] = []
    real = os.fsync

    def recording(fd):
        inodes.append(os.fstat(fd).st_ino)
        real(fd)

    monkeypatch.setattr(os, "fsync", recording)
    return inodes


@pytest.fixture
def slice_counts(monkeypatch) -> list[int]:
    """Slice count of every ``ParallelBulkIngestor`` fold, in call order."""
    from repro.parallel import ParallelBulkIngestor

    counts: list[int] = []
    real = ParallelBulkIngestor.slice_bounds

    def recording(self, n):
        bounds = real(self, n)
        counts.append(len(bounds))
        return bounds

    monkeypatch.setattr(ParallelBulkIngestor, "slice_bounds", recording)
    return counts


@pytest.fixture
def kernel_rows(monkeypatch) -> list:
    """Rows of every ``backends.exaloglog_registers`` call, in call order.

    ``None`` marks a one-sketch fold (no ``bounds``); a stacked fold
    records its row count.
    """
    from repro import backends

    rows: list = []
    real = backends.exaloglog_registers

    def recording(hashes, params, bounds=None):
        rows.append(None if bounds is None else len(bounds) - 1)
        return real(hashes, params, bounds)

    monkeypatch.setattr(backends, "exaloglog_registers", recording)
    return rows


@pytest.fixture
def partition_builds(monkeypatch) -> list:
    """Every partition a spill builds from here on, as its file list."""
    from repro.store import SpilledGroupBy

    built: list = []
    real = SpilledGroupBy._partition_aggregator

    def counting(self, files):
        built.append(files)
        return real(self, files)

    monkeypatch.setattr(SpilledGroupBy, "_partition_aggregator", counting)
    return built


@pytest.fixture
def solved_rows(monkeypatch) -> list[int]:
    """Row count of every Algorithm 8 solve
    (``estimation.batch.solve_ml_equations``), in call order."""
    from repro.estimation import batch

    rows: list[int] = []
    real = batch.solve_ml_equations

    def counting(alpha, beta):
        rows.append(len(alpha))
        return real(alpha, beta)

    monkeypatch.setattr(batch, "solve_ml_equations", counting)
    return rows


def random_hashes(seed: int, count: int) -> list[int]:
    """Deterministic list of 64-bit pseudo-hash values."""
    generator = random.Random(seed)
    return [generator.getrandbits(64) for _ in range(count)]


#: Small parameter sets that exercise all structural regimes
#: (t = 0/1/2, d = 0 / small / larger-than-typical-u, various p).
SMALL_PARAMS = [
    make_params(0, 0, 2),
    make_params(0, 1, 3),
    make_params(0, 2, 4),
    make_params(1, 3, 3),
    make_params(1, 9, 4),
    make_params(2, 6, 2),
    make_params(2, 16, 4),
    make_params(2, 20, 5),
    make_params(2, 24, 6),
    make_params(3, 5, 4),
]

#: The paper's named configurations at moderate precision.
PAPER_PARAMS = [
    make_params(1, 9, 6),
    make_params(2, 16, 6),
    make_params(2, 20, 6),
    make_params(2, 24, 6),
]
