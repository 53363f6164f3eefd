"""Randomized store/reader/replication invariants (single-process interleaving).

The multiprocess stress lives in ``tests/store/test_concurrent_readers.py``;
here the same interleavings run deterministically in one process — writer
appends, reader refreshes, compactions, follower syncs at random points —
so failures are reproducible from the seed alone.
"""

import numpy as np
import pytest

from repro.store import (
    FollowerStore,
    SketchStore,
    SnapshotReader,
    WalShipper,
)
from tests.invariants.harness import (
    OP_COMPACT,
    OP_HASHES,
    OP_SKETCH,
    _merge_sketch,
    random_scenario,
    rounds,
)


def _run_schedule(scenario, store, on_step):
    for index, step in enumerate(scenario.steps):
        if step.op == OP_HASHES:
            store.append_hashes(step.group, step.hashes)
        elif step.op == OP_SKETCH:
            store.merge_sketch(step.group, _merge_sketch(scenario, step))
        elif step.op == OP_COMPACT:
            store.compact()
        on_step(index, step)


@pytest.mark.parametrize("seed", rounds())
def test_reader_interleaved_with_writer(seed, tmp_path):
    """A reader refreshing at arbitrary points always sees a consistent
    prefix: monotone horizon, and exact writer state whenever quiesced."""
    scenario = random_scenario(2000 + seed)
    t, d, p, sparse, config_seed = scenario.config
    store = SketchStore.open(
        tmp_path / "s", t=t, d=d, p=p, sparse=sparse, seed=config_seed
    )
    rng = np.random.Generator(np.random.PCG64(seed))
    reader = SnapshotReader.open(tmp_path / "s")
    horizons = [reader.durable_lsn]

    def on_step(index, step):
        if rng.random() < 0.5:
            result = reader.refresh()
            horizons.append(result.durable_lsn)
            # Quiesced between appends: the view must equal the writer.
            assert result.durable_lsn == store.durable_lsn
            assert reader.aggregator.to_bytes() == store.aggregator.to_bytes()

    _run_schedule(scenario, store, on_step)
    reader.refresh()
    assert reader.aggregator.to_bytes() == store.aggregator.to_bytes()
    assert horizons == sorted(horizons), "durable horizon regressed"
    reader.close()
    store.close()


@pytest.mark.parametrize("seed", rounds())
def test_follower_sync_points_are_arbitrary(seed, tmp_path):
    """Syncing the follower at random points (at-least-once, overlapping)
    still converges to bit-identical state at catch-up."""
    scenario = random_scenario(4000 + seed)
    t, d, p, sparse, config_seed = scenario.config
    store = SketchStore.open(
        tmp_path / "leader", t=t, d=d, p=p, sparse=sparse, seed=config_seed
    )
    follower = FollowerStore.open(tmp_path / "replica")
    shipper = WalShipper(tmp_path / "leader")
    rng = np.random.Generator(np.random.PCG64(seed))

    def on_step(index, step):
        if rng.random() < 0.4:
            shipper.sync(follower)
            assert follower.applied_lsn == store.durable_lsn

    _run_schedule(scenario, store, on_step)
    result = shipper.sync(follower)
    assert result.follower_lsn == store.durable_lsn
    # Re-sync is a no-op (idempotent by LSN).
    again = shipper.sync(follower)
    assert again.records_shipped == 0 and not again.snapshot_installed
    assert follower.aggregator.to_bytes() == store.aggregator.to_bytes()
    for key in store.aggregator.groups():
        assert (
            follower.aggregator.group_sketch(key).to_bytes()
            == store.aggregator.group_sketch(key).to_bytes()
        )
    store.close()
    follower.close()


@pytest.mark.parametrize("seed", rounds())
def test_read_only_open_preserves_torn_tail(seed, tmp_path):
    """Regression (+fuzz): read-only open must not truncate a torn WAL tail.

    Cuts the WAL at a random non-boundary offset; ``read_only=True`` must
    (a) recover the exact durable prefix and (b) leave the file
    byte-identical — it may be a live writer's in-flight append.
    """
    scenario = random_scenario(5000 + seed, with_compaction=False)
    t, d, p, sparse, config_seed = scenario.config
    directory = tmp_path / "s"
    store = SketchStore.open(
        directory, t=t, d=d, p=p, sparse=sparse, seed=config_seed
    )
    _run_schedule(scenario, store, lambda index, step: None)
    store.close()
    wal = next(directory.glob("wal-*.log"))
    original = wal.read_bytes()
    rng = np.random.Generator(np.random.PCG64(seed))
    cut = int(rng.integers(4, len(original)))
    wal.write_bytes(original[:cut])

    torn = wal.read_bytes()
    ro = SketchStore.open(directory, read_only=True)
    assert wal.read_bytes() == torn, "read-only open mutated the WAL"
    assert ro.durable_lsn <= store.durable_lsn
    with pytest.raises(ValueError, match="read-only"):
        ro.append_hashes("g0", np.array([1], dtype=np.uint64))
    with pytest.raises(ValueError, match="read-only"):
        ro.compact()
    ro.close()

    # The same cut through SnapshotReader: also non-mutating.
    with SnapshotReader.open(directory) as reader:
        assert wal.read_bytes() == torn, "SnapshotReader mutated the WAL"
        assert reader.durable_lsn == ro.durable_lsn
        assert reader.aggregator.to_bytes() == ro.aggregator.to_bytes()

    # A writer-mode open *does* truncate, and recovers the same prefix.
    rw = SketchStore.open(directory)
    assert len(wal.read_bytes()) <= len(torn)
    assert rw.aggregator.to_bytes() == ro.aggregator.to_bytes()
    assert rw.durable_lsn == ro.durable_lsn
    rw.close()
