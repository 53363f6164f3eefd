"""Concurrent reads & WAL-shipping replication for the durable store.

One writer ingests into a :class:`~repro.store.SketchStore`; meanwhile

* a :class:`~repro.store.SnapshotReader` serves queries off the same
  directory without any locking — it loads the newest immutable snapshot
  and tails the WAL up to the durable horizon, and
* a :class:`~repro.store.WalShipper` streams the WAL records into a
  :class:`~repro.store.FollowerStore` replica that applies them
  idempotently by LSN.

Once the follower has caught up to the writer's horizon its register
bytes are *bit-identical* to the writer's — the shipped records are the
same inputs, folded by the same deterministic code, in the same order.
This example checks that equality explicitly (and runs everything in one
process for portability; every piece works identically across
processes — see ``python -m repro.store serve`` / ``replicate``).

Run:  python examples/replicated_readers.py
"""

import tempfile
import pathlib

import numpy as np

from repro.store import FollowerStore, SketchStore, SnapshotReader, WalShipper

COUNTRIES = ["DE", "AT", "CH", "US", "JP", "BR"]


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="replicated_readers_") as workdir:
        workdir = pathlib.Path(workdir)
        rng = np.random.Generator(np.random.PCG64(42))

        # -- the writer: a live ingest process -----------------------------
        writer = SketchStore.open(workdir / "leader", p=10)

        # -- a query process opens the same directory, lock-free -----------
        # (any number of these can run; none of them ever blocks the writer)
        for country in COUNTRIES:
            writer.append_hashes(
                country, rng.integers(0, 1 << 64, size=2_000, dtype=np.uint64)
            )
        reader = SnapshotReader.open(workdir / "leader")
        print(f"reader opened:  generation={reader.generation} "
              f"durable_lsn={reader.durable_lsn} groups={len(reader)}")

        # -- a replica catches up by WAL shipping --------------------------
        follower = FollowerStore.open(workdir / "replica")
        shipper = WalShipper(workdir / "leader")
        result = shipper.sync(follower)
        print(f"replica seeded: snapshot={result.snapshot_installed} "
              f"shipped={result.records_shipped} lsn={result.follower_lsn}")

        # -- the writer keeps going (including a compaction) ---------------
        for round_index in range(3):
            for country in COUNTRIES[: 3 + round_index]:
                writer.append_hashes(
                    country, rng.integers(0, 1 << 64, size=500, dtype=np.uint64)
                )
            if round_index == 1:
                writer.compact()  # readers & shipper follow generations

        # -- readers refresh to the new durable horizon --------------------
        refresh = reader.refresh()
        sync = shipper.sync(follower)
        print(f"reader refresh: +{refresh.records_applied} records, "
              f"generation_changed={refresh.generation_changed}, "
              f"lsn={refresh.durable_lsn}")
        print(f"replica sync:   +{sync.records_shipped} records, "
              f"snapshot={sync.snapshot_installed}, lsn={sync.follower_lsn}")

        # -- consistency: all three views are bit-identical ----------------
        assert reader.durable_lsn == writer.durable_lsn
        assert follower.applied_lsn == writer.durable_lsn
        assert reader.aggregator.to_bytes() == writer.aggregator.to_bytes()
        assert follower.aggregator.to_bytes() == writer.aggregator.to_bytes()
        print("\nwriter == reader == replica (register bytes, every group)\n")

        print(f"{'country':<8} {'writer':>10} {'reader':>10} {'replica':>10}")
        print("-" * 42)
        writer_estimates = writer.estimates()
        reader_estimates = reader.estimates()
        replica_estimates = follower.estimates()
        for key in sorted(writer_estimates):
            name = key.decode()
            print(
                f"{name:<8} {writer_estimates[key]:>10.1f} "
                f"{reader_estimates[key]:>10.1f} {replica_estimates[key]:>10.1f}"
            )

        reader.close()
        follower.close()
        writer.close()


if __name__ == "__main__":
    main()
