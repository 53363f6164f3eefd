"""Durable sketch store: persistence, spill-to-disk, concurrent reads, replication.

Everything in-memory about this library dies with the process; this
package is the disk layer that makes the paper's selling point — tiny,
mergeable, serializable sketch state — operational:

* :class:`~repro.store.registers.MemmapRegisters` — ``np.memmap``-backed
  register arrays the bulk backends fold straight into (bit-identical to
  the in-memory path, resident pages managed by the OS);
* :class:`~repro.store.sketchstore.SketchStore` — a keyed, crash-
  recoverable store: append-only WAL of LSN-stamped hash batches +
  periodic snapshots, WAL-tail replay on
  :meth:`~repro.store.sketchstore.SketchStore.open`, compaction folding
  the log into a fresh snapshot;
* :class:`~repro.store.reader.SnapshotReader` — lock-free concurrent
  query serving against a live writer: immutable snapshot + read-only
  WAL tail, refreshable, with a monotone durable horizon; every read,
  point reads included, answers from that one materialised view;
* :class:`~repro.store.replicate.WalShipper` /
  :class:`~repro.store.replicate.FollowerStore` — async replication by
  shipping the self-delimiting checksummed WAL records, applied
  idempotently by LSN (catch-up ⇒ bit-identical registers);
* :class:`~repro.store.spill.SpilledGroupBy` — external GROUP BY over
  hash-partitioned spill files, exact and memory-bounded at millions of
  groups; :meth:`~repro.store.spill.SpilledGroupBy.attach` opens an
  existing spill directory read-only from a query process.

Entry points elsewhere: ``DistinctCountAggregator.add_batch(spill=...)``,
``SlidingWindowDistinctCounter(store=...)`` (buckets retire durably on
eviction), and the ``python -m repro.store`` CLI
(ingest/query/compact/serve/replicate) — ``query`` speaks the
:mod:`repro.query` dialect over the store or a lock-free reader.
"""

from repro.store.reader import RefreshResult, SnapshotReader
from repro.store.registers import MemmapRegisters
from repro.store.replicate import FollowerStore, ShipResult, WalShipper
from repro.store.sketchstore import (
    RECORD_CUTOVER,
    RECORD_DROP,
    RECORD_HASHES,
    RECORD_SKETCH,
    SketchStore,
    apply_wal_record,
    latest_generation,
    read_snapshot_header,
    replay_wal,
    snapshot_path,
    wal_path,
)
from repro.store.spill import (
    DEFAULT_PARTITIONS,
    SpilledGroupBy,
    SpillWriter,
    read_spill_file,
    spill_files,
)

__all__ = [
    "DEFAULT_PARTITIONS",
    "FollowerStore",
    "MemmapRegisters",
    "RECORD_CUTOVER",
    "RECORD_DROP",
    "RECORD_HASHES",
    "RECORD_SKETCH",
    "RefreshResult",
    "ShipResult",
    "SketchStore",
    "SnapshotReader",
    "SpillWriter",
    "SpilledGroupBy",
    "WalShipper",
    "apply_wal_record",
    "latest_generation",
    "read_snapshot_header",
    "read_spill_file",
    "replay_wal",
    "snapshot_path",
    "spill_files",
    "wal_path",
]
