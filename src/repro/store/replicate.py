"""WAL-shipping replication: leader store → follower store.

The paper's pitch — sketch state is tiny and mergeable — makes
replication almost embarrassingly cheap: the leader's WAL already *is* a
stream of self-delimiting, checksummed, LSN-stamped records, so a replica
needs no protocol beyond "ship me the records I have not applied yet,
plus a snapshot when I have fallen behind a compaction".

Two halves:

* :class:`WalShipper` reads a leader's store directory **without any
  cooperation from the writer** (same read-only discipline as
  :class:`~repro.store.reader.SnapshotReader`: never truncate, stop at
  the durable horizon) and pushes what the follower is missing. It
  reads the WAL through the loop every log reader shares,
  :func:`~repro.storage.serialization.read_records`, with
  :meth:`FollowerStore.apply_record` as the callback.
* :class:`FollowerStore` is a :class:`~repro.store.sketchstore.SketchStore`
  whose records come only from its leader. It applies shipped records
  **idempotently by LSN** — a record at or below ``applied_lsn`` is
  dropped, so at-least-once shipping (retries, overlapping syncs,
  restarts) never double-folds — and logs each through the store's own
  WAL append before acknowledging it, so a crashed follower recovers, by
  store recovery, to its exact pre-crash horizon. A reseed runs the
  store's own generation start, the sequence a compaction runs.

Catch-up guarantee (asserted by the invariant harness): once a follower
has applied every record up to the leader's durable horizon, its register
bytes are **bit-identical** to the leader's for every group — shipping
replays the same inputs through the same fold in the same order, and the
folds are deterministic. Because a follower directory is itself a valid
store directory, a :class:`~repro.store.reader.SnapshotReader` (or a
read-only :meth:`SketchStore.open`) can serve queries from the replica.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass

from repro.aggregate import DistinctCountAggregator
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.storage.serialization import SerializationError, read_records
from repro.store.durable import make_dirs
from repro.store.sketchstore import (
    _FILE_HEADER_BYTES,
    _check_file_header,
    TAG_WAL,
    SketchStore,
    check_wal_record,
    latest_generation,
    parse_snapshot,
    read_snapshot_header,
    snapshot_path,
    wal_path,
)

_UNINITIALISED = "follower is uninitialised (no snapshot installed)"

_RECORDS_SHIPPED = _metrics.counter(
    "replicate.records_shipped",
    "WAL records newly applied to a follower (duplicates not counted).",
)
_BYTES_APPLIED = _metrics.counter(
    "replicate.bytes_applied",
    "Framed WAL bytes durably appended to follower logs.",
)
_SNAPSHOT_INSTALLS = _metrics.counter(
    "replicate.snapshot_installs",
    "Times a follower was (re)seeded from a leader snapshot.",
)
_SYNCS = _metrics.counter(
    "replicate.syncs", "Completed WalShipper.sync calls."
)
_SYNC_SECONDS = _metrics.histogram(
    "replicate.sync_seconds", "Wall time of one WalShipper.sync call."
)
_FOLLOWER_LSN = _metrics.gauge(
    "replicate.follower_lsn",
    "Follower applied horizon after the most recent sync.",
)
_LSN_LAG = _metrics.gauge(
    "replicate.lsn_lag",
    "Leader durable LSN minus follower applied LSN at sync start.",
)


@dataclass(frozen=True)
class ShipResult:
    """What one :meth:`WalShipper.sync` accomplished."""

    snapshot_installed: bool
    """True when the follower was (re)seeded from the leader's snapshot."""

    records_shipped: int
    """Records newly applied to the follower (duplicates not counted)."""

    follower_lsn: int
    """The follower's applied horizon after the sync."""


class FollowerStore(SketchStore):
    """A durable replica: a store whose records come only from its leader.

    ``open`` on a directory with no snapshot yields an *uninitialised*
    follower (``initialized`` False) that only :meth:`install_snapshot`
    can seed; on any other it is :meth:`SketchStore.open`'s recovery
    (the follower owns its files, so a torn tail is its *own* crashed
    append). Reads answer from :attr:`aggregator` and raise while it is
    uninitialised. Its one writer is the :class:`WalShipper`, through
    :meth:`install_snapshot` and :meth:`apply_record`. A direct write
    (``append``, ``append_hashes``, ``merge_sketch``, ``drop_group``,
    ``append_cutover``, ``batch``, ``compact``) raises ``ValueError``:
    it would take an LSN the leader ships later, which the follower
    would then drop as a duplicate, silently diverging.
    """

    @classmethod
    def open(cls, path, fsync: bool = False) -> "FollowerStore":
        """Open a replica directory, creating it (uninitialised) if absent."""
        if latest_generation(path) is not None:
            return super().open(path, fsync=fsync)
        make_dirs(path)
        return cls._new(path, fsync)

    # -- state -----------------------------------------------------------------

    @property
    def initialized(self) -> bool:
        """True once a snapshot has seeded the replica."""
        return self._aggregator is not None

    @property
    def applied_lsn(self) -> int:
        """The replica's horizon: highest LSN durably applied (its ``durable_lsn``)."""
        return self._durable_lsn

    @property
    def aggregator(self) -> DistinctCountAggregator:
        if self._aggregator is None:
            raise ValueError(_UNINITIALISED)
        return self._aggregator

    # -- replication protocol --------------------------------------------------

    def install_snapshot(self, data: bytes) -> None:
        """Seed (or fast-forward) the replica from a leader snapshot blob.

        Validates and parses first, then runs the store's generation
        start (the sequence :meth:`~SketchStore.compact` runs) at the
        leader's generation, so a power cut at any point leaves at least
        one complete snapshot. Installing a snapshot behind the applied
        horizon is rejected (it would travel back in time).
        """
        aggregator, generation, base_lsn = parse_snapshot(data, "snapshot blob")
        if self.initialized and base_lsn < self._durable_lsn:
            raise ValueError(
                f"snapshot base LSN {base_lsn} is behind the replica's "
                f"applied horizon {self._durable_lsn}"
            )
        self._start_generation(generation, base_lsn, data)
        self._aggregator = aggregator

    def apply_record(self, lsn: int, kind: int, key: bytes, payload: bytes) -> bool:
        """Apply one shipped record; returns False for an LSN already applied.

        Idempotent by LSN: re-shipping any prefix is harmless. A *gap*
        (``lsn > applied_lsn + 1``) is an error — applying it would
        silently diverge from the leader; the shipper must install a
        snapshot instead.

        A record holds what the leader committed under one LSN: a
        ``RECORD_SEGMENTS`` record is a whole commit's run of hash
        writes (a cluster shard's part of a batch), so one call folds
        all its segments in one ``fold_segments`` call; an older
        ``RECORD_HASHES`` record holds one segment.

        The record is checked
        (:func:`~repro.store.sketchstore.check_wal_record`), then logged
        and applied by the store's one WAL append at the leader's LSN, so
        the replica's WAL equals the leader's byte for byte.
        """
        if self._aggregator is None:
            raise ValueError(_UNINITIALISED)
        self._check_writable()
        if lsn <= self._durable_lsn:
            return False
        if lsn != self._durable_lsn + 1:
            raise SerializationError(
                f"record LSN {lsn} leaves a gap after applied horizon "
                f"{self._durable_lsn}; a snapshot install is required"
            )
        layout = check_wal_record(kind, payload)
        appended = self._write_records([(kind, key, payload, layout)])
        if _metrics.enabled():
            _BYTES_APPLIED.inc(appended)
        return True

    def _refuse_write(self, *args, **kwargs):
        raise ValueError(
            f"FollowerStore at {self._directory} is written only by its "
            "WalShipper: a direct write would take an LSN its leader ships later"
        )

    append = append_hashes = merge_sketch = drop_group = append_cutover = _refuse_write
    batch = compact = _refuse_write

    def __repr__(self) -> str:
        state = (
            f"generation={self._generation}, applied_lsn={self._durable_lsn}"
            if self.initialized
            else "uninitialised"
        )
        return f"FollowerStore(directory={str(self._directory)!r}, {state})"


class WalShipper:
    """Streams a leader's durable WAL records into a follower.

    Reads the leader directory with the reader discipline (read-only,
    stop at the durable horizon, survive compactions by retrying) and
    drives the follower's idempotent apply. One shipper instance may
    :meth:`sync` repeatedly — each call ships exactly what accumulated
    since the last one.
    """

    #: Retries against a concurrently compacting leader before giving up.
    _SYNC_RETRIES = 16

    def __init__(self, source_directory) -> None:
        self._source = pathlib.Path(source_directory)
        if not self._source.is_dir():
            raise FileNotFoundError(f"leader directory {self._source} does not exist")
        # Resume cursor: after the last complete record shipped, as
        # (generation, wal_offset, lsn). Purely an optimisation — it only
        # short-circuits the skip-scan when the follower provably covers
        # it, so one shipper may still serve followers at any horizon.
        self._cursor: "tuple[int, int, int] | None" = None

    @property
    def source(self) -> pathlib.Path:
        return self._source

    def sync(self, follower: FollowerStore) -> ShipResult:
        """Bring ``follower`` up to the leader's current durable horizon."""
        obs = _metrics.enabled()
        started = time.perf_counter() if obs else 0.0
        before = follower.applied_lsn
        last_error: Exception | None = None
        for _ in range(self._SYNC_RETRIES):
            try:
                with _trace.span("replicate.sync", source=str(self._source)):
                    result = self._sync_once(follower)
                if obs:
                    _SYNCS.inc()
                    _SYNC_SECONDS.observe(time.perf_counter() - started)
                    _RECORDS_SHIPPED.inc(result.records_shipped)
                    if result.snapshot_installed:
                        _SNAPSHOT_INSTALLS.inc()
                    _FOLLOWER_LSN.set(result.follower_lsn)
                    _LSN_LAG.set(result.follower_lsn - before)
                return result
            except FileNotFoundError as error:
                # Compaction swept a file between discovery and open;
                # the next attempt sees the newer generation.
                last_error = error
        raise SerializationError(
            f"{self._source}: could not ship a stable generation "
            f"(kept racing a compacting leader): {last_error}"
        ) from last_error

    def _sync_once(self, follower: FollowerStore) -> ShipResult:
        generation = latest_generation(self._source)
        if generation is None:
            raise SerializationError(
                f"{self._source}: no snapshot found (uninitialised leader)"
            )
        snap_path = snapshot_path(self._source, generation)
        _, base_lsn, _ = read_snapshot_header(snap_path)
        snapshot_installed = False
        if not follower.initialized or follower.applied_lsn < base_lsn:
            # The follower predates this generation's snapshot (or does
            # not exist yet): the records between its horizon and the
            # snapshot base are gone from the log, so seed from the
            # snapshot itself. Re-read the header afterwards — the bytes
            # are only trusted once parsed by install_snapshot.
            follower.install_snapshot(snap_path.read_bytes())
            snapshot_installed = True
        shipped = 0

        def ship(lsn: int, kind: int, key: bytes, payload: bytes) -> None:
            nonlocal shipped
            if follower.apply_record(lsn, kind, key, payload):
                shipped += 1
            self._cursor = (generation, handle.tell(), lsn)

        with open(wal_path(self._source, generation), "rb") as handle:
            header = handle.read(_FILE_HEADER_BYTES)
            if len(header) == _FILE_HEADER_BYTES:
                _check_file_header(header, TAG_WAL, handle.name)
                if (
                    self._cursor is not None
                    and self._cursor[0] == generation
                    and follower.applied_lsn >= self._cursor[2]
                ):
                    handle.seek(self._cursor[1])
                # Stops before the leader's in-flight append: not durable yet.
                read_records(handle, ship)
        return ShipResult(
            snapshot_installed=snapshot_installed,
            records_shipped=shipped,
            follower_lsn=follower.applied_lsn,
        )

    def __repr__(self) -> str:
        return f"WalShipper(source={str(self._source)!r})"
