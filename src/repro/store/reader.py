"""Lock-free concurrent readers for a live :class:`~repro.store.SketchStore`.

The store's file layout was designed so that queries never need the
writer's cooperation:

* snapshot files are **immutable** once their rename lands — a reader can
  map one and parse at leisure, regardless of what the writer does next;
* WAL records are **self-delimiting and checksummed** — a reader tailing
  the log can always tell "complete record" from "the writer is halfway
  through an append" and stop exactly at the durable horizon;
* every record carries an **LSN** — the reader can prove it observed a
  gapless prefix of the writer's history, and report how far it got.

:class:`SnapshotReader` builds a query process on those properties: open
the newest snapshot generation (``mmap``-ed, so the aggregator blob parses
straight out of the page cache without slurping the file), replay the WAL
tail past the snapshot's ``base_lsn``, and serve ``estimate`` /
``estimates`` / ``top`` through the batched solver — all strictly
read-only (never truncates a torn tail; that may be a live writer's
in-flight append). :meth:`SnapshotReader.refresh` advances the view:
new WAL records apply incrementally, and a compaction swaps the reader to
the new generation without ever mixing files of different generations.

Consistency model:

* the view equals the writer's state at some LSN ``L`` with
  ``base_lsn <= L <= writer.durable_lsn`` (a *consistent prefix*);
* :attr:`SnapshotReader.durable_lsn` is exactly that ``L`` and is
  **monotone** across refreshes — a reader never travels back in time,
  even across generation switches (a snapshot's ``base_lsn`` can only be
  ≥ any LSN a reader had proven durable before the compaction);
* any number of readers may run against one writer, each at its own
  horizon, with no locks anywhere.

Selective replay: :meth:`SnapshotReader.group_sketch` reconstructs a
single group without replaying the whole log, by seeking to that group's
records via the group-level WAL index (:mod:`repro.store.walindex`) and
scanning only the small unindexed tail.
"""

from __future__ import annotations

import mmap
import os
import pathlib
import time
from dataclasses import dataclass
from typing import Hashable

from repro.aggregate import DistinctCountAggregator
from repro.hashing import to_bytes
from repro.obs import metrics as _metrics
from repro.query.source import DelegatingSource
from repro.storage.serialization import (
    IncompleteRecordError,
    SerializationError,
    read_lsn_record_from,
    read_uvarint,
)
from repro.store.sketchstore import (
    _FILE_HEADER_BYTES,
    _check_file_header,
    TAG_SNAPSHOT,
    TAG_WAL,
    apply_wal_record,
    latest_generation,
    snapshot_path,
    wal_index_path,
    wal_path,
)

#: How often to retry when a compaction sweeps files out from under an
#: open attempt (newest-generation discovery and file opens race benignly).
_OPEN_RETRIES = 16

# Observability handles (collection off unless REPRO_METRICS is set).
_REFRESH_SECONDS = _metrics.histogram(
    "reader.refresh_seconds", "Wall seconds per reader refresh."
)
_REFRESH_LAG_SECONDS = _metrics.gauge(
    "reader.refresh_lag_seconds",
    "Seconds between the start of the last two refreshes (staleness bound).",
)
_RECORDS_APPLIED = _metrics.counter(
    "reader.records_applied", "WAL records applied to reader views."
)
_DURABLE_LSN = _metrics.gauge(
    "reader.durable_lsn", "Durable horizon of the most recent refresh.", mode="max"
)
_GENERATION_SWITCHES = _metrics.counter(
    "reader.generation_switches", "Compactions followed by readers."
)


@dataclass(frozen=True)
class RefreshResult:
    """What one :meth:`SnapshotReader.refresh` observed."""

    records_applied: int
    """WAL records newly applied to the view."""

    generation_changed: bool
    """True when the reader switched to a newer snapshot generation."""

    durable_lsn: int
    """The reader's horizon after the refresh."""


def _load_snapshot_mmap(path) -> tuple[DistinctCountAggregator, int, int]:
    """Parse ``(aggregator, generation, base_lsn)`` out of a mapped snapshot.

    The file is mapped read-only and the aggregator parses directly from
    the mapping — the OS pages in only what the parse touches, and the
    mapping drops immediately after (snapshot files are immutable, so
    nothing can change underneath the parse).
    """
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        if size < _FILE_HEADER_BYTES:
            raise SerializationError(f"{path}: too short to hold a file header")
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        try:
            offset = _check_file_header(mapped[:_FILE_HEADER_BYTES], TAG_SNAPSHOT, path)
            generation, offset = read_uvarint(mapped, offset)
            base_lsn, offset = read_uvarint(mapped, offset)
            # Parse through a memoryview: per-group sketch blobs are
            # copied out individually, the bulk of the file is never
            # slurped into one bytes object.
            view = memoryview(mapped)
            try:
                aggregator = DistinctCountAggregator.from_bytes(view[offset:])
            finally:
                view.release()
        finally:
            try:
                mapped.close()
            except BufferError:
                # A propagating parse error's traceback still references a
                # view slice; the map is unmapped on interpreter cleanup
                # and must not mask the real (corruption) error here.
                pass
    return aggregator, generation, base_lsn


class SnapshotReader(DelegatingSource):
    """A read-only, incrementally refreshing view of a sketch store.

    >>> reader = SnapshotReader.open(store.directory)
    >>> reader.estimates()            # batched solve over all groups
    >>> reader.refresh()              # pick up the writer's newest records
    >>> reader.durable_lsn            # how far the view has provably read

    Strictly non-mutating: opens every file read-only, never truncates,
    never sweeps. Safe to run in any number of processes concurrently
    with one live writer. Reads answer from the materialised
    :attr:`aggregator` (see :class:`~repro.query.source.DelegatingSource`),
    except :meth:`group_sketch`, which replays one group selectively.
    """

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError("use SnapshotReader.open(path)")

    @classmethod
    def open(cls, path) -> "SnapshotReader":
        directory = pathlib.Path(path)
        if not directory.is_dir():
            raise FileNotFoundError(f"store directory {directory} does not exist")
        reader = object.__new__(cls)
        reader._directory = directory
        reader._wal_handle = None
        reader._aggregator = None
        reader._generation = -1
        reader._base_lsn = 0
        reader._durable_lsn = 0
        reader._index_cache = None
        reader._last_refresh_at = None
        last_error: Exception | None = None
        for _ in range(_OPEN_RETRIES):
            generation = latest_generation(directory)
            if generation is None:
                raise SerializationError(
                    f"{directory}: no snapshot found (uninitialised store)"
                )
            try:
                reader._switch_generation(generation)
            except FileNotFoundError as error:
                # The writer compacted between listing and opening; the
                # newest generation moved on. Rescan.
                last_error = error
                continue
            reader._tail_wal()
            return reader
        raise SerializationError(
            f"{directory}: could not open a stable generation "
            f"(kept racing a compacting writer): {last_error}"
        ) from last_error

    # -- view maintenance ------------------------------------------------------

    def _switch_generation(self, generation: int) -> None:
        """Load snapshot ``generation`` and point the tail at its WAL."""
        aggregator, stored_generation, base_lsn = _load_snapshot_mmap(
            snapshot_path(self._directory, generation)
        )
        if stored_generation != generation:
            raise SerializationError(
                f"{self._directory}: snapshot file for generation {generation} "
                f"holds generation {stored_generation} (foreign or renamed "
                "snapshot in the store directory)"
            )
        if base_lsn < self._durable_lsn:
            # A newer snapshot folds in at least every LSN any reader has
            # proven durable; going backwards means the directory was
            # swapped for an unrelated (or restored-from-backup) store.
            raise SerializationError(
                f"{self._directory}: snapshot generation {generation} has "
                f"base LSN {base_lsn}, behind the already-observed horizon "
                f"{self._durable_lsn} (directory swapped for an unrelated "
                "or restored-from-backup store)"
            )
        if self._wal_handle is not None:
            self._wal_handle.close()
            self._wal_handle = None
        self._aggregator = aggregator
        self._generation = generation
        self._base_lsn = base_lsn
        self._durable_lsn = base_lsn

    def _ensure_wal_handle(self) -> bool:
        """Open this generation's WAL for tailing; False when not ready.

        "Not ready" covers two benign races with the writer: the WAL file
        does not exist yet (compaction wrote the snapshot but has not
        created the fresh log), or exists with an incomplete file header
        (creation's first write has not landed). Both resolve on a later
        refresh.
        """
        if self._wal_handle is not None:
            return True
        try:
            handle = open(wal_path(self._directory, self._generation), "rb")
        except FileNotFoundError:
            return False
        header = handle.read(_FILE_HEADER_BYTES)
        if len(header) < _FILE_HEADER_BYTES:
            handle.close()
            return False
        try:
            _check_file_header(header, TAG_WAL, handle.name)
        except SerializationError:
            handle.close()
            raise
        self._wal_handle = handle
        return True

    def _tail_wal(self) -> int:
        """Apply complete WAL records past the current horizon; count them.

        Stops at the first incomplete record (the writer's in-flight
        append) and seeks back to its start so the next refresh retries
        from there. Never writes.
        """
        if not self._ensure_wal_handle():
            return 0
        handle = self._wal_handle
        applied = 0
        while True:
            start = handle.tell()
            try:
                record = read_lsn_record_from(handle)
            except IncompleteRecordError:
                handle.seek(start)
                break
            if record is None:
                break
            lsn, kind, key, payload = record
            if lsn != self._durable_lsn + 1:
                raise SerializationError(
                    f"WAL record at offset {start} has LSN {lsn}, "
                    f"expected {self._durable_lsn + 1}"
                )
            apply_wal_record(self._aggregator, kind, key, payload)
            self._durable_lsn = lsn
            applied += 1
        return applied

    def refresh(self) -> RefreshResult:
        """Advance the view: tail new WAL records, follow compactions.

        Returns what changed. The durable horizon is monotone: it either
        stays or grows, never regresses — including across a generation
        switch (asserted, not assumed).
        """
        obs = _metrics.enabled()
        started = time.perf_counter() if obs else 0.0
        if obs:
            if self._last_refresh_at is not None:
                _REFRESH_LAG_SECONDS.set(started - self._last_refresh_at)
            self._last_refresh_at = started
        before = self._durable_lsn
        applied = self._tail_wal()
        generation_changed = False
        newest = latest_generation(self._directory)
        if newest is not None and newest > self._generation:
            # Drain the old generation's WAL first: the open handle stays
            # valid even after the writer unlinks the file, and a fully
            # drained old log equals the new snapshot's base state.
            for _ in range(_OPEN_RETRIES):
                try:
                    self._switch_generation(newest)
                    break
                except FileNotFoundError:
                    # That generation was itself compacted away; follow.
                    renewed = latest_generation(self._directory)
                    if renewed is None or renewed <= self._generation:
                        break
                    newest = renewed
            else:
                raise SerializationError(
                    f"{self._directory}: kept racing a compacting writer"
                )
            generation_changed = True
            applied += self._tail_wal()
        if self._durable_lsn < before:
            raise AssertionError(
                f"durable horizon regressed: {before} -> {self._durable_lsn}"
            )
        if obs:
            _REFRESH_SECONDS.observe(time.perf_counter() - started)
            _RECORDS_APPLIED.inc(applied)
            _DURABLE_LSN.set(self._durable_lsn)
            if generation_changed:
                _GENERATION_SWITCHES.inc()
        return RefreshResult(
            records_applied=applied,
            generation_changed=generation_changed,
            durable_lsn=self._durable_lsn,
        )

    # -- queries ---------------------------------------------------------------

    @property
    def directory(self) -> pathlib.Path:
        return self._directory

    @property
    def generation(self) -> int:
        """Snapshot generation the view is based on."""
        return self._generation

    @property
    def base_lsn(self) -> int:
        """LSN folded into the underlying snapshot."""
        return self._base_lsn

    @property
    def durable_lsn(self) -> int:
        """The durable horizon: last LSN provably applied to this view."""
        return self._durable_lsn

    @property
    def aggregator(self) -> DistinctCountAggregator:
        """The materialised view (snapshot + applied WAL tail)."""
        return self._aggregator

    # -- selective single-group replay ----------------------------------------

    def group_sketch(self, group: Hashable):
        """Reconstruct one group's sketch via the group-level WAL index.

        Starts from the snapshot's copy of the group and applies only
        that group's WAL records: indexed records by direct seek, plus a
        scan of the unindexed tail (the index is advisory and may lag the
        log — see :mod:`repro.store.walindex`). At any quiesced point the
        result is bit-identical to the full-log replay this reader's
        ``aggregator`` performs; records past this view's durable horizon
        are deliberately excluded so the two stay comparable.

        Returns ``None`` for a group with no state at this horizon.
        Compaction-safe: should the writer sweep this generation's files
        mid-query, the answer falls back to the already-materialised view
        (which is the same state at this horizon, just not selectively
        rebuilt).
        """
        key = to_bytes(group)
        try:
            return self._group_sketch_selective(key)
        except FileNotFoundError:
            # The writer compacted this generation away between our tail
            # and this query; the tailed view itself is still a correct
            # (and complete) answer at this horizon.
            return self._aggregator.group_sketch(key)

    def _group_sketch_selective(self, key: bytes):
        from repro.store.walindex import scan_floor

        scratch = DistinctCountAggregator(*self.config)
        sketch = self._read_snapshot_group(key)
        base_lsn = self._base_lsn
        if sketch is not None:
            # Merging into an empty group reproduces the snapshot's state.
            scratch.merge_sketch(key, sketch)
        index = self._load_group_index()
        applied = set()
        try:
            handle = open(wal_path(self._directory, self._generation), "rb")
        except FileNotFoundError:
            if self._durable_lsn == base_lsn:
                return scratch.sketches().get(key)  # nothing was ever tailed
            raise  # tailed records exist but their log is gone: fall back
        with handle:
            _check_file_header(
                handle.read(_FILE_HEADER_BYTES), TAG_WAL, handle.name
            )
            for entry in index.get(key, ()):
                if not base_lsn < entry.lsn <= self._durable_lsn:
                    continue
                handle.seek(entry.offset)
                try:
                    record = read_lsn_record_from(handle)
                except IncompleteRecordError:
                    continue  # entry points past the durable prefix
                if record is None:
                    continue
                lsn, kind, record_key, payload = record
                if lsn != entry.lsn or record_key != key:
                    raise SerializationError(
                        f"WAL index entry (lsn={entry.lsn}, "
                        f"offset={entry.offset}) does not match the "
                        f"record found there (lsn={lsn})"
                    )
                apply_wal_record(scratch, kind, key, payload)
                applied.add(lsn)
            # Unindexed tail: records the index has not caught up to.
            handle.seek(max(scan_floor(index), _FILE_HEADER_BYTES))
            while True:
                try:
                    record = read_lsn_record_from(handle)
                except IncompleteRecordError:
                    break
                if record is None:
                    break
                lsn, kind, record_key, payload = record
                if record_key != key or lsn in applied:
                    continue
                if not base_lsn < lsn <= self._durable_lsn:
                    continue
                apply_wal_record(scratch, kind, key, payload)
                applied.add(lsn)
        return scratch.sketches().get(key)

    def _load_group_index(self):
        """The generation's WAL index, cached on (generation, file size).

        Repeat selective queries against an unchanged index skip the
        re-parse; any append to the index (or a generation switch) grows
        the size and invalidates the cache.
        """
        from repro.store.walindex import load_wal_index

        path = wal_index_path(self._directory, self._generation)
        try:
            size = os.path.getsize(path)
        except FileNotFoundError:
            size = -1
        cached = self._index_cache
        if (
            cached is not None
            and cached[0] == self._generation
            and cached[1] == size
        ):
            return cached[2]
        index = load_wal_index(path)
        self._index_cache = (self._generation, size, index)
        return index

    def _read_snapshot_group(self, key: bytes):
        """One group's sketch out of this generation's (immutable) snapshot.

        Unlike :func:`_load_snapshot_mmap` this never materialises the
        other groups: entries are skipped by their length prefixes on the
        mapping, so selective replay stays selective on the snapshot side
        too.
        """
        path = snapshot_path(self._directory, self._generation)
        with open(path, "rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            try:
                offset = _check_file_header(
                    mapped[:_FILE_HEADER_BYTES], TAG_SNAPSHOT, path
                )
                _generation, offset = read_uvarint(mapped, offset)
                _base_lsn, offset = read_uvarint(mapped, offset)
                view = memoryview(mapped)
                try:
                    return DistinctCountAggregator.read_group_from_bytes(
                        view[offset:], key
                    )
                finally:
                    view.release()
            finally:
                try:
                    mapped.close()
                except BufferError:  # see _load_snapshot_mmap
                    pass

    def estimate_group(self, group: Hashable) -> float:
        """One group's estimate via selective replay (0 for unseen groups)."""
        sketch = self.group_sketch(group)
        return sketch.estimate() if sketch is not None else 0.0

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        if self._wal_handle is not None:
            self._wal_handle.close()
            self._wal_handle = None

    def __enter__(self) -> "SnapshotReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"SnapshotReader(directory={str(self._directory)!r}, "
            f"generation={self._generation}, groups={len(self._aggregator)}, "
            f"durable_lsn={self._durable_lsn})"
        )
