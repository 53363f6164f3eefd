"""Lock-free concurrent readers for a live :class:`~repro.store.SketchStore`.

The store's file layout was designed so that queries never need the
writer's cooperation:

* snapshot files are **immutable** once their rename lands — a reader can
  read one and parse at leisure, regardless of what the writer does next;
* WAL records are **self-delimiting and checksummed** — a reader tailing
  the log can always tell "complete record" from "the writer is halfway
  through an append" and stop exactly at the durable horizon;
* every record carries an **LSN** — the reader can prove it observed a
  gapless prefix of the writer's history, and report how far it got.

:class:`SnapshotReader` builds a query process on those properties: load
the newest snapshot generation (through
:func:`~repro.store.sketchstore.parse_snapshot`, the store's one snapshot
parser), replay the WAL tail past the snapshot's ``base_lsn``, and serve
every read — ``estimate`` / ``estimates`` / ``top`` through the batched
solver, ``group_sketch`` as a lookup — from that one materialised view,
all strictly read-only (never truncates a torn tail; that may be a live
writer's in-flight append). :meth:`SnapshotReader.refresh` advances the
view: new WAL records apply incrementally, and a compaction swaps the
reader to the new generation without ever mixing files of different
generations.

Consistency model:

* the view equals the writer's state at some LSN ``L`` with
  ``base_lsn <= L <= writer.durable_lsn`` (a *consistent prefix*);
* :attr:`SnapshotReader.durable_lsn` is exactly that ``L`` and is
  **monotone** across refreshes — a reader never travels back in time,
  even across generation switches (a snapshot's ``base_lsn`` can only be
  ≥ any LSN a reader had proven durable before the compaction);
* any number of readers may run against one writer, each at its own
  horizon, with no locks anywhere.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass
from typing import Hashable

from repro.aggregate import DistinctCountAggregator
from repro.obs import metrics as _metrics
from repro.query.source import DelegatingSource
from repro.storage.serialization import SerializationError
from repro.store.sketchstore import (
    _FILE_HEADER_BYTES,
    _check_file_header,
    TAG_WAL,
    WalReplay,
    latest_generation,
    parse_snapshot,
    replay_records,
    snapshot_path,
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
    "reader.durable_lsn", "Durable horizon of the most recent refresh."
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


class SnapshotReader(DelegatingSource):
    """A read-only, incrementally refreshing view of a sketch store.

    >>> reader = SnapshotReader.open(store.directory)
    >>> reader.estimates()            # batched solve over all groups
    >>> reader.refresh()              # pick up the writer's newest records
    >>> reader.durable_lsn            # how far the view has provably read

    Strictly non-mutating: opens every file read-only, never truncates,
    never sweeps. Safe to run in any number of processes concurrently
    with one live writer. Every read, :meth:`group_sketch` included,
    answers from the materialised :attr:`aggregator` (see
    :class:`~repro.query.source.DelegatingSource`), so all of them see
    the same horizon until the next :meth:`refresh`.
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
            try:
                reader._tail_wal()
            except BaseException:
                # The caller never gets the reader: release its WAL handle.
                reader.close()
                raise
            return reader
        raise SerializationError(
            f"{directory}: could not open a stable generation "
            f"(kept racing a compacting writer): {last_error}"
        ) from last_error

    # -- view maintenance ------------------------------------------------------

    def _switch_generation(self, generation: int) -> None:
        """Load snapshot ``generation`` and point the tail at its WAL."""
        path = snapshot_path(self._directory, generation)
        aggregator, stored_generation, base_lsn = parse_snapshot(path.read_bytes(), path)
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

        Records fold in runs (:func:`~repro.store.sketchstore.replay_records`),
        and the horizon advances only by runs applied, so the view is
        the state at the horizon, also after a tail that raised. Stops
        at the first incomplete record (the writer's in-flight append)
        and seeks back to its start so the next refresh retries from
        there. Never writes.
        """
        if not self._ensure_wal_handle():
            return 0
        progress = WalReplay(last_lsn=self._durable_lsn)
        try:
            replay_records(self._wal_handle, self._aggregator, progress)
        finally:
            self._durable_lsn = progress.last_lsn
        return progress.records

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

    def group_sketch(self, group: Hashable):
        """A private copy of one group's sketch at this view's horizon.

        ``None`` for a group with no state at this horizon. Defined here
        rather than inherited so that instrumentation which wraps methods
        on this class (``benchmarks/system/tracing.py``) can time the
        reader's point reads.
        """
        return super().group_sketch(group)

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
