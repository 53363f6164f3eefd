"""Durable file replacement: the one write sequence every store file uses.

A file that must survive a power cut intact — a snapshot, a fresh WAL, a
WAL index, the spill and cluster sidecars — is never written in place.
:func:`atomic_write` writes a temporary sibling, fsyncs it, renames it
over the target and fsyncs the directory, so after a crash at any point
the target holds either its previous bytes or all of the new ones, and
a completed call survives a power cut. :func:`sync_dir` is the directory
half on its own: it makes renames, creations and unlinks in one
directory durable.

Every fsync goes through ``os.fsync`` (looked up on the module at call
time), so tests and benchmarks that count or fail fsyncs by patching
``os.fsync`` see each one.
"""

from __future__ import annotations

import os
import pathlib


def sync_dir(directory) -> None:
    """Fsync ``directory`` so its entries (renames, creations) are durable.

    A no-op where directories cannot be opened for fsync (non-POSIX).
    """
    if os.name != "posix":
        return
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path, data: bytes) -> None:
    """Replace ``path`` with ``data``, atomically and durably.

    Writes ``path`` with a ``.tmp`` suffix, fsyncs it, ``os.replace``-s
    it over ``path`` and fsyncs the directory. A crash leaves either the
    old file or the new one (plus, at worst, a stale ``.tmp`` sibling).
    """
    path = pathlib.Path(path)
    temporary = path.with_suffix(".tmp")
    with open(temporary, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, path)
    sync_dir(path.parent)
