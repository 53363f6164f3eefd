"""Cluster metadata, the rebalance journal, and cutover fence encoding.

A cluster root directory holds N independent shard store directories
plus two small control files, both written atomically and synced
(:func:`repro.store.durable.atomic_write`):

``cluster.json``
    The authoritative topology: shard count, rebalance epoch, and the
    sketch configuration every shard must share. Flipping this file is
    the *commit point* of a rebalance — a crash on either side of the
    flip recovers to a consistent topology.
``rebalance.json``
    Present only while a rebalance is in flight (written first, removed
    last). Finding one at open time means the previous process died
    mid-rebalance; :class:`repro.cluster.ShardedStore` replays the
    rebalance forward — every step is idempotent (sketch merges are
    register-max, drops are pops) — until the journal can be cleared.

The cutover *fence* is the WAL-level view of the same transition: a
``RECORD_CUTOVER`` record written into each shard's log carrying
``(epoch, from_shards, to_shards, phase)``, so replicas and readers
replaying a shard WAL see exactly where ownership changed, at a precise
LSN, without consulting any cluster-level file.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

from repro.storage.serialization import (
    SerializationError,
    read_uvarint,
    write_uvarint,
)
from repro.store.durable import atomic_write

META_NAME = "cluster.json"
JOURNAL_NAME = "rebalance.json"

#: Cutover fence phases.
CUTOVER_BEGIN = 0
CUTOVER_COMMIT = 1

#: Bump when the meta layout changes incompatibly.
META_VERSION = 1


def shard_dir_name(index: int) -> str:
    return f"shard-{index:04d}"


def replica_dir_name(index: int) -> str:
    return f"replica-{index:04d}"


def shard_path(root, index: int) -> pathlib.Path:
    return pathlib.Path(root) / shard_dir_name(index)


def replica_path(root, index: int) -> pathlib.Path:
    return pathlib.Path(root) / replica_dir_name(index)


@dataclass(frozen=True)
class ClusterMeta:
    """The persisted topology of one sharded cluster."""

    shards: int
    """Number of hash partitions (= shard store directories)."""

    epoch: int
    """Rebalance epoch; increments exactly once per committed rebalance."""

    config: tuple
    """The ``(t, d, p, sparse, seed)`` tuple every shard shares."""


def _write_json(path: pathlib.Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    atomic_write(path, text.encode("utf-8"))


def write_meta(root, meta: ClusterMeta) -> None:
    t, d, p, sparse, seed = meta.config
    _write_json(
        pathlib.Path(root) / META_NAME,
        {
            "version": META_VERSION,
            "shards": meta.shards,
            "epoch": meta.epoch,
            "config": {"t": t, "d": d, "p": p, "sparse": bool(sparse), "seed": seed},
        },
    )


def read_meta(root) -> "ClusterMeta | None":
    """The cluster's topology, or ``None`` for an uninitialised root."""
    path = pathlib.Path(root) / META_NAME
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as error:
        raise SerializationError(f"{path}: unreadable cluster metadata: {error}")
    if payload.get("version") != META_VERSION:
        raise SerializationError(
            f"{path}: cluster metadata version {payload.get('version')!r}, "
            f"expected {META_VERSION}"
        )
    try:
        config = payload["config"]
        meta = ClusterMeta(
            shards=int(payload["shards"]),
            epoch=int(payload["epoch"]),
            config=(
                int(config["t"]),
                int(config["d"]),
                int(config["p"]),
                bool(config["sparse"]),
                int(config["seed"]),
            ),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(f"{path}: malformed cluster metadata: {error}")
    if meta.shards < 1:
        raise SerializationError(f"{path}: shard count {meta.shards} < 1")
    return meta


def write_journal(root, epoch: int, from_shards: int, to_shards: int) -> None:
    """Durably record that a rebalance is in flight (written before any step)."""
    _write_json(
        pathlib.Path(root) / JOURNAL_NAME,
        {"epoch": epoch, "from_shards": from_shards, "to_shards": to_shards},
    )


def read_journal(root) -> "tuple[int, int, int] | None":
    """An in-flight rebalance as ``(epoch, from, to)``, ``None`` when clean."""
    path = pathlib.Path(root) / JOURNAL_NAME
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as error:
        raise SerializationError(f"{path}: unreadable rebalance journal: {error}")
    try:
        return (
            int(payload["epoch"]),
            int(payload["from_shards"]),
            int(payload["to_shards"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(f"{path}: malformed rebalance journal: {error}")


def clear_journal(root) -> None:
    try:
        (pathlib.Path(root) / JOURNAL_NAME).unlink()
    except FileNotFoundError:
        pass


# -- cutover fence records -----------------------------------------------------


def encode_cutover(
    epoch: int, from_shards: int, to_shards: int, phase: int
) -> bytes:
    """The ``RECORD_CUTOVER`` payload: four uvarints."""
    if phase not in (CUTOVER_BEGIN, CUTOVER_COMMIT):
        raise ValueError(f"unknown cutover phase {phase}")
    buffer = bytearray()
    write_uvarint(buffer, epoch)
    write_uvarint(buffer, from_shards)
    write_uvarint(buffer, to_shards)
    write_uvarint(buffer, phase)
    return bytes(buffer)


def decode_cutover(payload: bytes) -> tuple[int, int, int, int]:
    """Decode a fence payload back to ``(epoch, from, to, phase)``."""
    offset = 0
    epoch, offset = read_uvarint(payload, offset)
    from_shards, offset = read_uvarint(payload, offset)
    to_shards, offset = read_uvarint(payload, offset)
    phase, offset = read_uvarint(payload, offset)
    if offset != len(payload):
        raise SerializationError(
            f"{len(payload) - offset} trailing bytes after cutover payload"
        )
    if phase not in (CUTOVER_BEGIN, CUTOVER_COMMIT):
        raise SerializationError(f"unknown cutover phase {phase}")
    return epoch, from_shards, to_shards, phase
