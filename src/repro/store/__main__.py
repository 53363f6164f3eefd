"""Durable-store CLI: ``python -m repro.store <command> <directory>``.

Every command first looks at the directory's layout: a directory with
``cluster.json`` is a cluster root (:mod:`repro.cluster`), a directory
with a snapshot is a store, and anything else is neither. ``ingest``,
``query``, ``info``, ``stats`` and ``compact`` serve stores and clusters
alike; a cluster answers every query exactly as one store would,
because its shards own disjoint groups and sketches merge exactly. A
command given a directory of the wrong kind exits 2 and names it;
only ``ingest``, ``replicate`` and ``cluster init`` create anything.

Commands
--------

``ingest``
    Append items to a group, either literal (``--items a b c``) or
    synthetic (``--count N`` distinct integers, offset by ``--offset``).
    On a cluster root the group routes to its owner shard. A directory
    that holds neither kind becomes a new store. ``--crash`` hard-kills
    the process (``os._exit``) after the WAL writes, before any clean
    shutdown — the honest half of a crash-recovery drill.
``query``
    Run one :mod:`repro.query` dialect query, e.g.
    ``query /tmp/s "top 10 where key startswith 'country:'"`` (default
    query: ``estimate all``). Strictly read-only: it never truncates a
    torn WAL tail. It opens a read-only store (every shard, on a
    cluster); ``--reader`` answers through lock-free
    :class:`~repro.store.reader.SnapshotReader` views instead, safe
    against a live writer. Key filters read their groups from the
    materialised view (``--explain`` shows the chosen access path).
    ``--expect N --tolerance F`` turns a single-row result into a check
    (exit 1 on miss) for smoke tests.
``serve``
    A long-running query process over one store: open a reader, refresh
    on an interval, report the durable horizon (and optionally the
    top-k groups) after each refresh. Any number of ``serve`` processes
    can run against one live writer.
``replicate``
    WAL-shipping replication: sync a follower directory from a leader
    store, idempotently by LSN (``--once`` for a single catch-up; the
    default loops like ``serve``). A leader directory that does not
    exist yet is waited for. ``serve`` and ``replicate`` take one store
    (a cluster's shard directory), never a cluster root.
``compact``
    Fold the WAL into a fresh snapshot generation (every shard's, on a
    cluster).
``info``
    A store's generation, LSNs, WAL size and group count; on a cluster
    root, one line per shard with the same fields, plus the skew gauge.
    Read-only like ``query``: it never truncates a torn tail, and on a
    cluster with a pending rebalance it says so and leaves it to the
    next writer open, which completes it.
``stats``
    Observability snapshot: enable :mod:`repro.obs.metrics`, run one
    read pass (replay + refresh + one batched estimate solve) over the
    store or every shard, and export every metric — human-readable by
    default, ``--json`` or ``--prom`` (Prometheus text exposition) for
    machines.
``cluster``
    Horizontal sharding (see :mod:`repro.cluster`):
    ``cluster init DIR --shards N`` creates a hash-partitioned cluster,
    and ``cluster rebalance DIR --shards M`` ships whole group sketches
    to their new owners behind cutover fences.

``serve`` and ``replicate`` emit one structured heartbeat line per
iteration (``refresh``/``sync`` with ``key=value`` fields including the
refresh/apply lag), retry transient errors with bounded exponential
backoff instead of dying, and — when ``REPRO_METRICS`` is on — print a
``metrics ...`` summary line every ``--metrics-every`` iterations.

Example drill::

    python -m repro.store ingest /tmp/s --group demo --count 50000 --crash
    python -m repro.store query /tmp/s "estimate 'demo'" --expect 50000 --tolerance 0.2
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.aggregate import DistinctCountAggregator
from repro.cluster import ClusterSource, ShardedStore
from repro.cluster.meta import META_NAME, read_journal, read_meta
from repro.store import (
    FollowerStore,
    SketchStore,
    SnapshotReader,
    WalShipper,
    latest_generation,
)

#: Exit status of a ``--crash`` ingest (distinguishable from real errors).
CRASH_EXIT_CODE = 3

#: Directory layouts told apart by :func:`_layout`.
CLUSTER = "cluster"
STORE = "store"


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("directory", help="store directory or cluster root")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Durable ExaLogLog sketch store (WAL + snapshots).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    ingest = commands.add_parser("ingest", help="append items to a group")
    ingest.add_argument(
        "directory",
        help="store directory or cluster root (a new store is created "
        "when it holds neither)",
    )
    ingest.add_argument("--group", default="default", help="group key (string)")
    ingest.add_argument("--items", nargs="+", help="literal items to add")
    ingest.add_argument("--count", type=int, help="add COUNT synthetic distinct integers")
    ingest.add_argument("--offset", type=int, default=0, help="first synthetic integer")
    ingest.add_argument("--batch", type=int, default=8192, help="items per WAL record")
    # None means "persisted configuration wins" for an existing store or
    # cluster (SketchStore.open falls back to ELL(2, 20) at p=8 when
    # creating).
    ingest.add_argument("--t", type=int, default=None)
    ingest.add_argument("--d", type=int, default=None)
    ingest.add_argument("--p", type=int, default=None)
    ingest.add_argument("--fsync", action="store_true", help="fsync every WAL record")
    ingest.add_argument(
        "--compact-every",
        type=int,
        metavar="BYTES",
        help="auto-compact when a WAL (each shard's, on a cluster) exceeds BYTES",
    )
    ingest.add_argument(
        "--crash",
        action="store_true",
        help=f"os._exit({CRASH_EXIT_CODE}) after ingest, skipping clean shutdown",
    )

    query = commands.add_parser(
        "query", help="run a read-only repro.query dialect query"
    )
    _add_store_arguments(query)
    query.add_argument(
        "text",
        nargs="?",
        default="estimate all",
        help="dialect query, e.g. \"top 10 where key startswith 'country:'\" "
        '(default: "estimate all")',
    )
    query.add_argument(
        "--reader",
        action="store_true",
        help="answer through lock-free SnapshotReaders, one per shard on a "
        "cluster (safe against a live writer; the durable prefix at open time)",
    )
    query.add_argument(
        "--explain",
        action="store_true",
        help="print the physical plan (chosen access paths) before the rows",
    )
    query.add_argument(
        "--analyze",
        action="store_true",
        help="execute with per-plan-node timing and print the annotated "
        "plan (EXPLAIN ANALYZE) before the rows",
    )
    query.add_argument(
        "--now",
        type=float,
        help="time anchor for 'window' clauses without an explicit 'ending'",
    )
    query.add_argument(
        "--expect",
        type=float,
        help="expected value of a single-row result (exit 1 on miss)",
    )
    query.add_argument(
        "--tolerance",
        type=float,
        default=0.1,
        help="allowed relative error against --expect (default 0.1)",
    )

    serve = commands.add_parser(
        "serve",
        help="long-running reader: refresh on an interval, report the horizon",
    )
    serve.add_argument("directory", help="store directory")
    serve.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="seconds between refreshes (default 1.0)",
    )
    serve.add_argument(
        "--iterations",
        type=int,
        help="stop after N refreshes (default: run until interrupted)",
    )
    serve.add_argument("--top", type=int, help="also print the TOP largest groups")
    serve.add_argument(
        "--max-retries",
        type=int,
        default=5,
        help="consecutive transient-error retries before giving up (default 5)",
    )
    serve.add_argument(
        "--metrics-every",
        type=int,
        default=10,
        metavar="N",
        help="with REPRO_METRICS on, print a metrics line every N "
        "refreshes (default 10)",
    )

    replicate = commands.add_parser(
        "replicate",
        help="ship WAL records from a leader store into a follower directory",
    )
    replicate.add_argument("directory", help="leader store directory")
    replicate.add_argument("follower", help="follower directory (created if absent)")
    replicate.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="seconds between syncs (default 1.0)",
    )
    replicate.add_argument(
        "--iterations",
        type=int,
        help="stop after N syncs (default: run until interrupted)",
    )
    replicate.add_argument("--once", action="store_true", help="one sync, then exit")
    replicate.add_argument(
        "--fsync", action="store_true", help="fsync the follower WAL per record batch"
    )
    replicate.add_argument(
        "--max-retries",
        type=int,
        default=5,
        help="consecutive transient-error retries before giving up (default 5)",
    )
    replicate.add_argument(
        "--metrics-every",
        type=int,
        default=10,
        metavar="N",
        help="with REPRO_METRICS on, print a metrics line every N syncs "
        "(default 10)",
    )

    compact = commands.add_parser("compact", help="fold the WAL into a new snapshot")
    _add_store_arguments(compact)

    info = commands.add_parser("info", help="show store state")
    _add_store_arguments(info)

    stats = commands.add_parser(
        "stats",
        help="run one instrumented read pass and export the metrics",
    )
    _add_store_arguments(stats)
    formats = stats.add_mutually_exclusive_group()
    formats.add_argument(
        "--json", action="store_true", help="machine-readable JSON export"
    )
    formats.add_argument(
        "--prom",
        action="store_true",
        help="Prometheus text exposition (version 0.0.4)",
    )
    stats.add_argument(
        "--no-estimates",
        action="store_true",
        help="skip the batched estimate pass (replay/refresh metrics only)",
    )

    cluster = commands.add_parser(
        "cluster", help="hash-partitioned multi-shard cluster operations"
    )
    cluster_commands = cluster.add_subparsers(dest="cluster_command", required=True)

    cluster_init = cluster_commands.add_parser(
        "init", help="create a cluster root with N shard stores"
    )
    cluster_init.add_argument("directory", help="cluster root directory")
    cluster_init.add_argument(
        "--shards", type=int, required=True, help="number of hash partitions"
    )
    cluster_init.add_argument("--t", type=int, default=None)
    cluster_init.add_argument("--d", type=int, default=None)
    cluster_init.add_argument("--p", type=int, default=None)

    cluster_rebalance = cluster_commands.add_parser(
        "rebalance",
        help="change the shard fan-out by shipping whole group sketches",
    )
    cluster_rebalance.add_argument("directory", help="cluster root directory")
    cluster_rebalance.add_argument(
        "--shards", type=int, required=True, help="new number of hash partitions"
    )

    return parser


def _layout(directory) -> "str | None":
    """What ``directory`` holds: :data:`CLUSTER`, :data:`STORE` or ``None``.

    A cluster root is recognised by its ``cluster.json``, a store by its
    newest snapshot. Looking creates nothing, so a mistyped path stays
    missing.
    """
    if os.path.exists(os.path.join(directory, META_NAME)):
        return CLUSTER
    if latest_generation(directory) is not None:
        return STORE
    return None


def _refuse(command: str, directory, layout: "str | None") -> int:
    """Name a directory of the wrong kind on stderr; exit status 2."""
    reason = {
        None: "is neither a store nor a cluster root",
        STORE: "is a store, not a cluster root",
        CLUSTER: "is a cluster root; name one shard's store directory",
    }[layout]
    print(f"{command}: {directory} {reason}", file=sys.stderr)
    return 2


def _open_writer(directory, layout: "str | None", **options):
    """A writer over ``directory``: the cluster, or a (possibly new) store."""
    if layout == CLUSTER:
        return ShardedStore.open(directory, **options)
    return SketchStore.open(directory, **options)


def _command_ingest(arguments: argparse.Namespace) -> int:
    if arguments.items is None and arguments.count is None:
        print("ingest: need --items or --count", file=sys.stderr)
        return 2
    target = _open_writer(
        arguments.directory,
        _layout(arguments.directory),
        t=arguments.t,
        d=arguments.d,
        p=arguments.p,
        fsync=arguments.fsync,
        auto_compact_bytes=arguments.compact_every,
    )
    appended = 0
    if arguments.items:
        target.append(arguments.group, arguments.items)
        appended += len(arguments.items)
    if arguments.count:
        import numpy as np

        for start in range(0, arguments.count, arguments.batch):
            stop = min(start + arguments.batch, arguments.count)
            values = np.arange(
                arguments.offset + start, arguments.offset + stop, dtype=np.int64
            )
            target.append(arguments.group, values)
            appended += len(values)
    print(f"appended {appended} items to group {arguments.group!r}")
    if arguments.crash:
        print("simulating crash: exiting without clean shutdown", flush=True)
        os._exit(CRASH_EXIT_CODE)
    target.close()
    return 0


def _command_query(arguments: argparse.Namespace) -> int:
    """One dialect query, planned and executed by :mod:`repro.query`.

    Read-only on both layouts: a read-only store (or, with ``--reader``,
    a lock-free reader) binds the plan's default scan, one per shard on
    a cluster; every estimate resolves through the batched one-solve
    path.
    """
    from repro.query import DEFAULT_SOURCE, ParseError, execute, explain, parse

    layout = _layout(arguments.directory)
    if layout is None:
        return _refuse("query", arguments.directory, layout)
    try:
        plan = parse(arguments.text)
    except ParseError as error:
        print(f"query: {error}", file=sys.stderr)
        return 2
    if layout == CLUSTER:
        source = ClusterSource.open(arguments.directory, reader=arguments.reader)
    elif arguments.reader:
        source = SnapshotReader.open(arguments.directory)
    else:
        source = SketchStore.open(arguments.directory, read_only=True)
    with source:
        if arguments.explain and not arguments.analyze:
            for line in explain(plan, {DEFAULT_SOURCE: source}):
                print(line)
        result = execute(plan, source, now=arguments.now, analyze=arguments.analyze)
        if arguments.analyze:
            for line in explain(plan, {DEFAULT_SOURCE: source}, profile=result.profile):
                print(line)
        for key, estimate in result.rows:
            print(f"{DistinctCountAggregator.decode_key(key)}\t{estimate:.1f}")
        if isinstance(source, SnapshotReader):
            print(f"generation {source.generation}, durable LSN {source.durable_lsn}")
    if arguments.expect is not None:
        if len(result.rows) != 1:
            print(
                f"query: --expect needs a single-row result, got "
                f"{len(result.rows)} rows",
                file=sys.stderr,
            )
            return 2
        error = abs(result.value / arguments.expect - 1.0)
        status = "ok" if error <= arguments.tolerance else "FAIL"
        print(
            f"expected {arguments.expect:.0f}, relative error "
            f"{error:.4f} (tolerance {arguments.tolerance}) -> {status}"
        )
        return 0 if status == "ok" else 1
    return 0


#: Exceptions the serve/replicate loops survive with backoff: filesystem
#: races against a live writer (OSError covers vanished files mid-open)
#: and torn/garbled reads a later attempt will see past.
def _transient_errors() -> tuple:
    from repro.storage.serialization import SerializationError

    return (OSError, SerializationError)


def _metrics_line(prefixes: "tuple[str, ...]") -> str:
    """One ``metrics ...`` summary line for the named metric families."""
    from repro.obs import metrics as _metrics

    parts = []
    for metric in _metrics.REGISTRY.metrics():
        if not metric.name.startswith(prefixes):
            continue
        name = metric.name + metric._label_suffix()
        if metric.kind == "histogram":
            if metric.count:
                parts.append(
                    f"{name}.count={metric.count} {name}.p50={metric.quantile(0.5):.6g}"
                )
        else:
            parts.append(f"{name}={metric.value:.6g}")
    return "metrics " + " ".join(parts) if parts else "metrics (none)"


def _retry_loop(arguments, step, heartbeat, metric_prefixes, stop) -> int:
    """Shared serve/replicate skeleton: step, heartbeat, backoff, repeat.

    ``step()`` does one refresh/sync and returns its result; transient
    errors back off exponentially (capped at 30s) and only ``--max-retries``
    *consecutive* failures abort. ``heartbeat(iteration, result, lag)``
    prints the structured progress line; ``stop(iteration)`` ends the loop.
    """
    import time

    from repro.obs import metrics as _metrics

    transient = _transient_errors()
    iteration = 0
    failures = 0
    last_progress = time.monotonic()
    while True:
        try:
            result = step()
        except transient as error:
            failures += 1
            if failures > arguments.max_retries:
                print(
                    f"giving up after {failures} consecutive transient "
                    f"errors: {error}",
                    file=sys.stderr,
                    flush=True,
                )
                return 1
            delay = min(max(arguments.interval, 0.05) * (2 ** (failures - 1)), 30.0)
            print(
                f"warn transient={type(error).__name__} attempt={failures} "
                f"retry_in={delay:.2f}s error={error!s:.200}",
                file=sys.stderr,
                flush=True,
            )
            time.sleep(delay)
            continue
        failures = 0
        iteration += 1
        now = time.monotonic()
        progressed, line = heartbeat(iteration, result)
        if progressed:
            last_progress = now
        print(f"{line} lag={now - last_progress:.3f}s", flush=True)
        if _metrics.enabled() and iteration % max(arguments.metrics_every, 1) == 0:
            print(_metrics_line(metric_prefixes), flush=True)
        if stop(iteration):
            return 0
        time.sleep(arguments.interval)


def _command_serve(arguments: argparse.Namespace) -> int:
    """Poll-refresh loop of one query-serving reader process."""
    layout = _layout(arguments.directory)
    if layout != STORE:
        return _refuse("serve", arguments.directory, layout)
    with SnapshotReader.open(arguments.directory) as reader:

        def heartbeat(iteration, result):
            line = (
                f"refresh {iteration}: generation={reader.generation} "
                f"lsn={result.durable_lsn} groups={len(reader)} "
                f"applied={result.records_applied}"
            )
            if arguments.top is not None:
                for key, estimate in reader.top(arguments.top):
                    print(
                        f"  {DistinctCountAggregator.decode_key(key)}\t{estimate:.1f}",
                        flush=True,
                    )
            return result.records_applied > 0 or result.generation_changed, line

        return _retry_loop(
            arguments,
            step=reader.refresh,
            heartbeat=heartbeat,
            metric_prefixes=("reader.", "estimation.", "query."),
            stop=lambda iteration: (
                arguments.iterations is not None
                and iteration >= arguments.iterations
            ),
        )


def _command_replicate(arguments: argparse.Namespace) -> int:
    """Shipper loop: leader WAL records -> follower, idempotent by LSN."""
    if _layout(arguments.directory) == CLUSTER:
        return _refuse("replicate", arguments.directory, CLUSTER)
    # Constructed inside the retried step: a leader directory that does
    # not exist *yet* (FileNotFoundError is an OSError) is just another
    # transient the backoff loop waits out.
    shipper_box: "list[WalShipper]" = []

    def step():
        if not shipper_box:
            shipper_box.append(WalShipper(arguments.directory))
        return shipper_box[0].sync(follower)

    with FollowerStore.open(arguments.follower, fsync=arguments.fsync) as follower:

        def heartbeat(iteration, result):
            line = (
                f"sync {iteration}: lsn={result.follower_lsn} "
                f"shipped={result.records_shipped} "
                f"snapshot={'yes' if result.snapshot_installed else 'no'} "
                f"groups={len(follower)}"
            )
            progressed = result.records_shipped > 0 or result.snapshot_installed
            return progressed, line

        return _retry_loop(
            arguments,
            step=step,
            heartbeat=heartbeat,
            metric_prefixes=("replicate.",),
            stop=lambda iteration: arguments.once
            or (
                arguments.iterations is not None
                and iteration >= arguments.iterations
            ),
        )


def _command_compact(arguments: argparse.Namespace) -> int:
    layout = _layout(arguments.directory)
    if layout is None:
        return _refuse("compact", arguments.directory, layout)
    with _open_writer(arguments.directory, layout) as target:
        generation = target.compact()
        print(f"compacted to generation {generation} ({len(target)} groups)")
    return 0


def _command_info(arguments: argparse.Namespace) -> int:
    layout = _layout(arguments.directory)
    if layout is None:
        return _refuse("info", arguments.directory, layout)
    if layout == CLUSTER:
        root = arguments.directory
        with ClusterSource.open(root) as cluster:
            print(
                f"cluster:  {root} ({cluster.shards} shards, "
                f"epoch {read_meta(root).epoch}, {len(cluster)} groups)"
            )
            for index, shard in enumerate(cluster.members):
                print(
                    f"shard {index:4d}: groups={len(shard)} "
                    f"generation={shard.generation} "
                    f"wal_records={shard.wal_records} "
                    f"wal_bytes={shard.wal_bytes} "
                    f"durable_lsn={shard.durable_lsn}"
                )
            print(f"skew:     {cluster.skew():.3f} (1.0 = balanced)")
        journal = read_journal(root)
        if journal is not None:
            epoch, from_shards, to_shards = journal
            print(
                f"rebalance: {from_shards} -> {to_shards} shards (epoch {epoch}) "
                "pending; the next writer open completes it"
            )
        return 0
    with SketchStore.open(arguments.directory, read_only=True) as store:
        config = store.config
        print(f"directory:   {store.directory}")
        print(f"config:      t={config[0]} d={config[1]} p={config[2]} sparse={config[3]} seed={config[4]}")
        print(f"generation:  {store.generation}")
        print(f"groups:      {len(store)}")
        print(f"wal records: {store.wal_records}")
        print(f"wal bytes:   {store.wal_bytes}")
        print(f"base lsn:    {store.base_lsn}")
        print(f"durable lsn: {store.durable_lsn}")
    return 0


def _command_stats(arguments: argparse.Namespace) -> int:
    """One instrumented read pass, then export every metric it produced.

    Enables :mod:`repro.obs.metrics` programmatically (no environment
    variable needed), opens the store (every shard, on a cluster)
    through read-only :class:`SnapshotReader` views (safe against a live
    writer), refreshes, and runs one batched estimate solve so the
    estimation metrics populate too — then prints the registry.
    """
    from repro.obs import metrics as _metrics

    layout = _layout(arguments.directory)
    if layout is None:
        return _refuse("stats", arguments.directory, layout)
    _metrics.enable()
    if layout == CLUSTER:
        source = ClusterSource.open(arguments.directory, reader=True)
    else:
        source = SnapshotReader.open(arguments.directory)
    with source:
        source.refresh()
        if not arguments.no_estimates:
            source.estimates()
        if layout == CLUSTER:
            header = [("shards", source.shards)]
        else:
            header = [
                ("generation", source.generation),
                ("durable lsn", source.durable_lsn),
            ]
        header.append(("groups", len(source)))
    if arguments.json:
        print(_metrics.to_json(indent=2))
    elif arguments.prom:
        sys.stdout.write(_metrics.to_prometheus())
    else:
        for label, value in header:
            print(f"{label + ':':<12} {value}")
        print()
        for metric in _metrics.REGISTRY.metrics():
            name = metric.name + metric._label_suffix()
            if metric.kind == "histogram":
                if not metric.count:
                    continue
                print(
                    f"histogram {name}: count={metric.count} "
                    f"mean={metric.mean:.6g} p50={metric.quantile(0.5):.6g} "
                    f"p99={metric.quantile(0.99):.6g}"
                )
            else:
                print(f"{metric.kind} {name}: {metric.value:.6g}")
    return 0


def _command_cluster(arguments: argparse.Namespace) -> int:
    """Dispatch ``cluster init|rebalance``."""
    layout = _layout(arguments.directory)
    if arguments.cluster_command == "init":
        if layout == STORE:
            return _refuse("cluster init", arguments.directory, layout)
        with ShardedStore.open(
            arguments.directory,
            shards=arguments.shards,
            t=arguments.t,
            d=arguments.d,
            p=arguments.p,
        ) as cluster:
            print(
                f"initialised cluster at {cluster.root} with "
                f"{cluster.shards} shards (config {cluster.config})"
            )
        return 0
    if layout != CLUSTER:
        return _refuse("cluster rebalance", arguments.directory, layout)
    with ShardedStore.open(arguments.directory) as cluster:
        result = cluster.rebalance(arguments.shards)
        print(
            f"rebalanced {result.from_shards} -> {result.to_shards} shards "
            f"(epoch {result.epoch}): moved {result.moved_groups} groups, "
            f"shipped {result.shipped_bytes} sketch bytes"
        )
    return 0


def main(argv: "list[str] | None" = None) -> int:
    arguments = build_parser().parse_args(argv)
    handler = {
        "ingest": _command_ingest,
        "query": _command_query,
        "serve": _command_serve,
        "replicate": _command_replicate,
        "compact": _command_compact,
        "info": _command_info,
        "stats": _command_stats,
        "cluster": _command_cluster,
    }[arguments.command]
    try:
        return handler(arguments)
    except BrokenPipeError:
        # A downstream consumer closed the pipe (serve | head, | grep -q).
        # Point stdout at devnull so interpreter shutdown does not raise
        # again while flushing, and exit quietly: truncated output is the
        # consumer's choice, not an error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
