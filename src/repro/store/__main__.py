"""Durable-store CLI: ``python -m repro.store <command> <directory>``.

Commands
--------

``ingest``
    Append items to a group, either literal (``--items a b c``) or
    synthetic (``--count N`` distinct integers, offset by ``--offset``).
    ``--crash`` hard-kills the process (``os._exit``) after the WAL
    writes, before any clean shutdown — the honest half of a
    crash-recovery drill.
``query``
    Run one :mod:`repro.query` dialect query over the store, e.g.
    ``query /tmp/s "top 10 where key startswith 'country:'"`` (default
    query: ``estimate all``). ``--reader`` answers through a lock-free
    :class:`~repro.store.reader.SnapshotReader` instead — strictly
    read-only (never truncates a torn WAL tail) and safe against a live
    writer; key filters read their groups from the reader's
    materialised view (``--explain`` shows the chosen access path).
    ``--expect N --tolerance F`` turns a single-row result into a check
    (exit 1 on miss) for smoke tests.
``serve``
    A long-running query process: open a reader, refresh on an
    interval, report the durable horizon (and optionally the top-k
    groups) after each refresh. Any number of ``serve`` processes can
    run against one live writer.
``replicate``
    WAL-shipping replication: sync a follower directory from a leader
    store, idempotently by LSN (``--once`` for a single catch-up; the
    default loops like ``serve``).
``compact``
    Fold the WAL into a fresh snapshot generation.
``info``
    Show generation, LSNs, WAL size, and group count.
``cluster``
    Horizontal sharding (see :mod:`repro.cluster`):
    ``cluster init DIR --shards N`` creates a hash-partitioned cluster,
    ``cluster ingest`` routes batches by ``shard_of(key, N)``,
    ``cluster query`` scatter-gathers the same dialect over every shard
    (``--reader`` for lock-free per-shard readers), ``cluster rebalance
    --shards M`` ships whole group sketches to their new owners behind
    cutover fences, and ``cluster status`` prints per-shard health plus
    the skew gauge.
``stats``
    Observability snapshot: enable :mod:`repro.obs.metrics`, run one
    read pass (replay + refresh + a batched estimate solve) over the
    store, and export every metric — human-readable by default,
    ``--json`` or ``--prom`` (Prometheus text exposition) for machines.

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
from repro.store import FollowerStore, SketchStore, SnapshotReader, WalShipper

#: Exit status of a ``--crash`` ingest (distinguishable from real errors).
CRASH_EXIT_CODE = 3


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("directory", help="store directory (created if absent)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Durable ExaLogLog sketch store (WAL + snapshots).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    ingest = commands.add_parser("ingest", help="append items to a group")
    _add_store_arguments(ingest)
    ingest.add_argument("--group", default="default", help="group key (string)")
    ingest.add_argument("--items", nargs="+", help="literal items to add")
    ingest.add_argument("--count", type=int, help="add COUNT synthetic distinct integers")
    ingest.add_argument("--offset", type=int, default=0, help="first synthetic integer")
    ingest.add_argument("--batch", type=int, default=8192, help="items per WAL record")
    # None means "persisted configuration wins" for an existing store
    # (SketchStore.open falls back to ELL(2, 20) at p=8 when creating).
    ingest.add_argument("--t", type=int, default=None)
    ingest.add_argument("--d", type=int, default=None)
    ingest.add_argument("--p", type=int, default=None)
    ingest.add_argument("--fsync", action="store_true", help="fsync every WAL record")
    ingest.add_argument(
        "--compact-every",
        type=int,
        metavar="BYTES",
        help="auto-compact when the WAL exceeds BYTES",
    )
    ingest.add_argument(
        "--crash",
        action="store_true",
        help=f"os._exit({CRASH_EXIT_CODE}) after ingest, skipping clean shutdown",
    )

    query = commands.add_parser(
        "query", help="run a repro.query dialect query over the store"
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
        help="answer through a lock-free read-only SnapshotReader "
        "(safe against a live writer; the durable prefix at open time)",
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
    _add_store_arguments(serve)
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

    cluster_ingest = cluster_commands.add_parser(
        "ingest", help="append items, routed to each group's owner shard"
    )
    cluster_ingest.add_argument("directory", help="cluster root directory")
    cluster_ingest.add_argument("--group", default="default", help="group key (string)")
    cluster_ingest.add_argument("--items", nargs="+", help="literal items to add")
    cluster_ingest.add_argument(
        "--count", type=int, help="add COUNT synthetic distinct integers"
    )
    cluster_ingest.add_argument(
        "--offset", type=int, default=0, help="first synthetic integer"
    )
    cluster_ingest.add_argument(
        "--batch", type=int, default=8192, help="items per WAL record"
    )
    cluster_ingest.add_argument(
        "--fsync", action="store_true", help="fsync every WAL record"
    )
    cluster_ingest.add_argument(
        "--crash",
        action="store_true",
        help=f"os._exit({CRASH_EXIT_CODE}) after ingest, skipping clean shutdown",
    )

    cluster_query = cluster_commands.add_parser(
        "query", help="scatter-gather one dialect query over every shard"
    )
    cluster_query.add_argument("directory", help="cluster root directory")
    cluster_query.add_argument(
        "text", nargs="?", default="estimate all", help='dialect query (default: "estimate all")'
    )
    cluster_query.add_argument(
        "--reader",
        action="store_true",
        help="open lock-free per-shard SnapshotReaders instead of read-only stores",
    )
    cluster_query.add_argument(
        "--explain", action="store_true", help="print the physical plan before the rows"
    )
    cluster_query.add_argument(
        "--analyze",
        action="store_true",
        help="execute with per-plan-node timing (EXPLAIN ANALYZE)",
    )
    cluster_query.add_argument(
        "--now", type=float, help="time anchor for 'window' clauses"
    )
    cluster_query.add_argument(
        "--expect",
        type=float,
        help="expected value of a single-row result (exit 1 on miss)",
    )
    cluster_query.add_argument(
        "--tolerance",
        type=float,
        default=0.1,
        help="allowed relative error against --expect (default 0.1)",
    )

    cluster_rebalance = cluster_commands.add_parser(
        "rebalance",
        help="change the shard fan-out by shipping whole group sketches",
    )
    cluster_rebalance.add_argument("directory", help="cluster root directory")
    cluster_rebalance.add_argument(
        "--shards", type=int, required=True, help="new number of hash partitions"
    )

    cluster_status = cluster_commands.add_parser(
        "status", help="per-shard health plus the cluster skew gauge"
    )
    cluster_status.add_argument("directory", help="cluster root directory")
    return parser


def _command_ingest(arguments: argparse.Namespace) -> int:
    if arguments.items is None and arguments.count is None:
        print("ingest: need --items or --count", file=sys.stderr)
        return 2
    store = SketchStore.open(
        arguments.directory,
        t=arguments.t,
        d=arguments.d,
        p=arguments.p,
        fsync=arguments.fsync,
        auto_compact_bytes=arguments.compact_every,
    )
    appended = 0
    if arguments.items:
        store.append(arguments.group, arguments.items)
        appended += len(arguments.items)
    if arguments.count:
        import numpy as np

        for start in range(0, arguments.count, arguments.batch):
            stop = min(start + arguments.batch, arguments.count)
            values = np.arange(
                arguments.offset + start, arguments.offset + stop, dtype=np.int64
            )
            store.append(arguments.group, values)
            appended += len(values)
    print(
        f"appended {appended} items to group {arguments.group!r} "
        f"({store.wal_records} WAL records, {store.wal_bytes} WAL bytes)"
    )
    if arguments.crash:
        print("simulating crash: exiting without clean shutdown", flush=True)
        os._exit(CRASH_EXIT_CODE)
    store.close()
    return 0


def _run_dialect_query(source, arguments: argparse.Namespace, footer=None) -> int:
    """Parse/plan/execute one dialect query over an opened ``source``.

    Shared by ``query`` (single store or reader) and ``cluster query``
    (scatter-gather); ``footer()`` prints source-specific trailer lines
    between the rows and the ``--expect`` verdict.
    """
    from repro.query import DEFAULT_SOURCE, ParseError, execute, explain, parse

    try:
        plan = parse(arguments.text)
    except ParseError as error:
        print(f"query: {error}", file=sys.stderr)
        return 2
    if arguments.explain and not arguments.analyze:
        for line in explain(plan, {DEFAULT_SOURCE: source}):
            print(line)
    result = execute(plan, source, now=arguments.now, analyze=arguments.analyze)
    if arguments.analyze:
        for line in explain(plan, {DEFAULT_SOURCE: source}, profile=result.profile):
            print(line)
    for key, estimate in result.rows:
        print(f"{DistinctCountAggregator.decode_key(key)}\t{estimate:.1f}")
    if footer is not None:
        footer()
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


def _command_query(arguments: argparse.Namespace) -> int:
    """One dialect query, planned and executed by :mod:`repro.query`.

    The store (or reader, with ``--reader``) binds the plan's default
    scan; every estimate resolves through the batched one-solve path.
    """
    opener = SnapshotReader.open if arguments.reader else SketchStore.open
    with opener(arguments.directory) as source:
        footer = None
        if arguments.reader:

            def footer():
                print(
                    f"generation {source.generation}, durable LSN "
                    f"{source.durable_lsn}"
                )

        return _run_dialect_query(source, arguments, footer)


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
    with SketchStore.open(arguments.directory) as store:
        generation = store.compact()
        print(f"compacted to generation {generation} ({len(store)} groups)")
    return 0


def _command_info(arguments: argparse.Namespace) -> int:
    with SketchStore.open(arguments.directory) as store:
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
    variable needed), opens the store through a read-only
    :class:`SnapshotReader` (safe against a live writer), refreshes, and
    runs the batched estimate solve so the estimation metrics populate
    too — then prints the registry.
    """
    from repro.obs import metrics as _metrics

    _metrics.enable()
    with SnapshotReader.open(arguments.directory) as reader:
        reader.refresh()
        if not arguments.no_estimates:
            reader.estimates()
        generation = reader.generation
        durable_lsn = reader.durable_lsn
        groups = len(reader)
    if arguments.json:
        print(_metrics.to_json(indent=2))
    elif arguments.prom:
        sys.stdout.write(_metrics.to_prometheus())
    else:
        print(f"generation:  {generation}")
        print(f"durable lsn: {durable_lsn}")
        print(f"groups:      {groups}")
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
    """Dispatch ``cluster init|ingest|query|rebalance|status``."""
    from repro.cluster import ClusterSource, ShardedStore

    command = arguments.cluster_command
    if command == "init":
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
    if command == "ingest":
        if arguments.items is None and arguments.count is None:
            print("cluster ingest: need --items or --count", file=sys.stderr)
            return 2
        cluster = ShardedStore.open(arguments.directory, fsync=arguments.fsync)
        appended = 0
        if arguments.items:
            cluster.append(arguments.group, arguments.items)
            appended += len(arguments.items)
        if arguments.count:
            import numpy as np

            for start in range(0, arguments.count, arguments.batch):
                stop = min(start + arguments.batch, arguments.count)
                values = np.arange(
                    arguments.offset + start, arguments.offset + stop, dtype=np.int64
                )
                cluster.append(arguments.group, values)
                appended += len(values)
        owner = cluster.shard_of(arguments.group)
        print(
            f"appended {appended} items to group {arguments.group!r} "
            f"(shard {owner} of {cluster.shards})"
        )
        if arguments.crash:
            print("simulating crash: exiting without clean shutdown", flush=True)
            os._exit(CRASH_EXIT_CODE)
        cluster.close()
        return 0
    if command == "query":
        with ClusterSource.open(arguments.directory, reader=arguments.reader) as source:
            return _run_dialect_query(source, arguments)
    if command == "rebalance":
        with ShardedStore.open(arguments.directory) as cluster:
            result = cluster.rebalance(arguments.shards)
            print(
                f"rebalanced {result.from_shards} -> {result.to_shards} shards "
                f"(epoch {result.epoch}): moved {result.moved_groups} groups, "
                f"shipped {result.shipped_bytes} sketch bytes"
            )
        return 0
    if command == "status":
        with ShardedStore.open(arguments.directory) as cluster:
            print(
                f"cluster:  {cluster.root} ({cluster.shards} shards, "
                f"epoch {cluster.epoch}, {len(cluster)} groups)"
            )
            for status in cluster.status():
                print(
                    f"shard {status.index:4d}: groups={status.groups} "
                    f"generation={status.generation} "
                    f"wal_records={status.wal_records} "
                    f"wal_bytes={status.wal_bytes} "
                    f"durable_lsn={status.durable_lsn}"
                )
            print(f"skew:     {cluster.skew():.3f} (1.0 = balanced)")
        return 0
    raise AssertionError(f"unknown cluster command {command!r}")


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
