"""Layer tracing from outside the program.

The benchmark times calls into each layer's public functions without
editing a source file: :func:`install` swaps every call site in
:data:`SITES` for a wrapper, in every ``repro.*`` module that bound the
function by name (and on the class, for methods), and :func:`uninstall`
puts the originals back. ``store.fsync`` wraps ``os.fsync`` itself, the
device boundary every durable write goes through.

A wrapper records a span only while the :class:`Tracer` is inside a
timed op; outside one (set-up, reference computations for the
correctness checks) it calls straight through. Spans live in flat typed
arrays — id, parent id, site, start, end, op index and a work count —
so a million spans cost tens of MB, and are written out once at the end.

Self time is a span's duration minus the durations of its direct
children; summed over every span of an op it telescopes to the op's
duration, so the sites' self times plus the op roots' uncovered time
account for all of it.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

MEM = "ingest_mem"
DURABLE = "ingest_durable"
SPILL = "spill_highcard"
SERVE = "recover_serve"
WORKLOADS = (MEM, DURABLE, SPILL, SERVE)

#: Ops whose children are ingest front ends (batches).
INGEST_OP = "ingest"

#: Largest gap allowed between a workload's op time and the summed
#: durations of the spans directly under its ops.
CLOSURE_TOLERANCE = 0.05


def _rows_arg(position: int) -> Callable:
    def count(args, kwargs, result) -> int:
        try:
            return len(args[position])
        except (IndexError, TypeError):
            return 1

    return count


def _rows_result(args, kwargs, result) -> int:
    return len(result)


def _records_replayed(args, kwargs, result) -> int:
    return result.records


def _rows_returned(args, kwargs, result) -> int:
    return len(result.rows)


@dataclass(frozen=True)
class Site:
    """One wrapped public call site."""

    name: str
    """Metric prefix: the module path under ``repro`` plus the function."""

    target: str
    """``module:function`` or ``module:Class.method``."""

    workloads: tuple
    """Workloads on which the site must record at least one call."""

    count: "Callable | None" = None
    """Work units of one call (rows, records, segments); 1 when absent."""


SITES = (
    Site("hashing.batch.hash_items", "repro.hashing.batch:hash_items", WORKLOADS, _rows_result),
    Site("aggregate.add_batch", "repro.aggregate:DistinctCountAggregator.add_batch", (MEM, SPILL), _rows_arg(2)),
    Site("aggregate.estimates", "repro.aggregate:DistinctCountAggregator.estimates", (MEM,)),
    Site("aggregate.top", "repro.aggregate:DistinctCountAggregator.top", WORKLOADS),
    Site("core.sparse.add_hashes", "repro.core.sparse:SparseExaLogLog.add_hashes", WORKLOADS, _rows_arg(1)),
    Site("core.exaloglog.add_hashes", "repro.core.exaloglog:ExaLogLog.add_hashes", WORKLOADS, _rows_arg(1)),
    Site("backends.exaloglog_registers", "repro.backends.bulk:exaloglog_registers", WORKLOADS, _rows_arg(0)),
    Site("backends.merge_exaloglog_registers", "repro.backends.bulk:merge_exaloglog_registers", WORKLOADS),
    Site("backends.tokenize_hashes", "repro.backends.bulk:tokenize_hashes", WORKLOADS, _rows_arg(0)),
    Site("store.sketchstore.open", "repro.store.sketchstore:SketchStore.open", (DURABLE, SERVE)),
    Site("store.sketchstore.append_hashes", "repro.store.sketchstore:SketchStore.append_hashes", (DURABLE, SERVE), _rows_arg(2)),
    Site("store.sketchstore.replay_wal", "repro.store.sketchstore:replay_wal", (DURABLE, SERVE), _records_replayed),
    Site("store.sketchstore.apply_wal_record", "repro.store.sketchstore:apply_wal_record", (DURABLE, SERVE)),
    Site("store.fsync", "os:fsync", (DURABLE,)),
    Site("store.spill.write_segments", "repro.store.spill:SpilledGroupBy.write_segments", (SPILL,), _rows_arg(1)),
    Site("store.spill.top", "repro.store.spill:SpilledGroupBy.top", (SPILL,)),
    Site("store.reader.refresh", "repro.store.reader:SnapshotReader.refresh", (SERVE,)),
    Site("store.reader.group_sketch", "repro.store.reader:SnapshotReader.group_sketch", (SERVE,)),
    Site("store.replicate.sync", "repro.store.replicate:WalShipper.sync", (SERVE,)),
    Site("store.replicate.apply_record", "repro.store.replicate:FollowerStore.apply_record", (SERVE,)),
    Site("cluster.open", "repro.cluster.sharded:ShardedStore.open", (DURABLE, SERVE)),
    Site("cluster.add_batch", "repro.cluster.sharded:ShardedStore.add_batch", (DURABLE, SERVE), _rows_arg(2)),
    Site("cluster.source.open", "repro.cluster.source:ClusterSource.open", (SERVE,)),
    Site("estimation.batch.register_coefficients", "repro.estimation.batch:register_coefficients", WORKLOADS, _rows_arg(0)),
    Site("estimation.batch.solve_ml_equations", "repro.estimation.batch:solve_ml_equations", WORKLOADS, _rows_arg(0)),
    Site("query.parse", "repro.query.dialect:parse", (SERVE,)),
    Site("query.execute", "repro.query.executor:execute", WORKLOADS, _rows_returned),
)

SITE_INDEX = {site.name: index for index, site in enumerate(SITES)}

#: Ratio metrics: name -> unit (computed by :func:`layer_metrics`).
RATIOS = {
    "aggregate.segments_per_batch": "segments/batch",
    "core.rows_per_fold": "rows/fold",
    "store.records_per_batch": "records/batch",
    "store.fsync_per_batch": "fsyncs/batch",
    "store.wal_bytes_per_row": "bytes/row",
    "store.spill.bytes_per_row": "bytes/row",
    "store.replay_records_per_s": "records/s",
    "estimation.rows_per_solve": "rows/solve",
    "query.rows_examined_per_row_returned": "rows/row",
}


def layer_metric_names() -> "list[str]":
    """Every per-layer metric name, in report order."""
    names = []
    for site in SITES:
        names += [f"{site.name}.calls", f"{site.name}.self_s", f"{site.name}.share"]
    return names + list(RATIOS)


class Tracer:
    """In-memory span recorder for one workload process."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.parents = array("i")
        self.sites = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.ops = array("i")
        self.counts = array("q")
        self.stack: "list[int]" = []
        self.op_kinds: "list[str]" = []
        self._kind_ids: "dict[str, int]" = {}

    # -- op roots (opened by the benchmark's op clock) --------------------------

    def begin_op(self, kind: str) -> int:
        """Open the root span of one timed op; sites record spans under it.

        The caller stamps the root's start and end with the times it
        measured itself (:meth:`end_op`), so the root's duration is
        exactly the op time of the untraced code path.
        """
        kind_id = self._kind_ids.setdefault(kind, len(SITES) + len(self._kind_ids))
        self.op_kinds.append(kind)
        span = len(self.starts)
        self.parents.append(-1)
        self.sites.append(kind_id)
        self.ops.append(len(self.op_kinds) - 1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.counts.append(1)
        self.stack.append(span)
        return span

    def end_op(self, span: int, start: float, end: float) -> None:
        self.stack.pop()
        self.starts[span] = start
        self.ends[span] = end

    def span_names(self) -> "list[str]":
        """Name of every site id: the sites, then ``op.<kind>`` roots."""
        kinds = sorted(self._kind_ids, key=self._kind_ids.get)
        return [site.name for site in SITES] + [f"op.{kind}" for kind in kinds]

    # -- wrappers ---------------------------------------------------------------

    def wrap(self, site_id: int, original: Callable, count: "Callable | None"):
        stack = self.stack
        parents, sites, starts, ends = self.parents, self.sites, self.starts, self.ends
        ops, counts, op_kinds = self.ops, self.counts, self.op_kinds

        def traced(*args, **kwargs):
            if not stack:
                return original(*args, **kwargs)
            span = len(starts)
            parents.append(stack[-1])
            sites.append(site_id)
            ops.append(len(op_kinds) - 1)
            ends.append(0.0)
            counts.append(1)
            stack.append(span)
            starts.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[span] = perf_counter()
                stack.pop()
            if count is not None:
                counts[span] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", "traced")
        traced.__doc__ = getattr(original, "__doc__", None)
        return traced

    # -- analysis ---------------------------------------------------------------

    def arrays(self) -> dict:
        """The spans as NumPy arrays plus derived duration and self time."""
        parent = np.frombuffer(self.parents, dtype=np.int32).astype(np.int64)
        site = np.frombuffer(self.sites, dtype=np.int32)
        start = np.frombuffer(self.starts, dtype=np.float64)
        end = np.frombuffer(self.ends, dtype=np.float64)
        op = np.frombuffer(self.ops, dtype=np.int32)
        count = np.frombuffer(self.counts, dtype=np.int64)
        duration = end - start
        return {
            "parent": parent,
            "site": site,
            "start": start,
            "end": end,
            "op": op,
            "count": count,
            "duration": duration,
            "self": self_times(parent, duration),
        }

    def write_jsonl(self, path) -> None:
        """One JSON object per span, in open order."""
        spans = self.arrays()
        origin = float(spans["start"][0]) if len(spans["start"]) else 0.0
        names = self.span_names()
        with open(path, "w", encoding="utf-8") as handle:
            for span, (parent, site, start, end, op) in enumerate(
                zip(
                    spans["parent"].tolist(),
                    spans["site"].tolist(),
                    (spans["start"] - origin).tolist(),
                    (spans["end"] - origin).tolist(),
                    spans["op"].tolist(),
                )
            ):
                handle.write(
                    f'{{"id":{span},"parent":{parent},"name":"{names[site]}",'
                    f'"start":{start:.9f},"end":{end:.9f},'
                    f'"workload":"{self.workload}","op":{op}}}\n'
                )


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children."""
    has_parent = parent >= 0
    children = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - children


def _under(parent: np.ndarray, marked: np.ndarray) -> np.ndarray:
    """Spans that are ``marked`` or have a ``marked`` ancestor."""
    inside = marked.copy()
    ancestor = parent.copy()
    while True:
        live = ancestor >= 0
        if not live.any():
            return inside
        inside[live] |= marked[ancestor[live]]
        ancestor[live] = parent[ancestor[live]]


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def layer_metrics(tracer: Tracer, facts: dict, speed: float = 1.0) -> "tuple[dict, dict]":
    """Per-layer metrics plus the closure figures of one traced workload.

    ``facts`` carries what the workload measured outside the spans:
    ``rows`` ingested, ``wal_bytes`` appended to WAL files and
    ``spill_bytes`` written to spill files. ``speed`` is the run's host
    speed (:mod:`hostspeed`); self times and rates are normalised by it
    like the end-to-end times, while shares and the closure are ratios
    of raw times.
    """
    spans = tracer.arrays()
    parent, site, count = spans["parent"], spans["site"], spans["count"]
    duration, self_time = spans["duration"], spans["self"]
    n_sites = len(SITES)
    is_site = site < n_sites
    is_root = ~is_site
    op_time = float(duration[is_root].sum())

    site_of = site[is_site]
    calls = np.bincount(site_of, minlength=n_sites)
    self_s = np.bincount(site_of, weights=self_time[is_site], minlength=n_sites)
    metrics = {}
    for index, spec in enumerate(SITES):
        metrics[f"{spec.name}.calls"] = (int(calls[index]), "count")
        metrics[f"{spec.name}.self_s"] = (float(self_s[index]) * speed, "s")
        metrics[f"{spec.name}.share"] = (_ratio(self_s[index], op_time), "fraction")

    def at(name: str) -> np.ndarray:
        return site == SITE_INDEX[name]

    op_kind = np.array(tracer.op_kinds + [""], dtype=object)[spans["op"]]
    in_ingest = op_kind == INGEST_OP
    batches = int((is_root & in_ingest).sum())
    parent_site = np.where(parent >= 0, site[np.maximum(parent, 0)], -1)

    # Segments the grouped front end handed on, per batch: the direct
    # children of aggregate.add_batch / cluster.add_batch except the hash
    # pass (a spill hand-off carries all of its segments in one call).
    front = at("aggregate.add_batch") | at("cluster.add_batch")
    handed = is_site & front[np.maximum(parent, 0)] & (parent >= 0) & in_ingest
    handed &= ~at("hashing.batch.hash_items")
    segments = np.where(at("store.spill.write_segments"), count, 1)[handed].sum()

    core = at("core.sparse.add_hashes") | at("core.exaloglog.add_hashes")
    core_sites = [SITE_INDEX["core.sparse.add_hashes"], SITE_INDEX["core.exaloglog.add_hashes"]]
    outermost = core & ~np.isin(parent_site, core_sites)
    replay = at("store.sketchstore.replay_wal")
    solve = at("estimation.batch.solve_ml_equations")
    execute = at("query.execute")
    rows = facts.get("rows", 0)
    ratios = {
        "aggregate.segments_per_batch": _ratio(segments, batches),
        "core.rows_per_fold": _ratio(count[outermost].sum(), outermost.sum()),
        "store.records_per_batch": _ratio((at("store.sketchstore.append_hashes") & in_ingest).sum(), batches),
        "store.fsync_per_batch": _ratio((at("store.fsync") & in_ingest).sum(), batches),
        "store.wal_bytes_per_row": _ratio(facts.get("wal_bytes", 0), rows),
        "store.spill.bytes_per_row": _ratio(facts.get("spill_bytes", 0), rows),
        "store.replay_records_per_s": _ratio(count[replay].sum(), duration[replay].sum() * speed),
        "estimation.rows_per_solve": _ratio(count[solve].sum(), solve.sum()),
        "query.rows_examined_per_row_returned": _ratio(
            count[solve & _under(parent, execute)].sum(), count[execute].sum()
        ),
    }
    metrics.update((name, (value, RATIOS[name])) for name, value in ratios.items())

    top_level = is_site & (parent >= 0) & is_root[np.maximum(parent, 0)]
    covered = float(duration[top_level].sum())
    closure = {
        "op_time_s": op_time,
        "top_level_s": covered,
        "gap": 1.0 - _ratio(covered, op_time),
        "spans": int(len(site)),
    }
    return metrics, closure


def coverage_failures(workload: str, metrics: dict, closure: dict) -> "list[str]":
    """Sites silent on a workload that must reach them, plus a closure gap."""
    failures = [
        f"site {site.name} recorded no calls on {workload}"
        for site in SITES
        if workload in site.workloads and metrics[f"{site.name}.calls"][0] == 0
    ]
    if abs(closure["gap"]) > CLOSURE_TOLERANCE:
        failures.append(
            f"top-level spans cover {closure['top_level_s']:.4f} s of "
            f"{closure['op_time_s']:.4f} s op time on {workload} "
            f"(gap {closure['gap']:.1%} > {CLOSURE_TOLERANCE:.0%})"
        )
    return failures


# -- installation ----------------------------------------------------------------


def _resolve(target: str):
    """``(owner, attribute, original, descriptor)`` for a site target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attribute = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    if classes:
        descriptor = owner.__dict__[attribute]
        if isinstance(descriptor, (classmethod, staticmethod)):
            return owner, attribute, descriptor.__func__, type(descriptor)
        return owner, attribute, descriptor, None
    return owner, attribute, getattr(owner, attribute), None


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def install(tracer: Tracer) -> "list[tuple]":
    """Wrap every site for ``tracer``; returns the undo log for :func:`uninstall`.

    Resolving the targets first imports their packages, which are the
    modules that re-export them. Functions are then rebound in every
    loaded ``repro.*`` module that holds them by name (``from x import f``
    copies included); methods are replaced on their class, which every
    caller looks up through.
    """
    resolved = [_resolve(site.target) for site in SITES]
    modules = _repro_modules()
    undo = []
    for site_id, (site, (owner, attribute, original, descriptor)) in enumerate(zip(SITES, resolved)):
        wrapper = tracer.wrap(site_id, original, site.count)
        if isinstance(owner, type):
            undo.append((owner, attribute, owner.__dict__[attribute]))
            setattr(owner, attribute, descriptor(wrapper) if descriptor else wrapper)
            continue
        for holder in [owner] + [module for module in modules if module is not owner]:
            for name, value in list(vars(holder).items()):
                if value is original:
                    undo.append((holder, name, original))
                    setattr(holder, name, wrapper)
    return undo


def uninstall(undo: "list[tuple]") -> None:
    for holder, name, original in reversed(undo):
        setattr(holder, name, original)
