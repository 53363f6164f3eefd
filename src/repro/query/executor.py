"""Plan execution: one engine over every :class:`SketchSource`.

The executor walks a :mod:`repro.query.plan` tree bottom-up. Sketch-
valued nodes (``Scan``, ``Filter``, ``Window``, ``SetOp(union)``)
materialise keyed sketch mappings using the access path chosen by
:mod:`repro.query.planner`; terminal nodes (``Estimate``, ``TopK``,
the scalar set operations) turn sketches into estimate rows through the
batched one-solve path of :mod:`repro.estimation.batch`.

Determinism contract (asserted by the invariant harness): the same plan
over any two sources holding bit-identical group sketches returns
byte-identical keys and float-identical estimates — ``Estimate`` rows
sort by key, ``TopK`` orders by descending estimate with ties broken by
ascending key, and every estimate goes through the batched solver, which
is bit-identical to scalar estimation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.query.plan import (
    DEFAULT_SOURCE,
    Estimate,
    Filter,
    PlanNode,
    Scan,
    SetOp,
    TopK,
    Window,
)
from repro.query.planner import access_path
from repro.query.source import as_source, live_sketches

_EXECUTIONS = _metrics.counter("query.executions", "Plans executed.")
_EXECUTE_SECONDS = _metrics.histogram(
    "query.execute_seconds", "Wall time of one plan execution."
)


@dataclass(frozen=True)
class QueryResult:
    """Rows of one executed plan.

    ``kind`` is ``"estimates"`` (one row per group, sorted by key),
    ``"top"`` (descending estimate, ties by key), or ``"setop"`` (a
    single scalar row named after the operation).
    """

    kind: str
    rows: "tuple[tuple[bytes, float], ...]"

    profile: "dict[int, float] | None" = None
    """Inclusive wall seconds per plan node, keyed by ``id(node)``.

    Populated by ``execute(..., analyze=True)``; feed it to
    :func:`repro.query.planner.explain` to annotate the plan lines."""

    @property
    def value(self) -> float:
        """The single scalar of a one-row result (setop / single group)."""
        if len(self.rows) != 1:
            raise ValueError(f"result has {len(self.rows)} rows, not 1")
        return self.rows[0][1]

    def decoded(self) -> "list[tuple[str, float]]":
        """Rows with display-form keys (UTF-8 where printable, else hex)."""
        from repro.aggregate import DistinctCountAggregator

        return [
            (DistinctCountAggregator.decode_key(key), value)
            for key, value in self.rows
        ]

    def __iter__(self) -> Iterator[tuple[bytes, float]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


class _Context:
    """Bound sources + the execution-time ``now`` anchor.

    ``profile`` is ``None`` normally; under ``analyze`` it accumulates
    inclusive wall seconds per plan node (keyed by ``id(node)``).
    """

    def __init__(
        self,
        sources: "Mapping[str, Any]",
        now: "float | None",
        profile: "dict[int, float] | None" = None,
    ) -> None:
        if now is not None and not math.isfinite(now):
            raise ValueError(f"now must be finite, got {now!r}")
        self.sources = {name: as_source(obj) for name, obj in sources.items()}
        self.now = now
        self.profile = profile

    def source(self, name: str):
        try:
            return self.sources[name]
        except KeyError:
            raise KeyError(
                f"plan references source {name!r}; bound sources: "
                f"{sorted(self.sources)}"
            ) from None


def _bind(source_or_mapping, sources) -> "dict[str, Any]":
    if sources is not None:
        bound = dict(sources)
    else:
        bound = {}
    if source_or_mapping is not None:
        if isinstance(source_or_mapping, Mapping):
            bound.update(source_or_mapping)
        else:
            bound[DEFAULT_SOURCE] = source_or_mapping
    if not bound:
        raise ValueError("no sources bound; pass a source or sources mapping")
    return bound


def execute(
    plan: PlanNode,
    source=None,
    *,
    sources: "Mapping[str, Any] | None" = None,
    now: "float | None" = None,
    analyze: bool = False,
) -> QueryResult:
    """Run ``plan`` and return its rows.

    ``source`` binds the plan's default source; ``sources`` maps
    additional ``Scan`` names. A sketch-valued root gets an implicit
    ``Estimate``. ``now`` anchors ``Window`` nodes without an explicit
    ``end``. With ``analyze`` the result carries per-node inclusive wall
    times (:attr:`QueryResult.profile`) for
    :func:`repro.query.planner.explain` — rows are unchanged.
    """
    obs = _metrics.enabled()
    if not (analyze or obs):
        ctx = _Context(_bind(source, sources), now)
        return _rows(plan, ctx)
    profile: "dict[int, float] | None" = {} if analyze else None
    ctx = _Context(_bind(source, sources), now, profile)
    started = time.perf_counter()
    with _trace.span("query.execute", kind=type(plan).__name__):
        result = _rows(plan, ctx)
    if obs:
        _EXECUTIONS.inc()
        _EXECUTE_SECONDS.observe(time.perf_counter() - started)
    if profile is None:
        return result
    return QueryResult(result.kind, result.rows, profile)


def execute_sketches(
    plan: PlanNode,
    source=None,
    *,
    sources: "Mapping[str, Any] | None" = None,
    now: "float | None" = None,
) -> "dict[bytes, Any]":
    """Materialise a sketch-valued plan as ``{key: private sketch copy}``.

    The bit-identity surface: the invariant harness serializes these to
    prove that the same plan over different layers lands on identical
    sketch bytes, not just close estimates.
    """
    ctx = _Context(_bind(source, sources), now)
    materialised = _materialize(plan, ctx)
    return {key: sketch.copy() for key, sketch in sorted(materialised.items())}


# -- sketch-valued evaluation --------------------------------------------------


def _record(ctx: _Context, node: PlanNode, elapsed: float) -> None:
    ctx.profile[id(node)] = ctx.profile.get(id(node), 0.0) + elapsed


def _profiled(ctx: _Context, node: PlanNode, thunk):
    """Run ``thunk`` attributing its wall time to ``node`` (analyze only)."""
    if ctx.profile is None:
        return thunk()
    started = time.perf_counter()
    try:
        return thunk()
    finally:
        _record(ctx, node, time.perf_counter() - started)


def _scan(source, filter_node: "Filter | None", ctx: _Context) -> "dict[bytes, Any]":
    """Materialise one scan, honouring the planner's access path.

    Returned sketches are read-only shared references on the scan paths
    and private copies on the selective path; callers copy before
    mutating (see :func:`_collapse`).
    """
    path = access_path(source, filter_node)
    if path.kind == "selective":
        out: "dict[bytes, Any]" = {}
        for key in path.keys:
            sketch = source.group_sketch(key)
            if sketch is not None:
                out[key] = sketch
        return out
    if path.kind == "partitions":
        out = {}
        for partial in source.partition_aggregators():
            for key, sketch in partial.sketches().items():
                if filter_node is None or filter_node.matches(key):
                    out[key] = sketch
        return out
    live = live_sketches(source)
    if live is not None:
        return {
            key: sketch
            for key, sketch in live.items()
            if filter_node is None or filter_node.matches(key)
        }
    # Protocol-only source: enumerate keys, fetch selectively.
    out = {}
    for key in source.groups():
        if filter_node is not None and not filter_node.matches(key):
            continue
        sketch = source.group_sketch(key)
        if sketch is not None:
            out[key] = sketch
    return out


def _merge_into(accumulator, sketch):
    """Merge ``sketch`` into the (private) ``accumulator``, sparse-aware."""
    from repro.core.sparse import SparseExaLogLog

    if not isinstance(accumulator, SparseExaLogLog) and isinstance(
        sketch, SparseExaLogLog
    ):
        sketch = sketch.copy().densify()
    return accumulator.merge_inplace(sketch)


def _collapse(sketches: "Mapping[bytes, Any]"):
    """Merge a keyed mapping into one sketch (``None`` when empty).

    Merge order is sorted-by-key for determinism, though Algorithm 5
    merges are order-independent anyway.
    """
    accumulator = None
    for key in sorted(sketches):
        if accumulator is None:
            accumulator = sketches[key].copy()
        else:
            accumulator = _merge_into(accumulator, sketches[key])
    return accumulator


def _scan_source_of(node: PlanNode, ctx: _Context):
    """The source behind a subtree's (single) Scan leaf."""
    if isinstance(node, Scan):
        return ctx.source(node.source)
    if isinstance(node, (Filter, Window, TopK, Estimate)):
        return _scan_source_of(node.child, ctx)
    if isinstance(node, SetOp):
        return _scan_source_of(node.left, ctx)
    raise TypeError(f"cannot resolve a scan source under {type(node).__name__}")


def _empty_sketch(node: PlanNode, ctx: _Context):
    """An empty sketch matching the subtree's source configuration."""
    from repro.core.exaloglog import ExaLogLog
    from repro.core.sparse import SparseExaLogLog

    t, d, p, sparse, _ = _scan_source_of(node, ctx).config
    return SparseExaLogLog(t, d, p) if sparse else ExaLogLog(t, d, p)


def _window_keys(node: Window, source, ctx: _Context) -> "tuple[list[bytes], str]":
    """The bucket keys a window covers, plus the synthetic result key."""
    bucket_width = node.bucket_width
    if bucket_width is None:
        bucket_width = getattr(source, "bucket_width", None)
    if bucket_width is None:
        raise ValueError(
            "Window needs bucket_width: scan a SlidingWindowDistinctCounter "
            "or set Window(bucket_width=...) ('bucket' in the dialect)"
        )
    prefix = node.prefix
    if prefix is None:
        prefix = getattr(source, "prefix", "bucket:")
    end = node.end if node.end is not None else ctx.now
    if end is None:
        raise ValueError(
            "Window has no end anchor: set Window(end=...) or pass now="
        )
    from repro.windowed import bucket_index

    highest = bucket_index(end, bucket_width, "end" if node.end is not None else "now")
    count = max(1, math.ceil(node.duration / bucket_width - 1e-9))
    lowest = highest - count + 1
    keys = [f"{prefix}{bucket}".encode() for bucket in range(lowest, highest + 1)]
    return keys, f"window[{lowest}:{highest}]"


def _materialize(node: PlanNode, ctx: _Context) -> "dict[bytes, Any]":
    """Evaluate a sketch-valued subtree to a keyed sketch mapping."""
    if ctx.profile is None:
        return _materialize_impl(node, ctx)
    started = time.perf_counter()
    try:
        with _trace.span("query.node", node=type(node).__name__):
            return _materialize_impl(node, ctx)
    finally:
        _record(ctx, node, time.perf_counter() - started)


def _materialize_impl(node: PlanNode, ctx: _Context) -> "dict[bytes, Any]":
    if isinstance(node, Scan):
        return _scan(ctx.source(node.source), None, ctx)
    if isinstance(node, Filter):
        if isinstance(node.child, Scan):
            # Filter pushed into the scan: attribute the work to the
            # Scan leaf so analyze still times every plan node.
            child = node.child
            return _profiled(
                ctx, child, lambda: _scan(ctx.source(child.source), node, ctx)
            )
        child = _materialize(node.child, ctx)
        return {key: sketch for key, sketch in child.items() if node.matches(key)}
    if isinstance(node, Window):
        source = _scan_source_of(node.child, ctx)
        keys, result_key = _window_keys(node, source, ctx)
        selection = Filter(node.child, keys=tuple(keys))
        merged = _collapse(_materialize(selection, ctx))
        if merged is None:
            return {}
        return {result_key.encode(): merged}
    if isinstance(node, SetOp):
        if node.op != "union":
            raise TypeError(
                f"SetOp({node.op!r}) is scalar-valued and only valid at the "
                "top of a plan (optionally under Estimate/TopK)"
            )
        merged = None
        for side in (node.left, node.right):
            collapsed = _collapse(_materialize(side, ctx))
            if collapsed is None:
                continue
            merged = collapsed if merged is None else _merge_into(merged, collapsed)
        if merged is None:
            return {}
        return {b"union": merged}
    raise TypeError(
        f"{type(node).__name__} is not sketch-valued; wrap it differently"
    )


# -- row-valued evaluation -----------------------------------------------------


def _estimate_rows(sketches: "Mapping[bytes, Any]") -> "tuple[tuple[bytes, float], ...]":
    from repro.estimation.batch import batch_estimates_by_key

    ordered = {key: sketches[key] for key in sorted(sketches)}
    return tuple(batch_estimates_by_key(ordered).items())


def _rank(rows, count: int) -> "tuple[tuple[bytes, float], ...]":
    ordered = sorted(rows, key=lambda kv: (-kv[1], kv[0]))
    return tuple(ordered[:count])


def _rows(node: PlanNode, ctx: _Context) -> QueryResult:
    if ctx.profile is None:
        return _rows_impl(node, ctx)
    started = time.perf_counter()
    try:
        with _trace.span("query.node", node=type(node).__name__):
            return _rows_impl(node, ctx)
    finally:
        _record(ctx, node, time.perf_counter() - started)


def _rows_impl(node: PlanNode, ctx: _Context) -> QueryResult:
    if isinstance(node, Estimate):
        child = node.child
        if isinstance(child, SetOp) and child.op != "union":
            return _rows(child, ctx)  # already scalar rows
        if isinstance(child, Scan):
            # Whole-source fast path: the source's own batched solve
            # (identical floats — both routes go through one solve).
            estimates = _profiled(
                ctx, child, lambda: ctx.source(child.source).estimates()
            )
            rows = tuple(sorted(estimates.items()))
            return QueryResult("estimates", rows)
        return QueryResult("estimates", _estimate_rows(_materialize(child, ctx)))
    if isinstance(node, TopK):
        child = node.child
        if isinstance(child, SetOp) and child.op != "union":
            inner = _rows(child, ctx)
            return QueryResult("top", _rank(inner.rows, node.count))
        if isinstance(child, Scan):
            estimates = _profiled(
                ctx, child, lambda: ctx.source(child.source).estimates()
            )
            return QueryResult("top", _rank(estimates.items(), node.count))
        rows = _estimate_rows(_materialize(child, ctx))
        return QueryResult("top", _rank(rows, node.count))
    if isinstance(node, SetOp) and node.op != "union":
        from repro.setops import (
            difference_estimate,
            intersection_estimate,
            jaccard_estimate,
        )

        left = _collapse(_materialize(node.left, ctx))
        right = _collapse(_materialize(node.right, ctx))
        if left is None:
            left = _empty_sketch(node.left, ctx)
        if right is None:
            right = _empty_sketch(node.right, ctx)
        operation = {
            "intersect": intersection_estimate,
            "diff": difference_estimate,
            "jaccard": jaccard_estimate,
        }[node.op]
        value = operation(left, right)
        return QueryResult("setop", ((node.op.encode(), value),))
    # Sketch-valued root: implicit Estimate.
    return _rows(Estimate(node), ctx)
