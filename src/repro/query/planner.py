"""Physical access-path selection for one plan over one set of sources.

The logical plan says *which* groups a query touches; each source offers
two ways to fetch them, with very different costs:

* **selective** (one point read per key) — a single-partition read on
  a :class:`~repro.store.SpilledGroupBy`, one routed read on a cluster,
  a dict lookup on every other source (the store, reader and follower
  answer from their materialised aggregator). Wins whenever the filter
  names an explicit key set: on a spill a scan would read every
  partition to list the groups and then fetch the matching keys one by
  one anyway. Under ``Estimate`` or ``TopK`` (:func:`point_filter`) the
  read is ``group_estimate``: the group's kept estimate, with no sketch
  copied and no kept estimate solved again. Under a sketch-valued parent
  (``Window``, ``SetOp``, a sketch materialisation) it is
  ``group_sketch``.
* **scan** — walk the source's parts one at a time (a cluster's shards,
  a spill's partitions, or the source itself) and filter each part's
  groups as they stream by. Wins for prefix/predicate filters and full
  scans, where per-key selective fetches would re-pay their fixed cost;
  a spill holds one partition while it scans.

:func:`access_path` makes that choice per ``Scan``; :func:`explain`
renders the decisions of a whole plan for humans (the CLI's
``--explain``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.query.plan import (
    Estimate,
    Filter,
    PlanNode,
    Scan,
    SetOp,
    TopK,
    Window,
)


@dataclass(frozen=True)
class AccessPath:
    """How the executor should materialise one ``Scan``'s groups."""

    kind: str  # "selective" | "scan"
    keys: "tuple[bytes, ...]" = field(default=())
    reason: str = ""


def access_path(
    source, filter_node: "Filter | None" = None, read: str = "group_sketch"
) -> AccessPath:
    """Choose the physical access path for one scan of ``source``.

    An explicit key filter goes selective (each layer's cheapest
    point read, named by ``read``), however many keys it names;
    everything else scans.
    """
    keys = filter_node.keys if filter_node is not None else None
    if keys is not None:
        return AccessPath(
            "selective",
            keys=keys,
            reason=f"{len(keys)} explicit key(s) via {read}",
        )
    return AccessPath("scan", reason="every group, one part at a time")


def point_filter(node: PlanNode) -> "Filter | None":
    """The explicit key filter that ``node`` reads by ``group_estimate``.

    ``Estimate`` and ``TopK`` over ``Filter(Scan, keys=...)`` need only
    each key's estimate, so the executor answers them with one
    ``group_estimate`` per key and builds no sketch. Every other node
    gives ``None``.
    """
    if not isinstance(node, (Estimate, TopK)):
        return None
    child = node.child
    if not isinstance(child, Filter) or child.keys is None:
        return None
    return child if isinstance(child.child, Scan) else None


def _describe_source(source) -> str:
    name = type(source).__name__
    members = getattr(source, "shard_sources", None)
    if members is not None:
        return f"{name}[{getattr(source, 'shards', len(members))} shards]"
    return name


def explain(
    plan: PlanNode,
    sources: "dict[str, object]",
    profile: "dict[int, float] | None" = None,
) -> "list[str]":
    """Human-readable physical plan, one line per node (indent = depth).

    With ``profile`` — the per-node inclusive wall times measured by
    ``execute(..., analyze=True)``, keyed by ``id(node)`` — every line of
    this *same* plan object is annotated ``[time=...ms]``, giving the
    ``EXPLAIN ANALYZE`` surface.
    """
    lines: "list[str]" = []

    def annotate(node: PlanNode) -> str:
        if profile is None:
            return ""
        elapsed = profile.get(id(node))
        if elapsed is None:
            return "  [time=n/a]"
        return f"  [time={elapsed * 1e3:.3f}ms]"

    def walk(
        node: PlanNode,
        depth: int,
        pending_filter: "Filter | None",
        read: str = "group_sketch",
    ) -> None:
        pad = "  " * depth
        if isinstance(node, Scan):
            source = sources[node.source]
            path = access_path(source, pending_filter, read)
            lines.append(
                f"{pad}Scan({node.source}: {_describe_source(source)}) "
                f"-> {path.kind} ({path.reason}){annotate(node)}"
            )
        elif isinstance(node, Filter):
            if node.keys is not None:
                detail = f"keys={[k.decode('utf-8', 'replace') for k in node.keys]}"
            elif node.prefix is not None:
                detail = f"prefix={node.prefix.decode('utf-8', 'replace')!r}"
            else:
                detail = "predicate=<callable>"
            lines.append(f"{pad}Filter({detail}){annotate(node)}")
            walk(node.child, depth + 1, node if node.keys is not None else None, read)
        elif isinstance(node, Window):
            anchor = "now" if node.end is None else f"end={node.end}"
            lines.append(
                f"{pad}Window(duration={node.duration}, {anchor}){annotate(node)}"
            )
            walk(node.child, depth + 1, None)
        elif isinstance(node, SetOp):
            lines.append(f"{pad}SetOp({node.op}){annotate(node)}")
            walk(node.left, depth + 1, None)
            walk(node.right, depth + 1, None)
        elif isinstance(node, (TopK, Estimate)):
            label = f"TopK({node.count})" if isinstance(node, TopK) else "Estimate"
            lines.append(f"{pad}{label}{annotate(node)}")
            read = "group_sketch" if point_filter(node) is None else "group_estimate"
            walk(node.child, depth + 1, None, read)
        else:
            lines.append(f"{pad}{node!r}{annotate(node)}")

    walk(plan, 0, None)
    return lines
