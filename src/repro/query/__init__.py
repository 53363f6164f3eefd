"""The unified query plane: one plan language over every read surface.

``repro.query`` separates *what* a COUNT-DISTINCT query computes from
*where* its sketches live:

* :mod:`repro.query.source` — the :class:`SketchSource` protocol every
  read surface implements (aggregator, store, reader, follower, spill,
  cluster, windowed counter).
* :mod:`repro.query.plan` — the logical plan algebra (``Scan``,
  ``Filter``, ``Window``, ``SetOp``, ``TopK``, ``Estimate``).
* :mod:`repro.query.planner` — per-scan physical access-path choice
  (selective point reads vs a scan that walks the parts).
* :mod:`repro.query.executor` — one engine executing any plan over any
  source: point queries read each group's kept estimate, every other
  estimate goes through the batched one-solve path.
* :mod:`repro.query.dialect` — the string form (``"top 10 where key
  startswith 'country:'"``).

:func:`query` is the one-call entry point tying them together.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.query.dialect import ParseError, parse
from repro.query.executor import QueryResult, execute, execute_sketches
from repro.query.plan import (
    DEFAULT_SOURCE,
    SET_OPS,
    Estimate,
    Filter,
    PlanNode,
    Scan,
    SetOp,
    TopK,
    Window,
    sources_of,
)
from repro.query.planner import AccessPath, access_path, explain
from repro.query.source import SketchSource, as_source

__all__ = [
    "AccessPath",
    "DEFAULT_SOURCE",
    "Estimate",
    "Filter",
    "ParseError",
    "PlanNode",
    "QueryResult",
    "SET_OPS",
    "Scan",
    "SetOp",
    "SketchSource",
    "TopK",
    "Window",
    "access_path",
    "as_source",
    "execute",
    "execute_sketches",
    "explain",
    "parse",
    "query",
    "sources_of",
]


def query(
    source,
    text: "str | PlanNode | None" = None,
    *,
    sources: "Mapping[str, Any] | None" = None,
    now: "float | None" = None,
) -> QueryResult:
    """Run one query — dialect string or plan tree — over any source.

    ``source`` is anything implementing :class:`SketchSource` (an
    aggregator, store, reader, follower, spill, cluster or windowed
    counter); it binds the plan's default scan. ``sources`` binds
    additional named scans (``from <name>`` in the dialect). ``text``
    may be a dialect string, an already-built :class:`PlanNode`, or
    ``None`` for "estimate everything". ``now`` anchors ``window``
    clauses without an explicit ``ending``.

    >>> from repro.aggregate import DistinctCountAggregator
    >>> agg = DistinctCountAggregator(p=8)
    >>> for user in ("alice", "bob", "carol"):
    ...     _ = agg.add("country:US", user)
    >>> _ = agg.add("country:DE", "dora")
    >>> _ = agg.add("city:berlin", "dora")

    Top groups under a key prefix::

    >>> [(key, round(value)) for key, value in
    ...  query(agg, "top 10 where key startswith 'country:'")]
    [(b'country:US', 3), (b'country:DE', 1)]

    Estimate one group (equivalent to ``where key = ...``)::

    >>> round(query(agg, "estimate 'country:US'").value)
    3

    Set operations across sources (``from`` names bind via ``sources``)::

    >>> other = DistinctCountAggregator(p=8)
    >>> _ = other.add("country:US", "alice")
    >>> query(agg, "from default intersect from other",
    ...       sources={"other": other}).value > 0
    True

    Plans also build programmatically — identical execution path::

    >>> from repro.query import Filter, Scan, TopK, execute
    >>> plan = TopK(Filter(Scan(), prefix="country:"), 10)
    >>> execute(plan, agg).rows == query(agg, plan).rows
    True
    """
    if text is None:
        plan: PlanNode = Scan()
    elif isinstance(text, PlanNode):
        plan = text
    else:
        plan = parse(text)
    return execute(plan, source, sources=sources, now=now)
