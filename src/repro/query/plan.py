"""Logical plan algebra for COUNT-DISTINCT queries over sketch sources.

A plan is a small immutable tree of dataclass nodes describing *what* to
compute, independent of *where* the sketches live — the same plan
executes unchanged over an in-memory
:class:`~repro.aggregate.DistinctCountAggregator`, a lock-free
:class:`~repro.store.SnapshotReader`, a replicated
:class:`~repro.store.FollowerStore`, a spilled
:class:`~repro.store.SpilledGroupBy`, a durable
:class:`~repro.store.SketchStore`, or a
:class:`~repro.windowed.SlidingWindowDistinctCounter`. That property
rests on the paper's Algorithm 5 guarantee: merges are exact, so any
source's group sketch is a valid query operand.

Nodes
-----

``Scan(source)``
    All groups of one named source (leaf).
``Filter(child, keys= | prefix= | predicate=)``
    Keep only matching group keys. An explicit ``keys`` tuple is the
    plannable selective form (the planner turns it into one point read
    per key: a dict lookup, or a single-partition read on a spill);
    ``prefix`` and ``predicate`` filter during a scan.
``Window(child, duration, end=, bucket_width=, prefix=)``
    Collapse the bucket-keyed groups overlapping the trailing
    ``duration`` of time (ending at ``end``, or the execution-time
    ``now``) into **one** merged sketch.
``SetOp(op, left, right)``
    Lift :mod:`repro.setops` to whole subtrees: each side collapses to
    one sketch; ``union`` stays sketch-valued, ``intersect`` / ``diff``
    / ``jaccard`` produce a scalar row by inclusion-exclusion.
``TopK(child, count)`` / ``Estimate(child)``
    Terminal nodes turning sketches into estimate rows through the
    batched one-solve path of :mod:`repro.estimation.batch`.

Construct them directly (the programmatic builder) or parse the string
dialect of :mod:`repro.query.dialect`::

    plan = TopK(Filter(Scan(), prefix="country:"), 10)
    plan = parse("top 10 where key startswith 'country:'")
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.hashing import to_bytes

#: Name a single-source execution binds its source to.
DEFAULT_SOURCE = "default"

#: The set operations :class:`SetOp` accepts.
SET_OPS = ("union", "intersect", "diff", "jaccard")


class PlanNode:
    """Base class of all logical plan nodes (immutable dataclasses)."""

    __slots__ = ()


@dataclass(frozen=True)
class Scan(PlanNode):
    """All groups of the source bound to ``source`` at execution time."""

    source: str = DEFAULT_SOURCE


@dataclass(frozen=True)
class Filter(PlanNode):
    """Keep only the child's groups whose key matches.

    Exactly one of ``keys`` (explicit canonical-key tuple — the
    selective, plannable form), ``prefix`` (key byte prefix), or
    ``predicate`` (opaque ``bytes -> bool`` callable) must be given.
    Keys and prefixes accept anything
    :func:`repro.hashing.to_bytes` canonicalises (strings, ints, bytes).
    """

    child: PlanNode
    keys: "tuple[bytes, ...] | None" = None
    prefix: "bytes | None" = None
    predicate: "Callable[[bytes], bool] | None" = None

    def __post_init__(self) -> None:
        given = sum(
            value is not None for value in (self.keys, self.prefix, self.predicate)
        )
        if given != 1:
            raise ValueError(
                "Filter needs exactly one of keys=, prefix=, predicate="
            )
        if self.keys is not None:
            object.__setattr__(
                self, "keys", tuple(to_bytes(key) for key in self.keys)
            )
        if self.prefix is not None:
            object.__setattr__(self, "prefix", to_bytes(self.prefix))

    def matches(self, key: bytes) -> bool:
        """Whether one canonical key passes this filter."""
        if self.keys is not None:
            return key in self.keys
        if self.prefix is not None:
            return key.startswith(self.prefix)
        assert self.predicate is not None
        return bool(self.predicate(key))


@dataclass(frozen=True)
class Window(PlanNode):
    """Merge the bucket groups of the trailing ``duration`` into one sketch.

    ``end`` anchors the window's newest edge; when ``None`` the
    execution-time ``now`` is used. ``bucket_width`` and ``prefix``
    resolve from the scanned source when it is a
    :class:`~repro.windowed.SlidingWindowDistinctCounter`; setting them
    on the node overrides the source's values. A window over any other
    source (say, a store holding the buckets a counter retired) must
    set ``bucket_width``; ``prefix`` defaults to ``"bucket:"``.

    The window is bucket-aligned like the counter: it covers the
    ``ceil(duration / bucket_width)`` buckets up to and including the
    bucket containing ``end``. ``duration`` and ``bucket_width`` must
    be finite and > 0, and ``end`` finite.
    """

    child: PlanNode
    duration: float
    end: "float | None" = None
    bucket_width: "float | None" = None
    prefix: "str | None" = None

    def __post_init__(self) -> None:
        if not 0.0 < self.duration < math.inf:
            raise ValueError(f"duration must be finite and > 0, got {self.duration!r}")
        width = self.bucket_width
        if width is not None and not 0.0 < width < math.inf:
            raise ValueError(f"bucket_width must be finite and > 0, got {width!r}")
        if self.end is not None and not math.isfinite(self.end):
            raise ValueError(f"end must be finite, got {self.end!r}")


@dataclass(frozen=True)
class SetOp(PlanNode):
    """A whole-subtree set operation (:mod:`repro.setops`, lifted).

    Both sides collapse to one merged sketch each. ``union`` is
    sketch-valued (estimable, composable); ``intersect``, ``diff`` and
    ``jaccard`` are terminal scalar rows (inclusion-exclusion subtracts
    estimates, so there is no sketch to pass upward).
    """

    op: str
    left: PlanNode
    right: PlanNode

    def __post_init__(self) -> None:
        if self.op not in SET_OPS:
            raise ValueError(f"unknown set operation {self.op!r}; expected one of {SET_OPS}")


@dataclass(frozen=True)
class TopK(PlanNode):
    """The ``count`` largest-estimate groups of the child.

    Ordering is deterministic across sources: descending estimate, ties
    broken by ascending key, the order of every source's own ``top()``.
    """

    child: PlanNode
    count: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("TopK count must be >= 0")


@dataclass(frozen=True)
class Estimate(PlanNode):
    """Estimate every group of the child (rows sorted by key)."""

    child: PlanNode


def sources_of(plan: PlanNode) -> "tuple[str, ...]":
    """The distinct source names a plan's ``Scan`` leaves reference."""
    names: list[str] = []

    def walk(node: PlanNode) -> None:
        if isinstance(node, Scan):
            if node.source not in names:
                names.append(node.source)
        elif isinstance(node, (Filter, Window, TopK, Estimate)):
            walk(node.child)
        elif isinstance(node, SetOp):
            walk(node.left)
            walk(node.right)

    walk(plan)
    return tuple(names)
