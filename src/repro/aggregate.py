"""Group-by distinct-count aggregation (the database use case of Sec. 1).

Query engines expose ``APPROX_COUNT_DISTINCT(x) GROUP BY g`` built on HLL;
this module provides the equivalent building block on ExaLogLog: one small
sketch per group, mergeable across partial aggregations (the shuffle/merge
stage of a distributed GROUP BY), serializable as a whole.

Group keys are stored in the canonical byte encoding of
:func:`repro.hashing.to_bytes` (strings UTF-8 encoded, ints little-endian
two's complement, bytes passed through), so ``estimates()`` and
``groups()`` yield ``bytes`` keys; :meth:`DistinctCountAggregator.decode_key`
recovers a display form.

Example::

    from repro.aggregate import DistinctCountAggregator

    agg = DistinctCountAggregator(t=2, d=20, p=8)
    for country, user in events:
        agg.add(country, user)
    agg.merge_inplace(other_partition_agg)
    print(agg.estimates())       # {b"DE": 10234.1, b"AT": 512.9, ...}
    print({agg.decode_key(k): v for k, v in agg.estimates().items()})

``decode_key`` assumes string groups; keys that are not printable UTF-8
(integer groups, arbitrary bytes) come back as their hex digest, from
which ``bytes.fromhex`` recovers the canonical key exactly::

    agg.add(1, "alice")                      # integer group
    [key] = agg.groups()
    assert agg.decode_key(key) == key.hex()  # '01000000...'
    assert bytes.fromhex(agg.decode_key(key)) == key
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Hashable, Iterable, Iterator, Mapping

from repro.core.exaloglog import ExaLogLog
from repro.core.params import make_params
from repro.core.sparse import SparseExaLogLog
from repro.hashing import hash64, to_bytes
from repro.storage.serialization import (
    SerializationError,
    read_uvarint,
    write_header,
    write_uvarint,
    read_header,
)

#: Sketch tag for serialized aggregators.
TAG_AGGREGATOR = 0x30


#: Group-array dtype kinds whose distinct values have distinct canonical
#: keys, so rows group by sorting the array itself: bool, ints, str and
#: bytes.
_SORTABLE_KINDS = frozenset("biuUS")


def segment(
    groups: "Iterable[Hashable]", items: Any, seed: int
) -> list[tuple[bytes, Any]]:
    """One batch's per-group hash segments: ``(canonical key, hashes)``.

    One vectorised hash pass over ``items``, then one stable sort that
    both factorises the groups and scatters the hashes; the shared front
    end of the in-memory and spilled GROUP BY paths. Segments
    come in first-appearance order of their group, each holding its
    rows' hashes in input order.

    Bool, integer, ``U`` and ``S`` ndarrays sort as they are, float
    ndarrays on their bit patterns (sorting values would merge ``0.0``
    with ``-0.0`` and NaNs of different payloads, whose keys differ),
    and each distinct group's key is encoded once. Object arrays and
    other iterables encode every row with
    :func:`repro.hashing.to_bytes`, so ``1``, ``1.0`` and ``True`` stay
    three groups. Either way a key equals ``to_bytes`` of the row's
    ``tolist()`` value.

    Integer sort keys (integer arrays, float bit patterns, the row
    codes of encoded groups) whose span ``max - min`` is below ``2**16``
    sort on ``values - min`` as uint8 or uint16, where NumPy's stable
    sort is a radix sort: an order-preserving map, so the segments are
    those of sorting the values.
    """
    import numpy as np

    from repro.hashing.batch import hash_items

    hashes = hash_items(items, seed)
    flat = isinstance(groups, np.ndarray) and groups.ndim == 1
    kind = groups.dtype.kind if flat else ""
    keys = None
    if kind in _SORTABLE_KINDS:
        values = groups
    elif kind == "f" and groups.dtype.itemsize <= 8:
        values = groups.astype(np.float64, copy=False).view(np.int64)
    else:
        keys, values = _encode_rows(groups)
    if len(values) != len(hashes):
        raise ValueError(
            f"group/item length mismatch: {len(values)} vs {len(hashes)}"
        )
    if not len(values):
        return []
    first, runs = scatter(values, hashes)
    if keys is None:
        # tolist() yields the Python values the per-row path encodes.
        keys = [to_bytes(value) for value in groups[first].tolist()]
    return list(zip(keys, runs))


def scatter(values, hashes) -> "tuple[Any, list]":
    """``hashes`` split into runs of equal ``values``, in first-appearance order.

    Returns each run's first row index and its hashes, in input order.
    One stable sort groups the rows (a radix sort when :func:`_narrow`
    applies): each value is one run, and a run's first row is its value's
    first appearance.
    """
    import numpy as np

    order = np.argsort(_narrow(values), kind="stable")
    ranked = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    del ranked
    first = order[starts]
    appearance = np.argsort(first)
    scattered = hashes[order]
    bounds = np.append(starts, len(order)).tolist()
    return first[appearance], [
        scattered[bounds[run] : bounds[run + 1]] for run in appearance.tolist()
    ]


def _narrow(values):
    """``values``, or ``values - min`` as uint8/uint16 when the span fits.

    The same stable order either way; the narrow copy radix-sorts. The
    span is computed in Python ints, so int64 and uint64 extremes
    cannot overflow it, and the subtraction's wrap-around is undone by
    the narrowing cast.
    """
    import numpy as np

    if values.dtype.kind not in "iu":
        return values
    low = int(values.min())
    span = int(values.max()) - low
    if span >= 1 << 16:
        return values
    return (values - values.dtype.type(low)).astype(
        np.uint8 if span < 1 << 8 else np.uint16
    )


#: Rows of small sparse slices :meth:`DistinctCountAggregator.fold_segments`
#: tokenises in one call: one call per run of records, while the token
#: list of a big batch of small groups stays a few hundred KB.
TOKENISE_ROWS = 1 << 14


def _add_tokenised(small: "dict[int, list]") -> None:
    """Tokenise gathered ``(sketch, hashes)`` slices in one call per ``v``.

    Each sketch then takes its slice of the tokens through
    :meth:`SparseExaLogLog.add_hashes`.
    """
    import numpy as np

    from repro import backends

    for v, slices in small.items():
        batch = np.concatenate([hashes for _, hashes in slices])
        tokens = backends.tokenize_hashes(batch, v).tolist()
        end = 0
        for sketch, hashes in slices:
            start, end = end, end + len(hashes)
            sketch.add_hashes(hashes, tokens=tokens[start:end])


#: Registers of one stacked fold in
#: :meth:`DistinctCountAggregator.fold_segments` (256 rows at ``p = 8``):
#: the block and its merge stay at 512 KB of int64 each, however many
#: dense groups a batch holds. A group of more registers folds alone.
STACK_REGISTERS = 1 << 16


def _fold_stacked(stacked: "dict[bytes, tuple]", params) -> None:
    """Fold gathered dense rows with one kernel call and one merge.

    ``stacked`` maps a key to its dense sketch and the hash slices the
    run gathered for it; row ``i`` of the folded block is the sketch of
    key ``i``'s slices.
    """
    import numpy as np

    from repro import backends

    if not stacked:
        return
    rows = list(stacked.values())
    parts = [part for _, slices in rows for part in slices]
    bounds = np.cumsum([0] + [sum(map(len, slices)) for _, slices in rows])
    block = backends.exaloglog_registers(
        np.concatenate(parts) if len(parts) > 1 else parts[0], params, bounds
    )
    current = np.stack([dense.registers_array() for dense, _ in rows])
    if current.any():
        block = backends.merge_exaloglog_registers(current, block, params.d)
    for (dense, _), registers in zip(rows, block):
        dense.adopt_registers(registers)


def _encode_rows(groups) -> "tuple[list[bytes], Any]":
    """Canonical keys in first-appearance order, and each row's index."""
    import numpy as np

    rows = groups.tolist() if isinstance(groups, np.ndarray) else list(groups)
    keys: list[bytes] = []
    code_of: dict[bytes, int] = {}
    codes = np.empty(len(rows), dtype=np.int64)
    for position, group in enumerate(rows):
        key = to_bytes(group)
        code = code_of.get(key)
        if code is None:
            code = len(keys)
            code_of[key] = code
            keys.append(key)
        codes[position] = code
    return keys, codes


class DistinctCountAggregator:
    """Per-group approximate distinct counting with mergeable state.

    Parameters mirror :class:`~repro.core.exaloglog.ExaLogLog`;
    ``sparse=True`` (default) starts every group in token mode so that
    aggregations with many small groups stay small (Sec. 4.3's motivation).

    The aggregator is the only owner of its group map. Every layer that
    keeps group state in one (store, reader, follower, cluster, spill,
    sliding-window counter) changes it through :meth:`fold_segments`
    (or :meth:`fold`, or :meth:`add_hash` one hash at a time),
    :meth:`merge_sketch` and :meth:`drop_group`, and reads it through
    :meth:`sketches`.
    """

    __slots__ = ("_d", "_groups", "_p", "_seed", "_sparse", "_t")

    def __init__(
        self,
        t: int = 2,
        d: int = 20,
        p: int = 8,
        sparse: bool = True,
        seed: int = 0,
    ) -> None:
        self._t = t
        self._d = d
        self._p = p
        self._sparse = sparse
        self._seed = seed
        self._groups: dict[bytes, ExaLogLog | SparseExaLogLog] = {}
        # Validate parameters eagerly by building a throwaway sketch.
        self._new_sketch()

    def _new_sketch(self) -> ExaLogLog | SparseExaLogLog:
        if self._sparse:
            return SparseExaLogLog(self._t, self._d, self._p)
        return ExaLogLog(self._t, self._d, self._p)

    @staticmethod
    def _group_key(group: Hashable) -> bytes:
        """``group``'s canonical key, :func:`repro.hashing.to_bytes`."""
        return to_bytes(group)

    def _sketch(self, key: bytes) -> ExaLogLog | SparseExaLogLog:
        """``key``'s sketch, created empty on first use (the one get-or-create)."""
        sketch = self._groups.get(key)
        if sketch is None:
            sketch = self._groups[key] = self._new_sketch()
        return sketch

    @staticmethod
    def decode_key(key: bytes) -> str:
        """Display form of a canonical group key.

        The :func:`repro.hashing.to_bytes` encoding is not
        self-describing, so this assumes the common case of string
        groups (UTF-8) and falls back to the hex digest for keys that
        don't decode to printable text — e.g. integer groups, whose
        little-endian padding decodes to NUL-laden strings.
        """
        try:
            decoded = key.decode("utf-8")
        except UnicodeDecodeError:
            return key.hex()
        return decoded if decoded.isprintable() else key.hex()

    @property
    def config(self) -> tuple[int, int, int, bool, int]:
        """The ``(t, d, p, sparse, seed)`` configuration tuple.

        Part of the :class:`repro.query.SketchSource` protocol: two
        sources with equal configurations hold mergeable, comparable
        sketches.
        """
        return (self._t, self._d, self._p, self._sparse, self._seed)

    # -- accumulation ----------------------------------------------------------

    def add(self, group: Hashable, item: Any) -> "DistinctCountAggregator":
        """Record ``item`` under ``group``; returns ``self``."""
        return self.add_hash(group, hash64(item, self._seed))

    def add_hash(self, group: Hashable, hash_value: int) -> "DistinctCountAggregator":
        """Record a pre-hashed value under ``group``; returns ``self``."""
        self._sketch(to_bytes(group)).add_hash(hash_value)
        return self

    def add_pairs(self, pairs: Iterable[tuple[Hashable, Any]]) -> "DistinctCountAggregator":
        """Record an iterable of ``(group, item)`` pairs.

        Streams in bounded chunks through :meth:`add_batch`, so unbounded
        iterators keep O(chunk) extra memory; batch equivalence to the
        per-item loop makes chunking invisible in the result.
        """
        import itertools

        from repro.backends.bulk import BULK_CHUNK

        iterator = iter(pairs)
        while chunk := list(itertools.islice(iterator, BULK_CHUNK)):
            groups, items = zip(*chunk)
            self.add_batch(groups, list(items))
        return self

    def add_batch(
        self,
        groups: "Iterable[Hashable]",
        items: Any,
        spill=None,
    ) -> "DistinctCountAggregator":
        """Record ``items[i]`` under ``groups[i]`` for a whole batch.

        One vectorised hash pass over ``items`` (NumPy integer/float
        arrays hash without a Python-level loop), one factorise and
        scatter (:func:`segment`), then one :meth:`fold_segments` call
        for the whole batch: one fold per batch, not one per group.
        Estimates are exactly those of the equivalent per-item
        :meth:`add` loop. The fold runs in this process, with no
        ``workers=`` fan-out: sharding a batch over workers adds serial
        work here (partitioning keys, merging partials back) and
        measured slower than this fold.

        ``spill`` routes the batch to a
        :class:`repro.store.SpilledGroupBy` (or any object with
        ``write_segments``) instead of this aggregator's in-memory
        groups: the external GROUP BY path for aggregations whose group
        count exceeds RAM. The spill target — not ``self`` — then owns
        the batch's state; results come from its partition merge.
        """
        segments = segment(groups, items, self._seed)
        if not segments:
            return self
        if spill is not None:
            spill_config = getattr(spill, "config", None)
            if spill_config is not None and spill_config != self.config:
                raise ValueError(
                    f"spill target configuration {spill_config} differs from "
                    f"aggregator configuration {self.config}"
                )
            spill.write_segments(segments)
            return self
        return self.fold_segments(segments)

    def fold_segments(self, segments) -> "DistinctCountAggregator":
        """Fold ``(group, hashes)`` segments, a whole batch at once; returns ``self``.

        The bulk write every ingest path shares: the batch scatter above,
        the store's commit, WAL replay, the reader's tail and spill
        partition merges, all in this process. Each segment's sketch is
        resolved once (created on first use), and a group may appear in
        several segments. Inserts are commutative and idempotent, the
        Algorithm 5 merge is exact and token mode densifies losslessly
        (Sec. 4.3), so the result is bit-identical to folding the
        segments one by one. The slices take three routes:

        * Dense groups (with registers that fit int64) fold stacked:
          each is one row of a ``(rows, m)`` block, however many of the
          run's segments it holds, and each block of at most
          :data:`STACK_REGISTERS` registers takes one
          :func:`~repro.backends.exaloglog_registers` call and one
          :func:`~repro.backends.merge_exaloglog_registers` call with
          the rows' current registers; every sketch then adopts a copy
          of its row (:meth:`ExaLogLog.adopt_registers`).
        * Slices of token-mode groups that cannot pass break-even are
          tokenised together, one
          :func:`~repro.backends.tokenize_hashes` call per token
          parameter ``v`` and :data:`TOKENISE_ROWS` rows, and each group
          takes its tokens through :meth:`SparseExaLogLog.add_hashes`,
          a set update.
        * Every other slice (slices long enough to densify their group,
          and registers wider than int64) folds through its sketch's
          ``add_hashes``.
        """
        from repro import backends

        params = make_params(self._t, self._d, self._p)
        stack_rows = (
            max(1, STACK_REGISTERS // params.m)
            if backends.supports_int64_registers(params)
            else 0
        )
        stacked: dict[bytes, tuple] = {}  # key -> (dense sketch, [hashes])
        small: dict[int, list] = {}  # token parameter v -> [(sketch, hashes)]
        rows = 0
        for group, hashes in segments:
            key = to_bytes(group)
            sketch = self._sketch(key)
            hashes = backends.as_hash_array(hashes)
            if isinstance(sketch, SparseExaLogLog) and sketch.is_sparse:
                if sketch.token_count + len(hashes) <= sketch.break_even_tokens:
                    small.setdefault(sketch.v, []).append((sketch, hashes))
                    rows += len(hashes)
                    if rows >= TOKENISE_ROWS:
                        _add_tokenised(small)
                        small, rows = {}, 0
                else:
                    sketch.add_hashes(hashes)
            elif stack_rows and sketch.params == params:
                row = stacked.get(key)
                if row is None:
                    if len(stacked) == stack_rows:
                        _fold_stacked(stacked, params)
                        stacked = {}
                    if isinstance(sketch, SparseExaLogLog):
                        sketch = sketch.densify()  # already dense: its inner sketch
                    row = stacked[key] = (sketch, [])
                row[1].append(hashes)
            else:
                sketch.add_hashes(hashes)
        _fold_stacked(stacked, params)
        _add_tokenised(small)
        return self

    def fold(self, group: Hashable, hashes) -> "DistinctCountAggregator":
        """Fold pre-hashed values into ``group``'s sketch; returns ``self``.

        The one-segment case of :meth:`fold_segments`.
        """
        return self.fold_segments(((group, hashes),))

    def check_mergeable(self, sketch) -> None:
        """Raise unless :meth:`merge_sketch` can merge ``sketch`` here.

        ``TypeError`` for anything but a dense or sparse ExaLogLog,
        ``ValueError`` when its parameters (or a sparse sketch's token
        parameter ``v``) differ from this aggregator's.
        """
        if not isinstance(sketch, (ExaLogLog, SparseExaLogLog)):
            raise TypeError(f"cannot merge a {type(sketch).__name__} into an aggregator")
        mine = self._new_sketch()
        if sketch.params != mine.params or (
            isinstance(sketch, SparseExaLogLog)
            and isinstance(mine, SparseExaLogLog)
            and sketch.v != mine.v
        ):
            raise ValueError(
                f"cannot merge {sketch!r}: parameters differ from the aggregator's "
                f"(t, d, p, sparse, seed)={self.config}"
            )

    def merge_sketch(self, group: Hashable, sketch) -> "DistinctCountAggregator":
        """Merge a whole sketch into ``group`` (Algorithm 5); returns ``self``.

        ``sketch`` passes :meth:`check_mergeable` first and is left
        unchanged. An unseen group starts as an empty sketch in this
        aggregator's own representation, so later merges and
        serialization stay uniform.
        """
        self.check_mergeable(sketch)
        mine = self._sketch(to_bytes(group))
        if not isinstance(mine, SparseExaLogLog) and isinstance(sketch, SparseExaLogLog):
            sketch = sketch.copy().densify()
        mine.merge_inplace(sketch)
        return self

    def drop_group(self, group: Hashable) -> "DistinctCountAggregator":
        """Remove ``group``'s sketch (a no-op for unseen groups); returns ``self``."""
        self._groups.pop(to_bytes(group), None)
        return self

    # -- queries -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._groups)

    def __contains__(self, group: Hashable) -> bool:
        return to_bytes(group) in self._groups

    def groups(self) -> Iterator[bytes]:
        """The observed group keys (canonical byte form)."""
        return iter(self._groups)

    def sketches(self) -> Mapping[bytes, ExaLogLog | SparseExaLogLog]:
        """Read-only live ``key → sketch`` mapping, in insertion order.

        No copies: scans of the query plane and the cluster's gathered
        solve read every sketch through it. Callers must not mutate the
        sketches; :meth:`group_sketch` hands out a private copy.
        """
        return MappingProxyType(self._groups)

    def estimate(self, group: Hashable) -> float:
        """Distinct-count estimate for one group (0 for unseen groups)."""
        sketch = self._groups.get(to_bytes(group))
        return sketch.estimate() if sketch is not None else 0.0

    def group_sketch(self, group: Hashable):
        """A private copy of one group's sketch (``None`` for unseen groups).

        The :class:`repro.query.SketchSource` point read, and the one
        behind every store-backed source: the store, the reader, the
        follower and each cluster shard answer ``group_sketch`` from
        their aggregator through it. Callers may merge the result in
        place without affecting this aggregator's state.
        """
        sketch = self._groups.get(to_bytes(group))
        return sketch.copy() if sketch is not None else None

    def estimates(self) -> dict[bytes, float]:
        """All group estimates, batched.

        Every group's sketch joins a coefficient block — dense registers
        through the vectorised Algorithm 3, sparse token groups through
        Algorithm 7 — and one :func:`repro.estimation.batch.solve_ml_equations`
        call per block of up to ``ESTIMATE_CHUNK_ROWS`` groups produces the
        estimates, bit-identical to calling ``sketch.estimate()`` per group
        but orders of magnitude faster at scale. A million-group
        aggregation resolves in one call, in bounded memory::

            agg = DistinctCountAggregator(p=8)
            agg.add_batch(group_array, item_array)   # ... many batches
            by_group = agg.estimates()               # one solve per 16,384 groups
            heaviest = agg.top(10)                   # top-k without full sort
        """
        from repro.estimation.batch import batch_estimates_by_key

        return batch_estimates_by_key(self._groups)

    def top(self, count: int) -> list[tuple[bytes, float]]:
        """The ``count`` groups with the largest estimates.

        Selects via ``np.argpartition`` on the batched estimate vector —
        O(groups) instead of a full sort — with ties broken by insertion
        order exactly like a full stable descending sort.
        """
        from repro.estimation.batch import batch_top

        return batch_top(self._groups, count)

    def total_memory_bytes(self) -> int:
        """Modelled footprint across all groups."""
        return sum(sketch.memory_bytes for sketch in self._groups.values())

    # -- merge --------------------------------------------------------------------

    def merge_inplace(self, other: "DistinctCountAggregator") -> "DistinctCountAggregator":
        """Union with another aggregator of identical configuration."""
        if not isinstance(other, DistinctCountAggregator):
            raise TypeError(
                f"cannot merge DistinctCountAggregator with {type(other).__name__}"
            )
        if self.config != other.config:
            raise ValueError("aggregator configurations differ")
        for key, sketch in other._groups.items():
            mine = self._groups.get(key)
            if mine is None:
                self._groups[key] = sketch.copy()
            else:
                mine.merge_inplace(sketch)
        return self

    def merge(self, other: "DistinctCountAggregator") -> "DistinctCountAggregator":
        result = self.copy()
        return result.merge_inplace(other)

    def copy(self) -> "DistinctCountAggregator":
        clone = DistinctCountAggregator(
            self._t, self._d, self._p, self._sparse, self._seed
        )
        clone._groups = {key: sketch.copy() for key, sketch in self._groups.items()}
        return clone

    # -- serialization ----------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize all groups (length-prefixed inner sketch blobs)."""
        buffer = write_header(TAG_AGGREGATOR)
        buffer.extend((self._t, self._d, self._p, 1 if self._sparse else 0))
        write_uvarint(buffer, self._seed)
        write_uvarint(buffer, len(self._groups))
        for key in sorted(self._groups):
            blob = self._groups[key].to_bytes()
            write_uvarint(buffer, len(key))
            buffer.extend(key)
            write_uvarint(buffer, len(blob))
            buffer.extend(blob)
        return bytes(buffer)

    @classmethod
    def from_bytes(cls, data: bytes) -> "DistinctCountAggregator":
        offset = read_header(data, TAG_AGGREGATOR)
        if len(data) < offset + 4:
            raise SerializationError("truncated aggregator parameters")
        t, d, p, sparse_flag = data[offset : offset + 4]
        offset += 4
        seed, offset = read_uvarint(data, offset)
        count, offset = read_uvarint(data, offset)
        aggregator = cls(t, d, p, bool(sparse_flag), seed)
        for _ in range(count):
            key_length, offset = read_uvarint(data, offset)
            key = bytes(data[offset : offset + key_length])
            if len(key) != key_length:
                raise SerializationError("truncated aggregator group key")
            offset += key_length
            blob_length, offset = read_uvarint(data, offset)
            blob = bytes(data[offset : offset + blob_length])
            if len(blob) != blob_length:
                raise SerializationError("truncated aggregator group payload")
            offset += blob_length
            if sparse_flag:
                aggregator._groups[key] = SparseExaLogLog.from_bytes(blob)
            else:
                aggregator._groups[key] = ExaLogLog.from_bytes(blob)
        if offset != len(data):
            raise SerializationError(
                f"{len(data) - offset} trailing bytes after aggregator payload"
            )
        return aggregator

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistinctCountAggregator):
            return NotImplemented
        return self.config == other.config and self._groups == other._groups

    def __repr__(self) -> str:
        return (
            f"DistinctCountAggregator(t={self._t}, d={self._d}, p={self._p}, "
            f"groups={len(self._groups)})"
        )
