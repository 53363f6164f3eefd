"""Group-by distinct-count aggregation (the database use case of Sec. 1).

Query engines expose ``APPROX_COUNT_DISTINCT(x) GROUP BY g`` built on HLL;
this module provides the equivalent building block on ExaLogLog: one small
sketch per group, mergeable across partial aggregations (the shuffle/merge
stage of a distributed GROUP BY), serializable as a whole. The groups are
held column-wise — one sorted token array for every token-mode group, one
register block for every dense group — so a batch folds in one pass
instead of one sketch call per group.

Group keys are stored in the canonical byte encoding of
:func:`repro.hashing.to_bytes` (strings UTF-8 encoded, ints little-endian
two's complement, bytes passed through), so ``estimates()`` and
``groups()`` yield ``bytes`` keys; :meth:`DistinctCountAggregator.decode_key`
recovers a display form. ``top(n)`` ties by ascending key, like every
source's ``top``.

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

import heapq
from functools import lru_cache
from typing import Any, Hashable, Iterable, Iterator

from repro.core.exaloglog import ExaLogLog
from repro.core.register import update as update_register
from repro.core.sparse import SparseExaLogLog
from repro.core.token import DEFAULT_V, token_bits, token_bytes
from repro.hashing import hash64, to_bytes
from repro.storage.packed import PackedArray
from repro.storage.serialization import (
    SerializationError,
    read_header,
    read_uvarint,
    write_header,
    write_uvarint,
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
    keys, hashes, bounds = _columns(groups, items, seed)
    return list(zip(keys, _split(hashes, bounds)))


def _columns(groups, items, seed: int) -> "tuple[list[bytes], Any, Any]":
    """:func:`segment` as columns: ``(keys, hashes, bounds)``.

    ``hashes`` holds every segment's hashes back to back, in segment
    order; segment ``i``'s are ``hashes[bounds[i]:bounds[i + 1]]``.
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
        return [], hashes, np.zeros(1, dtype=np.int64)
    first, grouped, bounds = _scatter_columns(values, hashes)
    if keys is None:
        keys = _distinct_keys(groups[first])
    return keys, grouped, bounds


def _split(hashes, bounds) -> list:
    """The slices ``hashes[bounds[i]:bounds[i + 1]]``, in order."""
    bounds = bounds.tolist()
    return [hashes[low:high] for low, high in zip(bounds[:-1], bounds[1:])]


def _distinct_keys(values) -> "list[bytes]":
    """:func:`repro.hashing.to_bytes` of each value's ``tolist()`` form.

    Integers of at most 63 significant bits encode as their 8
    little-endian two's-complement bytes, so such an integer array's
    keys are the items of one ``astype("<i8")`` copy viewed as 8-byte
    voids (whose ``tolist()`` yields ``bytes``, NUL bytes kept); every
    other value (``-2**63``, a uint64 from ``2**63`` on: 9 bytes each)
    encodes one by one.
    """
    kind = values.dtype.kind
    narrow = values.dtype.itemsize < 8
    if (kind == "i" and (narrow or values.min() > -(1 << 63))) or (
        kind == "u" and (narrow or values.max() < 1 << 63)
    ):
        return values.astype("<i8").view("V8").tolist()
    # tolist() yields the Python values the per-row path encodes.
    return [to_bytes(value) for value in values.tolist()]


def scatter(values, hashes) -> "tuple[Any, list]":
    """``hashes`` split into runs of equal ``values``, in first-appearance order.

    Returns each run's first row index and its hashes, in input order.
    One stable sort groups the rows (a radix sort when :func:`_narrow`
    applies): each value is one run, and a run's first row is its value's
    first appearance.
    """
    first, grouped, bounds = _scatter_columns(values, hashes)
    return first, _split(grouped, bounds)


def _scatter_columns(values, hashes):
    """:func:`scatter` as columns: ``(first rows, hashes run by run, bounds)``."""
    import numpy as np

    order = np.argsort(_narrow(values), kind="stable")
    ranked = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    del ranked
    first = order[starts]
    appearance = np.argsort(first)
    lengths = np.diff(np.append(starts, len(order)))[appearance]
    grouped = hashes[order[_gather(starts[appearance], lengths)]]
    return first[appearance], grouped, np.concatenate(([0], np.cumsum(lengths)))


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


#: Rows of small token-mode slices :meth:`DistinctCountAggregator.fold_segments`
#: tokenises in one call, so the temporaries of a big batch of small
#: groups stay a few hundred KB.
TOKENISE_ROWS = 1 << 14

#: Registers of one stacked fold in
#: :meth:`DistinctCountAggregator.fold_segments` (256 rows at ``p = 8``):
#: the kernel's block and its merge stay at 512 KB of int64 each,
#: however many dense groups a batch holds.
STACK_REGISTERS = 1 << 16

#: Tokens :meth:`DistinctCountAggregator.add_hash` buffers, unsorted,
#: before one sort merges them into the token array (the insertion
#: buffer of Heule, Nunkesser and Hall's sparse HyperLogLog++). Every
#: other operation merges the buffer first.
PENDING_TOKENS = 1 << 12

#: Bits of a token at the aggregator's token parameter ``v``: a token
#: row's entries are ``row << _TOKEN_BITS | token``, which fits int64
#: for 2**31 rows.
_TOKEN_BITS = token_bits(DEFAULT_V)
_TOKEN_MASK = (1 << _TOKEN_BITS) - 1
_V_MASK = (1 << DEFAULT_V) - 1

#: ``_slot`` of a token-mode (or free) row, and of a dropped token row
#: whose entries still wait in the token array.
_TOKENS = -1
_DEAD = -2

#: Register bits :meth:`DistinctCountAggregator.to_bytes` packs (and
#: :meth:`~DistinctCountAggregator.from_bytes` unpacks) per chunk of
#: dense rows: their one-int64-per-bit temporaries stay at 1 MB.
_PACK_BITS = 1 << 17

#: The estimate column's entry for a row not solved since its state last
#: changed (or bound to no key).
_UNSOLVED = float("nan")

#: Initial row and block capacities; both double when full.
_INITIAL_ROWS = 64
_INITIAL_SLOTS = 8

@lru_cache(maxsize=1 << 12)
def _uvarint(value: int) -> bytes:
    """:func:`write_uvarint` of ``value``: a key or blob length of :meth:`to_bytes`."""
    encoded = bytearray()
    write_uvarint(encoded, value)
    return bytes(encoded)


def _runs(values):
    """Distinct values of a sorted array and the length of each run."""
    import numpy as np

    if not len(values):
        return values, np.zeros(0, dtype=np.int64)
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    return values[starts], np.diff(np.append(starts, len(values)))


def _gather(starts, lengths):
    """Indices of the runs ``[start, start + length)``, concatenated."""
    import numpy as np

    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(int(lengths.sum()))


def _entries(row: int, sketch):
    """``row << 32 | token`` for each token of a token-mode sketch."""
    import numpy as np

    tokens = np.fromiter(sketch.tokens, dtype=np.int64, count=sketch.token_count)
    return (row << _TOKEN_BITS) | tokens


def _pack_registers(block, width: int):
    """Each row of ``block`` as the MSB-first packed bytes of ``to_bytes``."""
    import numpy as np

    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    bits = ((block[:, :, None] >> shifts) & 1).astype(np.uint8)
    return np.packbits(bits.reshape(len(block), -1), axis=1)


def _unpack_registers(packed, m: int, width: int):
    """The ``(rows, m)`` int64 registers of :func:`_pack_registers` rows."""
    import numpy as np

    bits = np.unpackbits(packed, axis=1, count=m * width).reshape(len(packed), m, width)
    weights = np.left_shift(1, np.arange(width - 1, -1, -1, dtype=np.int64))
    return bits @ weights


class DistinctCountAggregator:
    """Per-group approximate distinct counting with mergeable state.

    Parameters mirror :class:`~repro.core.exaloglog.ExaLogLog`;
    ``sparse=True`` (default) starts every group in token mode so that
    aggregations with many small groups stay small (Sec. 4.3's motivation).

    The aggregator is the only owner of its group state, which is
    columnar: ``key → row`` is the only dict. Every token-mode group's
    Sec. 4.3 tokens live in one sorted int64 array of
    ``row << 32 | token`` entries, with a token count per row (the
    sorted sparse list of HyperLogLog++, kept for all groups at once);
    every dense group's registers are one row of a 2-D register block
    (int64, or Python ints where registers are wider). Dropped rows and
    block rows are reused. Every layer that keeps group state in an
    aggregator (store, reader, follower, cluster, spill, sliding-window
    counter) changes it through :meth:`fold_segments` (or :meth:`fold`,
    or :meth:`add_hash` one hash at a time), :meth:`merge_sketch` and
    :meth:`drop_group`, and reads it through :meth:`estimates`,
    :meth:`top` and the two point reads, :meth:`group_estimate` and
    :meth:`group_sketch`.

    Beside the token array and the register block, one float64 column
    keeps each row's estimate as last solved. Every write of a row's
    registers or tokens sets its entry to NaN, "not solved since the
    row last changed" (a dense :meth:`add_hash` at the next read), and
    so does a drop; :meth:`group_estimate` (behind :meth:`estimate`),
    :meth:`estimates` and :meth:`top` solve only the NaN rows and keep
    what they solve. Algorithms 3, 7 and 8 read one row at a time, so a
    kept estimate is the float a fresh solve gives. The column is
    derived state: :meth:`to_bytes` and :meth:`total_memory_bytes`
    leave it out, :meth:`from_bytes` starts it unsolved, and
    :meth:`copy` and :meth:`merge_inplace`'s copied groups keep it.
    """

    __slots__ = (
        "_block", "_changed", "_counts", "_d", "_est", "_free_rows",
        "_free_slots", "_keys", "_next_row", "_p", "_params", "_pending",
        "_rows", "_seed", "_slot", "_sparse", "_stale", "_t", "_used_slots",
    )

    def __init__(
        self,
        t: int = 2,
        d: int = 20,
        p: int = 8,
        sparse: bool = True,
        seed: int = 0,
    ) -> None:
        import numpy as np

        self._t = t
        self._d = d
        self._p = p
        self._sparse = sparse
        self._seed = seed
        # Validate parameters eagerly by building a throwaway sketch.
        self._params = self._new_sketch().params
        self._rows: dict[bytes, int] = {}
        self._next_row = 0
        self._free_rows: list[int] = []
        self._slot = np.full(_INITIAL_ROWS, _TOKENS, dtype=np.int64)
        self._counts = np.zeros(_INITIAL_ROWS, dtype=np.int64)
        self._est = np.full(_INITIAL_ROWS, _UNSOLVED)
        self._keys = np.zeros(0, dtype=np.int64)
        self._pending: list[int] = []
        self._changed: set[int] = set()
        self._stale: list[int] = []
        self._block = self._empty_block(_INITIAL_SLOTS)
        self._used_slots = 0
        self._free_slots: list[int] = []

    def _new_sketch(self) -> ExaLogLog | SparseExaLogLog:
        if self._sparse:
            return SparseExaLogLog(self._t, self._d, self._p)
        return ExaLogLog(self._t, self._d, self._p)

    @staticmethod
    def _group_key(group: Hashable) -> bytes:
        """``group``'s canonical key, :func:`repro.hashing.to_bytes`."""
        return to_bytes(group)

    @property
    def _int64(self) -> bool:
        """Whether the block is int64 (registers of at most 63 bits)."""
        return self._params.register_bits <= 63

    @property
    def _break_even(self) -> int:
        """:attr:`SparseExaLogLog.break_even_tokens` of the groups."""
        return self._params.dense_bytes // token_bytes(DEFAULT_V)

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

    # -- rows and block slots --------------------------------------------------

    def _empty_block(self, slots: int):
        import numpy as np

        return np.zeros(
            (slots, self._params.m), dtype=np.int64 if self._int64 else object
        )

    def _new_row(self, key: bytes) -> int:
        """A row for the unseen ``key``: token mode, or dense when not sparse."""
        if self._free_rows:
            row = self._free_rows.pop()
        else:
            row = self._next_row
            self._reserve(1)
        self._rows[key] = row
        if not self._sparse:
            self._slot[row] = self._new_slot()
        return row

    def _rows_of(self, keys: "list[bytes]"):
        """Each key's row, unseen keys created empty in order: one dict probe each.

        Every key is offered a free row id through ``dict.setdefault``;
        an unseen key takes its offer, and the offers that seen keys
        (or a key's repeats) leave go back to the free rows.
        """
        import numpy as np

        free = self._free_rows
        reused = min(len(keys), len(free))
        offers = free[len(free) - reused :]
        del free[len(free) - reused :]
        start = self._next_row
        self._reserve(len(keys) - reused)
        offers = np.concatenate(
            (np.array(offers, dtype=np.int64), np.arange(start, self._next_row))
        )
        rows = np.fromiter(
            map(self._rows.setdefault, keys, offers.tolist()),
            dtype=np.int64,
            count=len(keys),
        )
        taken = rows == offers
        free += offers[~taken].tolist()
        if not self._sparse:
            self._slot[rows[taken]] = [self._new_slot() for _ in range(int(taken.sum()))]
        return rows

    def _reserve(self, count: int) -> None:
        """Take ``count`` fresh row ids, doubling the per-row arrays when full."""
        import numpy as np

        self._next_row += count
        if self._next_row > len(self._slot):
            capacity = max(2 * len(self._slot), self._next_row)
            slot = np.full(capacity, _TOKENS, dtype=np.int64)
            slot[: len(self._slot)] = self._slot
            counts = np.zeros(capacity, dtype=np.int64)
            counts[: len(self._counts)] = self._counts
            est = np.full(capacity, _UNSOLVED)
            est[: len(self._est)] = self._est
            self._slot, self._counts, self._est = slot, counts, est

    def _row(self, group: Hashable) -> int:
        """``group``'s row, created empty on first use (the one get-or-create)."""
        key = to_bytes(group)
        row = self._rows.get(key)
        return self._new_row(key) if row is None else row

    def _new_slot(self) -> int:
        """A zeroed block row."""
        if self._free_slots:
            slot = self._free_slots.pop()
            self._block[slot] = 0
            return slot
        slot = self._used_slots
        self._used_slots += 1
        if slot == len(self._block):
            grown = self._empty_block(2 * slot)
            grown[:slot] = self._block
            self._block = grown
        return slot

    # -- the token array --------------------------------------------------------

    def _flush(self) -> None:
        """Merge the insertion buffer, and unsolve the rows :meth:`add_hash`
        changed in place (every read and write but :meth:`add_hash`)."""
        if self._pending:
            pending, self._pending = self._pending, []
            self._merge_tokens(pending)
        if self._changed:
            self._est[list(self._changed)] = _UNSOLVED
            self._changed = set()

    def _purge(self) -> None:
        """Drop the entries of rows that left token mode; free dropped rows.

        Such entries are never read (only token-mode rows' runs are), so
        the purge waits for a pass that rebuilds the array anyway, and
        a dropped token row is reused only after it.
        """
        if self._stale:
            self._keys = self._keys[self._slot[self._keys >> _TOKEN_BITS] == _TOKENS]
            dead = [row for row in set(self._stale) if self._slot[row] == _DEAD]
            self._slot[dead] = _TOKENS
            self._free_rows += dead
            self._stale = []

    def _merge_tokens(self, entries) -> None:
        """Merge token entries; every row that gained one past break-even densifies.

        The rule of the per-item :meth:`SparseExaLogLog.add_hash` loop
        and of a token-mode :meth:`SparseExaLogLog.merge_inplace`, and
        densification is the sketch's own :meth:`SparseExaLogLog.densify`.
        """
        import numpy as np

        grown = self._insert_tokens(np.asarray(entries, dtype=np.int64))
        for row in grown[self._counts[grown] > self._break_even].tolist():
            self._put(row, self._sketch_of(row).densify())

    def _insert_tokens(self, entries):
        """Merge ``row << 32 | token`` entries (any order, repeats allowed).

        One sort, one ``searchsorted`` against the sorted array and one
        ``np.insert`` of the entries not yet present (none, and the
        array is not copied); each row's count grows by its new tokens.
        Returns the rows that gained one.
        """
        import numpy as np

        new = np.sort(entries)
        if len(new) > 1:
            new = new[np.concatenate(([True], new[1:] != new[:-1]))]
        keys = self._keys
        if len(keys) and len(new):
            at = np.searchsorted(keys, new)
            present = at < len(keys)
            present[present] = keys[at[present]] == new[present]
            new, at = new[~present], at[~present]
            if len(new):
                self._keys = np.insert(keys, at, new)
        elif len(new):
            self._keys = new
        rows, counts = _runs(new >> _TOKEN_BITS)
        self._counts[rows] += counts
        self._est[rows] = _UNSOLVED
        return rows

    def _token_runs(self, rows):
        """Start and length of each of ``rows``' token runs in the array."""
        import numpy as np

        rows = np.asarray(rows, dtype=np.int64) << _TOKEN_BITS
        starts = np.searchsorted(self._keys, rows)
        stops = np.searchsorted(self._keys, rows + (1 << _TOKEN_BITS))
        return starts, stops - starts

    def _row_tokens(self, row: int):
        """One token-mode row's tokens, ascending (int64)."""
        keys, first = self._keys, row << _TOKEN_BITS
        low = keys.searchsorted(first)
        return keys[low : keys.searchsorted(first + (1 << _TOKEN_BITS))] & _TOKEN_MASK

    # -- one row as a sketch, and back ------------------------------------------

    def _sketch_of(self, row: int):
        """A private sketch of ``row``'s state, of the type the row had before.

        A :class:`SparseExaLogLog` in either mode, or an
        :class:`ExaLogLog` when the aggregator is not sparse.
        """
        slot = int(self._slot[row])
        if slot < 0:
            return SparseExaLogLog.from_tokens(
                self._row_tokens(row).tolist(), self._t, self._d, self._p
            )
        if self._int64:
            dense = ExaLogLog.from_params(self._params).adopt_registers(
                self._block[slot].copy()
            )
        else:
            dense = ExaLogLog.from_registers(self._params, self._block[slot].tolist())
        return SparseExaLogLog.from_dense(dense) if self._sparse else dense

    def _put(self, row: int, sketch) -> None:
        """Write a sketch built from ``row`` by :meth:`_sketch_of` back into it.

        A token-mode result only gains tokens, which are inserted; a
        dense result is copied into the row's block row, which a row
        leaving token mode is given (its tokens are purged at the next
        :meth:`_flush`).
        """
        if isinstance(sketch, SparseExaLogLog):
            if sketch.is_sparse:
                self._insert_tokens(_entries(row, sketch))
                return
            sketch = sketch.densify()  # already dense: its inner sketch
        slot = int(self._slot[row])
        if slot < 0:
            slot = self._slot[row] = self._new_slot()
            self._counts[row] = 0
            self._stale.append(row)
        self._block[slot] = (
            sketch.registers_array() if self._int64 else sketch.registers
        )
        self._est[row] = _UNSOLVED

    # -- accumulation ----------------------------------------------------------

    def add(self, group: Hashable, item: Any) -> "DistinctCountAggregator":
        """Record ``item`` under ``group``; returns ``self``."""
        return self.add_hash(group, hash64(item, self._seed))

    def add_hash(self, group: Hashable, hash_value: int) -> "DistinctCountAggregator":
        """Record a pre-hashed value under ``group``; returns ``self``.

        A dense group's register is updated in place (Algorithm 2). A
        token-mode group's token goes to an unsorted insertion buffer of
        :data:`PENDING_TOKENS` entries, merged by one sort when it fills
        or before any other operation, so no insert copies the token
        array.
        """
        row = self._row(group)
        slot = self._slot[row]
        if slot == _TOKENS:
            masked = hash_value | _V_MASK
            self._pending.append(
                (row << _TOKEN_BITS)
                | ((hash_value & _V_MASK) << 6)
                | (64 - masked.bit_length())
            )
            if len(self._pending) >= PENDING_TOKENS:
                self._flush()
            return self
        params = self._params
        t = params.t
        index = (hash_value >> t) & (params.m - 1)
        nlz = 64 - (hash_value | ((1 << (params.p + t)) - 1)).bit_length()
        k = (nlz << t) + (hash_value & ((1 << t) - 1)) + 1
        block = self._block
        register = int(block[slot, index])
        updated = update_register(register, k, params.d)
        if updated != register:
            block[slot, index] = updated
            # Unsolved at the next flush: a set insert (at most one entry
            # per row) costs less here than a NumPy store.
            self._changed.add(row)
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
        scatter (:func:`segment`'s, as columns), then the fold of
        :meth:`fold_segments` for the whole batch: one fold per batch,
        not one per group.
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
        import numpy as np

        keys, hashes, bounds = _columns(groups, items, self._seed)
        if not keys:
            return self
        if spill is not None:
            spill_config = getattr(spill, "config", None)
            if spill_config is not None and spill_config != self.config:
                raise ValueError(
                    f"spill target configuration {spill_config} differs from "
                    f"aggregator configuration {self.config}"
                )
            spill.write_segments(list(zip(keys, _split(hashes, bounds))))
            return self
        self._flush()
        self._purge()
        self._fold(self._rows_of(keys), hashes, bounds[:-1], np.diff(bounds), True)
        return self

    def fold_segments(self, segments) -> "DistinctCountAggregator":
        """Fold ``(group, hashes)`` segments, a whole batch at once; returns ``self``.

        The bulk write every ingest path shares: the batch scatter above,
        the store's commit, WAL replay, the reader's tail and spill
        partition merges, all in this process. Each segment costs one
        dict lookup for its row (a group may appear in several
        segments, and an empty segment only creates its group); the rest
        runs once per batch. Inserts are commutative and idempotent, the
        Algorithm 5 merge is exact and token mode densifies losslessly
        (Sec. 4.3), so the result is bit-identical to folding the
        segments one by one. Each row takes one of three routes, chosen
        from its state before the batch:

        * Dense rows (registers that fit int64) fold stacked, straight
          into the register block: the batch's hashes are grouped by
          row, and each block of at most :data:`STACK_REGISTERS`
          registers takes one :func:`~repro.backends.exaloglog_registers`
          call and one :func:`~repro.backends.merge_exaloglog_registers`
          call with the rows' current registers.
        * Token-mode rows whose count plus their slices cannot pass
          break-even are tokenised together
          (:func:`~repro.backends.tokenize_hashes`, :data:`TOKENISE_ROWS`
          rows a call) and merged into the sorted token array with one
          sort, one ``searchsorted`` and one ``np.insert``.
        * Every other row (a token-mode group that may pass break-even,
          or registers wider than int64) folds its slices, one by one,
          through its sketch's own ``add_hashes`` — for a crossing group
          the tested lossless :meth:`SparseExaLogLog.add_hashes`
          densification — and the result is written back into the
          arrays.
        """
        import numpy as np

        from repro import backends

        self._flush()
        self._purge()
        keys: list[bytes] = []
        arrays: list = []
        ndarray, uint64 = np.ndarray, np.dtype(np.uint64)
        for group, hashes in segments:
            keys.append(group if type(group) is bytes else to_bytes(group))
            if type(hashes) is not ndarray or hashes.dtype is not uint64 or hashes.ndim != 1:
                hashes = backends.as_hash_array(hashes)
            arrays.append(hashes)
        if keys:
            lengths = np.fromiter(map(len, arrays), dtype=np.int64, count=len(arrays))
            self._fold(
                self._rows_of(keys),
                np.concatenate(arrays) if len(arrays) > 1 else arrays[0],
                np.cumsum(lengths) - lengths,
                lengths,
            )
        return self

    def _fold(self, rows, flat, starts, lengths, distinct: bool = False) -> None:
        """The fold of :meth:`fold_segments`, on columns.

        Segment ``i`` is ``flat[starts[i]:starts[i] + lengths[i]]`` (uint64
        hashes) into row ``rows[i]``; the segments lie back to back, in
        order, and each route gathers its segments' hashes from ``flat``,
        grouped by row. ``distinct`` says no row repeats (the distinct
        keys of :meth:`add_batch`), so a row's batch total is its slice.
        """
        import numpy as np

        from repro import backends

        self._est[rows] = _UNSOLVED
        slots = self._slot[rows]
        dense = (slots >= 0) & (lengths > 0)
        stacked = np.flatnonzero(dense & self._int64)
        alone = np.flatnonzero(dense & (not self._int64))
        tokens = np.flatnonzero((slots < 0) & (lengths > 0))
        small = tokens[:0]
        if len(tokens) and distinct:
            fits = self._counts[rows[tokens]] + lengths[tokens] <= self._break_even
            small = tokens[fits]
            alone = np.concatenate((alone, tokens[~fits]))
        elif len(tokens):
            # Each token-mode row's total over the batch, by a stable sort.
            order = np.argsort(rows[tokens], kind="stable")
            owners, counts = _runs(rows[tokens][order])
            totals = np.add.reduceat(lengths[tokens][order], np.cumsum(counts) - counts)
            fits = np.empty(len(tokens), dtype=bool)
            fits[order] = np.repeat(self._counts[owners] + totals <= self._break_even, counts)
            small = tokens[fits]
            alone = np.concatenate((alone, tokens[~fits]))

        if len(stacked):
            # The dense segments grouped by row: one row of the block each.
            stacked = stacked[np.argsort(rows[stacked], kind="stable")]
            owners, counts = _runs(rows[stacked])
            sizes = np.add.reduceat(lengths[stacked], np.cumsum(counts) - counts)
            self._fold_stacked(
                owners,
                flat[_gather(starts[stacked], lengths[stacked])],
                np.concatenate(([0], np.cumsum(sizes))),
            )
        # The token entries of every row that stays in token mode, merged
        # into the token array at once.
        merged: list = []
        if len(alone):
            # Slice by slice, in order: the first that can pass break-even
            # densifies the group, and the later ones fold into it.
            alone = alone[np.argsort(rows[alone], kind="stable")]
            owners, counts = _runs(rows[alone])
            ends = np.cumsum(counts).tolist()
            for row, low, high in zip(owners.tolist(), [0, *ends[:-1]], ends):
                sketch = self._sketch_of(row)
                for segment in alone[low:high].tolist():
                    start = starts[segment]
                    sketch.add_hashes(flat[start : start + lengths[segment]])
                if isinstance(sketch, SparseExaLogLog) and sketch.is_sparse:
                    merged.append(_entries(row, sketch))
                else:
                    self._put(row, sketch)
        if len(small):
            if len(small) < len(rows):
                hashes = flat[_gather(starts[small], lengths[small])]
            else:  # every segment, and they lie back to back
                hashes = flat
            entries = np.repeat(rows[small] << _TOKEN_BITS, lengths[small])
            for start in range(0, len(hashes), TOKENISE_ROWS):
                stop = start + TOKENISE_ROWS
                entries[start:stop] |= backends.tokenize_hashes(
                    hashes[start:stop], DEFAULT_V
                )
            merged.append(entries)
        if merged:
            self._insert_tokens(np.concatenate(merged) if len(merged) > 1 else merged[0])

    def _fold_stacked(self, owners, hashes, bounds) -> None:
        """Fold each owner's hashes into its dense row, block by block, in place.

        ``hashes[bounds[i]:bounds[i + 1]]`` belong to ``owners[i]``.
        """
        from repro import backends

        params = self._params
        per_block = max(1, STACK_REGISTERS // params.m)
        for first in range(0, len(owners), per_block):
            last = min(first + per_block, len(owners))
            low = bounds[first]
            block = backends.exaloglog_registers(
                hashes[low : bounds[last]], params, bounds[first : last + 1] - low
            )
            slots = self._slot[owners[first:last]]
            current = self._block[slots]
            if current.any():
                block = backends.merge_exaloglog_registers(current, block, params.d)
            self._block[slots] = block

    def fold(self, group: Hashable, hashes) -> "DistinctCountAggregator":
        """Fold pre-hashed values into ``group``'s sketch; returns ``self``.

        The one-segment case of :meth:`fold_segments`.
        """
        return self.fold_segments(((group, hashes),))

    def check_mergeable(self, sketch) -> None:
        """Raise unless :meth:`merge_sketch` can merge ``sketch`` here.

        ``TypeError`` for anything but a dense or sparse ExaLogLog,
        ``ValueError`` when its parameters differ from this aggregator's,
        or when a sparse sketch's token parameter ``v`` differs from a
        sparse aggregator's (a dense aggregator densifies it first, so
        any ``v`` merges there).
        """
        if not isinstance(sketch, (ExaLogLog, SparseExaLogLog)):
            raise TypeError(f"cannot merge a {type(sketch).__name__} into an aggregator")
        if sketch.params != self._params or (
            self._sparse and isinstance(sketch, SparseExaLogLog) and sketch.v != DEFAULT_V
        ):
            raise ValueError(
                f"cannot merge {sketch!r}: parameters differ from the aggregator's "
                f"(t, d, p, sparse, seed)={self.config}"
            )

    def merge_sketch(self, group: Hashable, sketch) -> "DistinctCountAggregator":
        """Merge a whole sketch into ``group`` (Algorithm 5); returns ``self``.

        ``sketch`` passes :meth:`check_mergeable` first and is left
        unchanged. An unseen group starts empty in this aggregator's own
        representation. A token-mode sketch merged into a token-mode
        group joins the insertion buffer, like :meth:`add_hash`'s
        tokens; every other merge runs the sketches' own
        ``merge_inplace`` on the group's row.
        """
        self.check_mergeable(sketch)
        row = self._row(group)
        if (
            isinstance(sketch, SparseExaLogLog)
            and sketch.is_sparse
            and self._slot[row] == _TOKENS
            and self._counts[row] <= self._break_even
        ):
            base = row << _TOKEN_BITS
            self._pending += [base | token for token in sketch.tokens]
            if len(self._pending) >= PENDING_TOKENS:
                self._flush()
            return self
        self._flush()
        self._merge_row(row, sketch)
        return self

    def _merge_row(self, row: int, sketch) -> None:
        """The sketches' own ``merge_inplace`` of ``sketch`` into ``row``."""
        mine = self._sketch_of(row)
        if not isinstance(mine, SparseExaLogLog) and isinstance(sketch, SparseExaLogLog):
            sketch = sketch.copy().densify()
        mine.merge_inplace(sketch)
        self._put(row, mine)

    def drop_group(self, group: Hashable) -> "DistinctCountAggregator":
        """Remove ``group`` (a no-op for unseen groups); returns ``self``.

        Its row and block row are reused by later groups.
        """
        row = self._rows.pop(to_bytes(group), None)
        if row is None:
            return self
        self._flush()
        slot = int(self._slot[row])
        self._counts[row] = 0
        self._est[row] = _UNSOLVED  # a row bound to no key holds no estimate
        if slot >= 0:
            self._free_slots.append(slot)
        if slot >= 0 and not self._stale:
            self._slot[row] = _TOKENS
            self._free_rows.append(row)
        else:  # its tokens leave the array at the next flush
            self._slot[row] = _DEAD
            self._stale.append(row)
        return self

    # -- queries -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, group: Hashable) -> bool:
        return to_bytes(group) in self._rows

    def groups(self) -> Iterator[bytes]:
        """The observed group keys (canonical byte form), in insertion order."""
        return iter(self._rows)

    def _all_rows(self):
        import numpy as np

        return np.fromiter(self._rows.values(), dtype=np.int64, count=len(self._rows))

    def estimate(self, group: Hashable) -> float:
        """Distinct-count estimate for one group (0 for unseen groups)."""
        value = self.group_estimate(group)
        return 0.0 if value is None else value

    def group_estimate(self, group: Hashable) -> "float | None":
        """One group's estimate (``None`` for unseen groups).

        The :class:`repro.query.SketchSource` point read of an estimate,
        behind every source's ``group_estimate`` and every point query:
        the row's kept estimate, or a solve of that one row, which is
        then kept. A group created empty answers 0.0.
        """
        row = self._rows.get(to_bytes(group))
        if row is None:
            return None
        return float(self._estimate_rows([row])[0])

    def group_sketch(self, group: Hashable):
        """A private copy of one group's sketch (``None`` for unseen groups).

        The :class:`repro.query.SketchSource` point read of a sketch,
        behind every source's ``group_sketch`` and every query scan and
        set operation. The sketch is built from the row:
        a :class:`SparseExaLogLog` in either mode, or an
        :class:`ExaLogLog` when the aggregator is not sparse. Callers
        may merge it in place without affecting this aggregator.
        """
        row = self._rows.get(to_bytes(group))
        if row is None:
            return None
        self._flush()
        return self._sketch_of(row)

    def estimates(self) -> dict[bytes, float]:
        """All group estimates, batched, in insertion order.

        Read straight from the arrays, with no per-group object: dense
        rows through the vectorised Algorithm 3 on block rows, token
        rows through Algorithm 7's coefficients from one ``bincount``
        over (row, j) of the token array, and one
        :func:`repro.estimation.batch.solve_ml_equations` call per chunk
        of up to ``ESTIMATE_CHUNK_ROWS`` groups. Only the groups written
        since the last read are solved; the others' kept estimates are
        read from the estimate column. Bit-identical to calling
        ``sketch.estimate()`` per group. A million-group aggregation
        resolves in one call, in bounded memory::

            agg = DistinctCountAggregator(p=8)
            agg.add_batch(group_array, item_array)   # ... many batches
            by_group = agg.estimates()               # one solve per 16,384 groups
            heaviest = agg.top(10)                   # top-k without full sort
        """
        if not self._rows:
            return {}
        return dict(zip(self._rows, self._estimate_rows(self._all_rows()).tolist()))

    def top(self, count: int) -> list[tuple[bytes, float]]:
        """The ``count`` groups with the largest estimates, ties by
        ascending key (:func:`repro.estimation.batch.rank`).

        Selects in O(groups), not a full sort: the rows above the
        ``count``-th largest estimate, and the smallest keys tied at it.
        Reads every group's estimate as :meth:`estimates` does, so only
        the groups written since the last read are solved.
        """
        from repro.estimation.batch import rank, top_positions

        if count <= 0 or not self._rows:
            return []
        values = self._estimate_rows(self._all_rows())
        keys = list(self._rows)
        above, tied = top_positions(values, count)
        rows = [(keys[i], float(values[i])) for i in above.tolist()]
        tied_keys = heapq.nsmallest(count - len(rows), [keys[i] for i in tied.tolist()])
        rows += [(key, float(values[tied[0]])) for key in tied_keys]
        return rank(rows, count)

    def _estimate_rows(self, rows):
        """Estimates of ``rows``, in order, read from the estimate column.

        The rows not solved since their state last changed (NaN in the
        column) are solved by :meth:`_solve`, and what it solves is kept.
        """
        import numpy as np

        self._flush()
        rows = np.asarray(rows, dtype=np.int64)
        out = self._est[rows]
        unsolved = np.isnan(out)
        if unsolved.all():  # nothing kept, as on a first read: no gathers by position
            out = self._est[rows] = self._solve(rows)
        elif unsolved.any():
            positions = np.flatnonzero(unsolved)
            solving = rows[positions]
            out[positions] = self._est[solving] = self._solve(solving)
        return out

    def _solve(self, rows):
        """Estimates of ``rows`` by Algorithms 3 or 7 and 8: dense rows
        first in each chunk of ``ESTIMATE_CHUNK_ROWS``."""
        import numpy as np

        from repro.estimation.batch import ESTIMATE_CHUNK_ROWS, estimate_chunk

        out = np.empty(len(rows))
        slots = self._slot[rows]
        dense = np.flatnonzero(slots >= 0)
        if not self._int64:
            for position in dense.tolist():
                out[position] = self._sketch_of(int(rows[position])).estimate()
            dense = dense[:0]
        order = np.concatenate((dense, np.flatnonzero(slots < 0)))
        for start in range(0, len(order), ESTIMATE_CHUNK_ROWS):
            chunk = order[start : start + ESTIMATE_CHUNK_ROWS]
            split = min(max(len(dense) - start, 0), len(chunk))
            tokens = None
            if split < len(chunk):
                starts, lengths = self._token_runs(rows[chunk[split:]])
                tokens = (
                    np.repeat(np.arange(split, len(chunk)), lengths),
                    self._keys[_gather(starts, lengths)] & _TOKEN_MASK,
                    len(chunk),
                    DEFAULT_V,
                )
            out[chunk] = estimate_chunk(
                self._block[slots[chunk[:split]]], self._params, tokens
            )
        return out

    def total_memory_bytes(self) -> int:
        """Modelled footprint across all groups: each group's sketch model.

        A token-mode group counts its tokens at ``token_bytes(v)`` each, a
        dense group its packed register array, and every group one
        object overhead (:attr:`SparseExaLogLog.memory_bytes`,
        :attr:`ExaLogLog.memory_bytes`).
        """
        from repro.baselines.base import OBJECT_OVERHEAD_BYTES

        self._flush()
        rows = self._all_rows()
        dense = int((self._slot[rows] >= 0).sum())
        tokens = int(self._counts[rows].sum())
        return (
            len(rows) * OBJECT_OVERHEAD_BYTES
            + dense * self._params.dense_bytes
            + tokens * token_bytes(DEFAULT_V)
        )

    # -- merge --------------------------------------------------------------------

    def merge_inplace(self, other: "DistinctCountAggregator") -> "DistinctCountAggregator":
        """Union with another aggregator of identical configuration.

        A group unseen here is copied as it is; a group both hold merges
        as :meth:`merge_sketch` would merge ``other``'s sketch of it.
        """
        import numpy as np

        if not isinstance(other, DistinctCountAggregator):
            raise TypeError(
                f"cannot merge DistinctCountAggregator with {type(other).__name__}"
            )
        if self.config != other.config:
            raise ValueError("aggregator configurations differ")
        other._flush()
        self._flush()
        copied: list[tuple[int, int]] = []
        shared: list[tuple[int, int]] = []
        for key, row in other._rows.items():
            mine = self._rows.get(key)
            if mine is None:
                copied.append((self._new_row(key), row))
            else:
                shared.append((mine, row))
        if copied:
            mine, theirs = np.array(copied, dtype=np.int64).T
            self._copy_rows(other, mine, theirs)
        if shared:
            mine, theirs = np.array(shared, dtype=np.int64).T
            # Token sets into token rows that are not past break-even: one
            # merge, as merge_sketch's buffer would do it.
            tokens = (
                (other._slot[theirs] == _TOKENS)
                & (self._slot[mine] == _TOKENS)
                & (self._counts[mine] <= self._break_even)
            )
            if tokens.any():
                starts, lengths = other._token_runs(theirs[tokens])
                entries = other._keys[_gather(starts, lengths)] & _TOKEN_MASK
                self._merge_tokens(
                    entries | np.repeat(mine[tokens] << _TOKEN_BITS, lengths)
                )
            for row, theirs_row in zip(mine[~tokens].tolist(), theirs[~tokens].tolist()):
                self._merge_row(row, other._sketch_of(theirs_row))
        return self

    def _copy_rows(self, other, mine, theirs) -> None:
        """Copy ``other``'s rows ``theirs`` verbatim into this aggregator's fresh ``mine``."""
        import numpy as np

        slots = other._slot[theirs]
        tokens = slots < 0
        if tokens.any():
            starts, lengths = other._token_runs(theirs[tokens])
            entries = other._keys[_gather(starts, lengths)] & _TOKEN_MASK
            entries |= np.repeat(mine[tokens] << _TOKEN_BITS, lengths)
            self._insert_tokens(entries)
        for row, slot in zip(mine[~tokens].tolist(), slots[~tokens].tolist()):
            mine_slot = int(self._slot[row])
            if mine_slot < 0:
                mine_slot = self._slot[row] = self._new_slot()
            self._block[mine_slot] = other._block[slot]
        self._est[mine] = other._est[theirs]  # the same state, so the same estimate

    def merge(self, other: "DistinctCountAggregator") -> "DistinctCountAggregator":
        result = self.copy()
        return result.merge_inplace(other)

    def copy(self) -> "DistinctCountAggregator":
        self._flush()
        self._purge()
        clone = DistinctCountAggregator(
            self._t, self._d, self._p, self._sparse, self._seed
        )
        clone._rows = dict(self._rows)
        clone._next_row = self._next_row
        clone._free_rows = list(self._free_rows)
        clone._slot = self._slot.copy()
        clone._counts = self._counts.copy()
        clone._est = self._est.copy()
        clone._keys = self._keys.copy()
        clone._block = self._block.copy()
        clone._used_slots = self._used_slots
        clone._free_slots = list(self._free_slots)
        return clone

    # -- serialization ----------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize all groups (length-prefixed inner sketch blobs).

        Groups in key order, each blob byte-identical to its sketch's
        ``to_bytes``: a :class:`SparseExaLogLog` blob (delta-varint
        tokens, or the dense payload) when sparse, an :class:`ExaLogLog`
        blob otherwise. Token deltas encode in one vectorised pass and
        dense rows pack in row chunks.
        """
        import numpy as np

        from repro.storage.serialization import (
            TAG_EXALOGLOG,
            TAG_SPARSE_EXALOGLOG,
            write_uvarints,
        )

        self._flush()
        self._purge()
        params = self._params
        keys = sorted(self._rows)
        rows = np.fromiter(
            (self._rows[key] for key in keys), dtype=np.int64, count=len(keys)
        )
        slots = self._slot[rows]
        blobs: list = [None] * len(keys)
        dense_head = bytes(write_header(TAG_EXALOGLOG)) + bytes((self._t, self._d, self._p))
        if self._sparse:
            sparse_head = bytes(write_header(TAG_SPARSE_EXALOGLOG)) + bytes(
                (self._t, self._d, self._p, DEFAULT_V)
            )
            dense_head = sparse_head + b"\x01" + dense_head
            positions = np.flatnonzero(slots < 0)
            starts, lengths = self._token_runs(rows[positions])
            tokens = self._keys[_gather(starts, lengths)] & _TOKEN_MASK
            # Each run's first token is its own delta (from 0).
            deltas = np.diff(tokens, prepend=0)
            firsts = (np.cumsum(lengths) - lengths)[lengths > 0]
            deltas[firsts] = tokens[firsts]
            encoded = bytearray()
            write_uvarints(encoded, deltas)
            encoded = bytes(encoded)
            sizes = np.ones(len(deltas), dtype=np.int64)
            for bits in range(7, _TOKEN_BITS + 1, 7):
                sizes += deltas >= 1 << bits
            run_bytes = np.bincount(
                np.repeat(np.arange(len(lengths)), lengths),
                weights=sizes,
                minlength=len(lengths),
            ).astype(np.int64)
            ends = np.cumsum(run_bytes)
            begins = ends - run_bytes
            token_head = sparse_head + b"\x00"
            for position, count, begin, end in zip(
                positions.tolist(), lengths.tolist(), begins.tolist(), ends.tolist()
            ):
                blobs[position] = b"".join(
                    (token_head, _uvarint(count), encoded[begin:end])
                )
        positions = np.flatnonzero(slots >= 0)
        width = params.register_bits
        chunk = max(1, _PACK_BITS // (params.m * width))
        for start in range(0, len(positions), chunk):
            part = positions[start : start + chunk]
            block = self._block[slots[part]]
            if self._int64:
                packed = [row.tobytes() for row in _pack_registers(block, width)]
            else:
                packed = [
                    PackedArray.from_values(width, row.tolist()).to_bytes()
                    for row in block
                ]
            for position, payload in zip(part.tolist(), packed):
                blobs[position] = dense_head + payload
        buffer = write_header(TAG_AGGREGATOR)
        buffer.extend((self._t, self._d, self._p, 1 if self._sparse else 0))
        write_uvarint(buffer, self._seed)
        write_uvarint(buffer, len(keys))
        pieces = [bytes(buffer)]
        for key, blob in zip(keys, blobs):
            pieces += (_uvarint(len(key)), key, _uvarint(len(blob)), blob)
        return b"".join(pieces)

    @classmethod
    def from_bytes(cls, data: bytes) -> "DistinctCountAggregator":
        """Decode :meth:`to_bytes` output straight into the arrays, in one pass.

        The group framing is read once; then every token-mode group's
        delta run is decoded by one :func:`read_uvarints` call over the
        concatenated runs, split by the groups' counts, and every dense
        payload unpacks into its block row in row chunks. Each group's
        sketch parameters must be the aggregator's; a run that does not
        decode to exactly its count of tokens raises
        :class:`SerializationError`.
        """
        import numpy as np

        from repro.storage.serialization import (
            TAG_EXALOGLOG,
            TAG_SPARSE_EXALOGLOG,
            read_uvarints,
        )

        offset = read_header(data, TAG_AGGREGATOR)
        if len(data) < offset + 4:
            raise SerializationError("truncated aggregator parameters")
        t, d, p, sparse_flag = data[offset : offset + 4]
        offset += 4
        seed, offset = read_uvarint(data, offset)
        count, offset = read_uvarint(data, offset)
        aggregator = cls(t, d, p, bool(sparse_flag), seed)
        params = aggregator._params
        dense_head = bytes(write_header(TAG_EXALOGLOG)) + bytes((t, d, p))
        sparse_head = bytes(write_header(TAG_SPARSE_EXALOGLOG)) + bytes((t, d, p, DEFAULT_V))
        dense_size = len(dense_head) + params.dense_bytes
        if sparse_flag:
            dense_head = sparse_head + b"\x01" + dense_head
            dense_size += len(sparse_head) + 1
        token_head = sparse_head + b"\x00"
        token_rows, token_counts, token_spans = [], [], []
        dense_rows, dense_at = [], []
        rows = aggregator._rows
        for row in range(count):
            key_length, offset = read_uvarint(data, offset)
            key = bytes(data[offset : offset + key_length])
            if len(key) != key_length:
                raise SerializationError("truncated aggregator group key")
            offset += key_length
            blob_length, offset = read_uvarint(data, offset)
            end = offset + blob_length
            if end > len(data):
                raise SerializationError("truncated aggregator group payload")
            if key in rows:
                raise SerializationError(f"group {key!r} appears twice")
            rows[key] = row
            head = bytes(data[offset : offset + len(dense_head)])
            if blob_length == dense_size and head == dense_head:
                dense_rows.append(row)
                dense_at.append(offset + len(dense_head))
            elif sparse_flag and head[: len(token_head)] == token_head:
                tokens, at = read_uvarint(data, offset + len(token_head))
                if at > end:
                    raise SerializationError("truncated varint")
                token_rows.append(row)
                token_counts.append(tokens)
                token_spans.append((at, end))
            else:
                raise SerializationError(
                    f"group {key!r}: sketch blob is not a "
                    f"{'SparseExaLogLog' if sparse_flag else 'ExaLogLog'} of the "
                    f"aggregator's parameters (t, d, p)=({t}, {d}, {p}) "
                    "of the expected size"
                )
            offset = end
        if offset != len(data):
            raise SerializationError(
                f"{len(data) - offset} trailing bytes after aggregator payload"
            )
        aggregator._next_row = count
        capacity = max(_INITIAL_ROWS, count)
        aggregator._slot = np.full(capacity, _TOKENS, dtype=np.int64)
        aggregator._counts = np.zeros(capacity, dtype=np.int64)
        aggregator._est = np.full(capacity, _UNSOLVED)
        view = np.frombuffer(data, dtype=np.uint8)
        if token_rows:
            spans = np.array(token_spans, dtype=np.int64).reshape(-1, 2)
            runs = view[_gather(spans[:, 0], spans[:, 1] - spans[:, 0])]
            counts = np.array(token_counts, dtype=np.int64)
            deltas, used = read_uvarints(runs, 0, int(counts.sum()))
            # Each run holds exactly its count of varint ends, and ends on one.
            ends = np.cumsum(spans[:, 1] - spans[:, 0])
            marks = np.concatenate(([0], np.cumsum(runs < 0x80)))
            last = ends[spans[:, 1] > spans[:, 0]] - 1
            if (
                used != len(runs)
                or not np.array_equal(marks[ends], np.cumsum(counts))
                or (runs[last] >= 0x80).any()
            ):
                raise SerializationError(
                    "a sparse group's token deltas do not decode to its token count"
                )
            # One cumulative sum over every run; each run subtracts the sum
            # before its first delta.
            total = np.cumsum(deltas, dtype=np.uint64)
            before = np.concatenate((np.zeros(1, np.uint64), total))
            tokens = total - np.repeat(before[np.cumsum(counts) - counts], counts)
            if len(tokens) and int(tokens.max()) > _TOKEN_MASK:
                raise SerializationError(
                    f"a token exceeds the {_TOKEN_BITS} bits of v={DEFAULT_V}"
                )
            entries = tokens.astype(np.int64) | np.repeat(
                np.array(token_rows, dtype=np.int64) << _TOKEN_BITS, counts
            )
            if len(entries) > 1 and not (entries[1:] > entries[:-1]).all():
                entries = np.unique(entries)  # repeated deltas of zero: one token
            aggregator._keys = entries
            owners, owned = _runs(entries >> _TOKEN_BITS)
            aggregator._counts[owners] = owned
        if dense_rows:
            aggregator._block = aggregator._empty_block(max(_INITIAL_SLOTS, len(dense_rows)))
            aggregator._used_slots = len(dense_rows)
            aggregator._slot[dense_rows] = np.arange(len(dense_rows))
            width = params.register_bits
            size = params.dense_bytes
            at = np.array(dense_at, dtype=np.int64)
            chunk = max(1, _PACK_BITS // (params.m * width))
            for start in range(0, len(at), chunk):
                part = at[start : start + chunk]
                packed = view[part[:, None] + np.arange(size)]
                if aggregator._int64:
                    registers = _unpack_registers(packed, params.m, width)
                else:
                    registers = [
                        PackedArray.from_bytes(width, params.m, bytes(row)).to_list()
                        for row in packed
                    ]
                    registers = np.array(registers, dtype=object).reshape(-1, params.m)
                if max(map(max, registers.tolist())) > params.max_register_value:
                    raise SerializationError(
                        "a register value exceeds the maximum of "
                        f"{params.max_register_value}"
                    )
                aggregator._block[start : start + len(part)] = registers
        return aggregator

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistinctCountAggregator):
            return NotImplemented
        return self.config == other.config and self.to_bytes() == other.to_bytes()

    def __repr__(self) -> str:
        return (
            f"DistinctCountAggregator(t={self._t}, d={self._d}, p={self._p}, "
            f"groups={len(self._rows)})"
        )
