"""Sparse-mode ExaLogLog (paper Sec. 4.3).

For small distinct counts, allocating the full register array wastes
memory. :class:`SparseExaLogLog` starts out collecting distinct hash
tokens (a few bytes each, ``v = 26`` tokens fit 32-bit integers) and
switches to the dense :class:`~repro.core.exaloglog.ExaLogLog`
representation at the break-even point where the token set would outgrow
the register array. The transition is lossless: tokens are transformed
back to representative hash values and replayed through Algorithm 2.

Estimation works in both modes — token-set ML (Alg. 7) while sparse,
register ML (Alg. 3 + 8) once dense.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.exaloglog import ExaLogLog
from repro.core.params import ExaLogLogParams, make_params
from repro.core.token import (
    DEFAULT_V,
    estimate_from_tokens,
    hash_to_token,
    token_bytes,
    token_to_hash,
)
from repro.hashing import hash64
from repro.storage.serialization import (
    SerializationError,
    TAG_SPARSE_EXALOGLOG,
    read_header,
    read_uvarint,
    read_uvarints,
    write_header,
    write_uvarint,
)

#: ``break_even_tokens`` keyed by ``(id(params), v)``. Each entry holds its
#: params object, so no other object can take that id while it is cached.
_BREAK_EVEN: "dict[tuple[int, int], tuple[ExaLogLogParams, int]]" = {}


class SparseExaLogLog:
    """ExaLogLog with a sparse token-set mode and automatic densification.

    Parameters mirror :class:`ExaLogLog` plus the token parameter ``v``
    (``p + t <= v`` required so tokens keep all insertion-relevant bits).
    """

    __slots__ = ("_dense", "_params", "_tokens", "_v")

    def __init__(
        self, t: int = 2, d: int = 20, p: int = 8, v: int = DEFAULT_V
    ) -> None:
        params = make_params(t, d, p)
        if params.p + params.t > v:
            raise ValueError(
                f"token parameter v={v} too small: requires p + t <= v, "
                f"got p + t = {params.p + params.t}"
            )
        self._params = params
        self._v = v
        self._tokens: set[int] | None = set()
        self._dense: ExaLogLog | None = None

    @classmethod
    def from_tokens(
        cls, tokens: Iterable[int], t: int = 2, d: int = 20, p: int = 8, v: int = DEFAULT_V
    ) -> "SparseExaLogLog":
        """A token-mode sketch holding ``tokens`` as they are (no densification)."""
        sketch = cls(t, d, p, v)
        sketch._tokens = set(tokens)
        return sketch

    @classmethod
    def from_dense(cls, dense: ExaLogLog, v: int = DEFAULT_V) -> "SparseExaLogLog":
        """A dense-mode sketch around ``dense`` (adopted, not copied)."""
        params = dense.params
        sketch = cls(params.t, params.d, params.p, v)
        sketch._tokens = None
        sketch._dense = dense
        return sketch

    # -- properties -----------------------------------------------------------

    @property
    def params(self) -> ExaLogLogParams:
        return self._params

    @property
    def v(self) -> int:
        """Token parameter; tokens take ``v + 6`` bits."""
        return self._v

    @property
    def is_sparse(self) -> bool:
        """True while still collecting tokens."""
        return self._tokens is not None

    @property
    def token_count(self) -> int:
        """Number of distinct tokens collected (0 once dense)."""
        return len(self._tokens) if self._tokens is not None else 0

    @property
    def tokens(self) -> frozenset[int]:
        """Snapshot of the collected tokens (empty once dense)."""
        return frozenset(self._tokens) if self._tokens is not None else frozenset()

    @property
    def break_even_tokens(self) -> int:
        """Token count at which the dense array becomes smaller.

        Computed once per (params, v): the batch folds ask for it once per
        group and batch.
        """
        entry = _BREAK_EVEN.get((id(self._params), self._v))
        if entry is None:
            params = self._params
            entry = _BREAK_EVEN[id(params), self._v] = (
                params,
                params.dense_bytes // token_bytes(self._v),
            )
        return entry[1]

    @property
    def memory_bytes(self) -> int:
        """Modelled footprint: token set while sparse, register array after."""
        from repro.baselines.base import OBJECT_OVERHEAD_BYTES

        if self._tokens is not None:
            return OBJECT_OVERHEAD_BYTES + len(self._tokens) * token_bytes(self._v)
        return OBJECT_OVERHEAD_BYTES + self._params.dense_bytes

    def __repr__(self) -> str:
        mode = f"sparse, {self.token_count} tokens" if self.is_sparse else "dense"
        p = self._params
        return f"SparseExaLogLog(t={p.t}, d={p.d}, p={p.p}, v={self._v}, {mode})"

    # -- insertion --------------------------------------------------------------

    def add(self, item: Any, seed: int = 0) -> "SparseExaLogLog":
        """Insert an element (hashed with Murmur3); returns ``self``."""
        self.add_hash(hash64(item, seed))
        return self

    def add_all(self, items: Iterable[Any], seed: int = 0) -> "SparseExaLogLog":
        """Insert every element of an iterable (routed through the bulk path)."""
        return self.add_batch(items, seed)

    def add_batch(self, items: Iterable[Any], seed: int = 0) -> "SparseExaLogLog":
        """Hash a batch of items (vectorised when possible) and ingest it."""
        from repro.hashing.batch import hash_items

        return self.add_hashes(hash_items(items, seed))

    def add_hashes(self, hashes) -> "SparseExaLogLog":
        """Vectorised bulk insert with correct bulk-triggered densification.

        While sparse, the batch is tokenised vectorised; crossing the
        break-even point densifies through the dense bulk path. The final
        state is bit-identical to the sequential :meth:`add_hash` loop: a
        token's representative hash produces exactly the original hash's
        state transition (``p + t <= v``), so it does not matter which
        prefix of the stream was recorded as tokens — collected tokens
        and the raw remainder replay to the same registers.
        """
        from repro import backends
        import numpy as np

        hashes = backends.as_hash_array(hashes)
        if len(hashes) == 0:
            return self
        if self._tokens is None:
            assert self._dense is not None
            self._dense.add_hashes(hashes)
            return self

        break_even = self.break_even_tokens
        # Decide densification without tokenising/deduplicating huge
        # batches: when a prefix already holds more distinct tokens than
        # break-even, the union must cross; only duplicate-heavy batches
        # pay for the full tokenise + unique pass.
        limit = 4 * (break_even + 1)
        distinct = np.unique(backends.tokenize_hashes(hashes[:limit], self._v))
        if len(distinct) <= break_even and len(hashes) > limit:
            distinct = np.unique(backends.tokenize_hashes(hashes, self._v))
        if len(distinct) <= break_even:
            self._tokens.update(distinct.tolist())
            if len(self._tokens) <= break_even:
                return self
            hashes = None  # the token set already absorbed the batch
        # Bulk densification: replay the collected tokens, then the raw
        # batch (if its tokens were never materialised into the set).
        dense = ExaLogLog.from_params(self._params)
        if self._tokens:
            token_dtype = np.uint64 if self._v + 6 > 63 else np.int64
            token_array = np.fromiter(
                self._tokens, dtype=token_dtype, count=len(self._tokens)
            )
            dense.add_hashes(backends.token_hashes(token_array, self._v))
        if hashes is not None:
            dense.add_hashes(hashes)
        self._dense = dense
        self._tokens = None
        return self

    def add_hash(self, hash_value: int) -> bool:
        """Insert a 64-bit hash; returns True when the state changed."""
        if self._tokens is not None:
            token = hash_to_token(hash_value, self._v)
            if token in self._tokens:
                return False
            self._tokens.add(token)
            if len(self._tokens) > self.break_even_tokens:
                self._densify()
            return True
        assert self._dense is not None
        return self._dense.add_hash(hash_value)

    def _densify(self) -> None:
        """Switch to the dense representation (lossless, Sec. 4.3)."""
        assert self._tokens is not None
        dense = ExaLogLog.from_params(self._params)
        for token in self._tokens:
            dense.add_hash(token_to_hash(token, self._v))
        self._dense = dense
        self._tokens = None

    def densify(self) -> ExaLogLog:
        """Force the transition and return the dense sketch."""
        if self._tokens is not None:
            self._densify()
        assert self._dense is not None
        return self._dense

    # -- estimation ----------------------------------------------------------------

    def estimate(self, bias_correction: bool = True) -> float:
        """Distinct-count estimate (token ML while sparse, register ML after)."""
        if self._tokens is not None:
            return estimate_from_tokens(self._tokens, self._v)
        assert self._dense is not None
        return self._dense.estimate(bias_correction)

    # -- merge -----------------------------------------------------------------------

    def merge(self, other: "SparseExaLogLog | ExaLogLog") -> "SparseExaLogLog":
        """Merge with another sparse or dense sketch (same t, d, p, v)."""
        result = self.copy()
        result.merge_inplace(other)
        return result

    def merge_inplace(self, other: "SparseExaLogLog | ExaLogLog") -> "SparseExaLogLog":
        if isinstance(other, SparseExaLogLog):
            if other._params != self._params or other._v != self._v:
                raise ValueError(
                    f"parameter mismatch: {self!r} vs {other!r}"
                )
            if self._tokens is not None and other._tokens is not None:
                self._tokens.update(other._tokens)
                if len(self._tokens) > self.break_even_tokens:
                    self._densify()
                return self
            mine = self.densify()
            if other._tokens is not None:
                for token in other._tokens:
                    mine.add_hash(token_to_hash(token, other._v))
            else:
                assert other._dense is not None
                mine.merge_inplace(other._dense)
            return self
        if isinstance(other, ExaLogLog):
            mine = self.densify()
            mine.merge_inplace(other)
            return self
        raise TypeError(f"cannot merge SparseExaLogLog with {type(other).__name__}")

    def copy(self) -> "SparseExaLogLog":
        p = self._params
        clone = SparseExaLogLog(p.t, p.d, p.p, self._v)
        if self._tokens is not None:
            clone._tokens = set(self._tokens)
        else:
            clone._tokens = None
            assert self._dense is not None
            clone._dense = self._dense.copy()
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseExaLogLog):
            return NotImplemented
        return (
            self._params == other._params
            and self._v == other._v
            and self._tokens == other._tokens
            and self._dense == other._dense
        )

    # -- serialization ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize: delta-varint coded sorted tokens, or the dense payload."""
        buffer = write_header(TAG_SPARSE_EXALOGLOG)
        p = self._params
        buffer.extend((p.t, p.d, p.p, self._v))
        if self._tokens is not None:
            buffer.append(0)  # mode: sparse
            write_uvarint(buffer, len(self._tokens))
            previous = 0
            for token in sorted(self._tokens):
                write_uvarint(buffer, token - previous)
                previous = token
        else:
            assert self._dense is not None
            buffer.append(1)  # mode: dense
            buffer.extend(self._dense.to_bytes())
        return bytes(buffer)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SparseExaLogLog":
        offset = read_header(data, TAG_SPARSE_EXALOGLOG)
        if len(data) < offset + 5:
            raise SerializationError("truncated SparseExaLogLog payload")
        t, d, p, v, mode = data[offset : offset + 5]
        offset += 5
        sketch = cls(t, d, p, v)
        if mode == 0:
            import numpy as np

            count, offset = read_uvarint(data, offset)
            deltas, offset = read_uvarints(data, offset, count)
            sketch._tokens = set(np.cumsum(deltas, dtype=np.uint64).tolist())
            # Deserialized token sets may legitimately exceed the break-even
            # point (serialization never densifies); keep them as-is.
            return sketch
        if mode == 1:
            sketch._tokens = None
            sketch._dense = ExaLogLog.from_bytes(bytes(data[offset:]))
            if sketch._dense.params != sketch._params:
                raise SerializationError("inner dense sketch parameter mismatch")
            return sketch
        raise SerializationError(f"unknown sparse mode byte {mode}")
