"""The ExaLogLog sketch (paper Alg. 2, Sections 2.3 and 4).

:class:`ExaLogLog` is the library's primary data structure: an approximate
distinct counter that is commutative, idempotent, mergeable, reducible, has
a constant-time insert, and supports distinct counts up to the exa-scale
with a memory-variance product as low as 3.67 — 43 % below 6-bit
HyperLogLog (paper abstract, Sec. 2.4).

Typical use::

    from repro import ExaLogLog

    sketch = ExaLogLog(t=2, d=20, p=8)
    for item in stream:
        sketch.add(item)
    print(sketch.estimate())

Hot-path note: registers live in a plain Python list; the bit-exact packed
layout (two 28-bit registers per 7 bytes for ELL(2,20), ...) is produced on
:meth:`to_bytes`, so serialized sizes match the paper's accounting.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.core.mlestimation import compute_coefficients, estimate_from_coefficients
from repro.core.params import ExaLogLogParams, make_params
from repro.core.register import merge as merge_register
from repro.core.register import state_change_probability
from repro.hashing import hash64
from repro.storage.packed import PackedArray
from repro.storage.serialization import (
    HEADER_SIZE,
    SerializationError,
    TAG_EXALOGLOG,
    read_header,
    write_header,
)

#: The smallest ``m`` whose :meth:`ExaLogLog.estimate` takes the vectorised
#: Algorithm 3. Swept at m = 16-1024 with 1, 4 and 20 items per register
#: (ELL(2, 20, p), best of 60-200, two sweeps on a 2-vCPU host): at m = 128
#: the kernel plus the scalar solve take 0.10-0.13 ms against 0.12-0.39 ms
#: for the scalar loop, at m = 64 0.11-0.15 ms against 0.06-0.26 ms (the
#: loop wins at one item per register).
VECTORISED_ESTIMATE_M = 128


class ExaLogLog:
    """An ExaLogLog sketch with parameters ``(t, d, p)``.

    Parameters
    ----------
    t:
        Update-value distribution shape (Sec. 2.2); the default 2 belongs to
        the space-optimal configurations.
    d:
        Number of occurrence-indicator bits per register; the default 20
        yields the ML-estimation optimum ELL(2, 20) with MVP 3.67.
    p:
        Precision; the sketch uses ``m = 2**p`` registers of ``6 + t + d``
        bits. The relative standard error scales like ``1/sqrt(m)``.
    """

    __slots__ = ("_array", "_array_source", "_params", "_registers")

    _serialization_tag = TAG_EXALOGLOG

    #: Interface flags shared with the baseline counters (Table 2 columns).
    constant_time_insert = True
    supports_merge = True

    def __init__(self, t: int = 2, d: int = 20, p: int = 8) -> None:
        self._params = make_params(t, d, p)
        self._registers = [0] * self._params.m
        self._array = None
        self._array_source = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def _empty(cls, params: ExaLogLogParams) -> "ExaLogLog":
        """Allocate an empty instance without going through ``__init__``.

        Subclasses with narrower constructors (UltraLogLog takes only
        ``p``) or extra state (the martingale variant) override/extend
        this; every alternative constructor below builds on it.
        """
        sketch = object.__new__(cls)
        sketch._params = params
        sketch._registers = [0] * params.m
        sketch._array = None
        sketch._array_source = None
        return sketch

    @classmethod
    def from_params(cls, params: ExaLogLogParams) -> "ExaLogLog":
        """Create an empty sketch for an existing parameter object."""
        return cls._empty(params)

    @classmethod
    def from_registers(
        cls, params: ExaLogLogParams, registers: Sequence[int]
    ) -> "ExaLogLog":
        """Adopt raw register values (no reachability validation)."""
        if len(registers) != params.m:
            raise ValueError(f"expected {params.m} registers, got {len(registers)}")
        sketch = cls._empty(params)
        maximum = params.max_register_value
        values = list(registers)
        # min/max scan in C; the loop only runs to name a bad value.
        if values and not (0 <= min(values) and max(values) <= maximum):
            bad = next(r for r in values if not 0 <= r <= maximum)
            raise ValueError(f"register value {bad} out of range [0, {maximum}]")
        sketch._registers = values
        return sketch

    # -- core properties -------------------------------------------------------

    @property
    def params(self) -> ExaLogLogParams:
        """The validated (t, d, p) parameter triple."""
        return self._params

    @property
    def t(self) -> int:
        return self._params.t

    @property
    def d(self) -> int:
        return self._params.d

    @property
    def p(self) -> int:
        return self._params.p

    @property
    def m(self) -> int:
        """Number of registers."""
        return self._params.m

    @property
    def registers(self) -> tuple[int, ...]:
        """Snapshot of the register values."""
        return tuple(self._registers)

    def registers_array(self):
        """Registers as an int64 NumPy array (cached between state changes).

        The bulk paths (:meth:`add_hashes`) already produce the register
        array and keep it here, so stacking many sketches for the batch
        estimation engine (:func:`repro.estimation.batch.batch_estimate_sketches`)
        never converts Python lists. Scalar mutators
        (:meth:`add_hash`, :meth:`merge_inplace`) invalidate the cache;
        replacing ``_registers`` wholesale is detected by identity. The
        returned array is read-only (like the ``registers`` tuple) —
        writing through it would desync the cache from the list.
        """
        array = self._array
        if array is not None and self._array_source is self._registers:
            return array
        import numpy as np

        array = np.asarray(self._registers, dtype=np.int64)
        array.setflags(write=False)
        self._array = array
        self._array_source = self._registers
        return array

    @property
    def is_empty(self) -> bool:
        """True when no insertion has modified the state yet."""
        return not any(self._registers)

    def __repr__(self) -> str:
        occupied = sum(1 for r in self._registers if r)
        return (
            f"{type(self).__name__}(t={self.t}, d={self.d}, p={self.p}, "
            f"occupied={occupied}/{self.m})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExaLogLog):
            return NotImplemented
        return self._params == other._params and self._registers == other._registers

    # -- insertion --------------------------------------------------------------

    def add(self, item: Any, seed: int = 0) -> "ExaLogLog":
        """Insert an element (hashed with Murmur3); returns ``self``."""
        self.add_hash(hash64(item, seed))
        return self

    def add_all(self, items: Iterable[Any], seed: int = 0) -> "ExaLogLog":
        """Insert every element of an iterable; returns ``self``.

        Routed through the bulk path: NumPy integer/float arrays are
        hashed vectorised and folded set-wise (see :meth:`add_hashes`).
        """
        return self.add_batch(items, seed)

    def add_batch(self, items: Iterable[Any], seed: int = 0) -> "ExaLogLog":
        """Hash a batch of items (vectorised when possible) and ingest it."""
        from repro.hashing.batch import hash_items

        return self.add_hashes(hash_items(items, seed))

    def add_hashes(self, hashes, workers: int | None = None) -> "ExaLogLog":
        """Vectorised bulk insert of 64-bit hashes (ndarray or iterable).

        Inserts are commutative and idempotent, so the batch folds
        set-wise into a register array
        (:func:`~repro.backends.exaloglog_registers`), merges into the
        current registers via Algorithm 5
        (:func:`~repro.backends.merge_exaloglog_registers`), and the
        sketch adopts the result (:meth:`adopt_registers`); the state is
        bit-identical to the sequential :meth:`add_hash` loop (the
        :class:`repro.backends.BulkBackend` contract). Registers wider
        than int64 take that scalar loop instead.

        ``workers`` opts into the thread fan-out of
        :class:`repro.parallel.ParallelBulkIngestor`: contiguous
        slices fold on separate threads and their register arrays
        reduce through the exact Algorithm 5 merge, so the final state
        stays bit-identical regardless of worker count. Worth it for
        batches far beyond one chunk; ``None``/``1`` keeps the
        single-thread fold, and a count below 1 raises ``ValueError``.
        """
        from repro import backends

        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        params = self._params
        if not backends.supports_int64_registers(params):
            return backends.scalar_add_hashes(self, hashes)
        hashes = backends.as_hash_array(hashes)
        if len(hashes) == 0:
            return self
        if workers is not None and workers > 1:
            from repro.parallel import ParallelBulkIngestor

            batch = ParallelBulkIngestor(params, workers).registers(hashes)
        else:
            batch = backends.exaloglog_registers(hashes, params)
        existing = self.registers_array()  # cached by the previous bulk call
        if existing.any():
            batch = backends.merge_exaloglog_registers(existing, batch, params.d)
        return self.adopt_registers(batch)

    def adopt_registers(self, registers) -> "ExaLogLog":
        """Take an int64 register array as the whole state; returns ``self``.

        The one write of a bulk insert: :meth:`add_hashes` adopts its
        merged fold, and an aggregator's group sketch adopts a copy of
        its register block row. An array that does not own its memory
        (a row of a larger block) is copied first, so a sketch never
        pins a larger block or shares memory with another sketch. The adopted array turns read-only and becomes the
        :meth:`registers_array` cache. No reachability validation: the
        values come from the bulk kernel.
        """
        import numpy as np

        if registers.shape != (self._params.m,) or registers.dtype != np.int64:
            raise ValueError(
                f"expected {self._params.m} int64 registers, got "
                f"{registers.dtype} of shape {registers.shape}"
            )
        if not registers.flags.owndata:
            registers = registers.copy()
        self._registers = registers.tolist()
        registers.setflags(write=False)
        self._array = registers
        self._array_source = self._registers
        return self

    def add_hash(self, hash_value: int) -> bool:
        """Algorithm 2: insert an element given its 64-bit hash value.

        Returns True when the insertion changed the state (the hook the
        martingale estimator builds on).
        """
        params = self._params
        t = params.t
        d = params.d
        index = (hash_value >> t) & (params.m - 1)
        masked = hash_value | ((1 << (params.p + t)) - 1)
        nlz = 64 - masked.bit_length()
        k = (nlz << t) + (hash_value & ((1 << t) - 1)) + 1

        registers = self._registers
        r = registers[index]
        u = r >> d
        delta = k - u
        if delta > 0:
            registers[index] = (k << d) + (((1 << d) + (r & ((1 << d) - 1))) >> delta)
            self._array = None
            return True
        if delta < 0 and d + delta >= 0:
            updated = r | (1 << (d + delta))
            if updated != r:
                registers[index] = updated
                self._array = None
                return True
        return False

    # -- estimation --------------------------------------------------------------

    def estimate(self, bias_correction: bool = True) -> float:
        """Distinct-count estimate via ML (Alg. 3 + Alg. 8 + Eq. (4)).

        The estimate is nearly unbiased with relative standard error about
        ``sqrt(MVP / ((6 + t + d) * m))`` over the whole operating range.

        For ``m >=`` :data:`VECTORISED_ESTIMATE_M` (with registers fitting
        int64) the coefficients come from the vectorised Algorithm 3 of
        :mod:`repro.estimation.batch` and the one-row solve from the scalar
        Algorithm 8, bit-identical to the scalar pipeline. Below that the
        scalar Algorithm 3 loop wins on call overhead.
        """
        params = self._params
        if params.m >= VECTORISED_ESTIMATE_M and params.register_bits <= 63:
            from repro.estimation.batch import estimate_registers

            matrix = self.registers_array().reshape(1, -1)
            return float(estimate_registers(matrix, params, bias_correction)[0])
        coefficients = compute_coefficients(self._registers, self._params)
        return estimate_from_coefficients(coefficients, self._params, bias_correction)

    def state_change_probability(self) -> float:
        """Eq. (23): probability the next new element changes the state."""
        return sum(
            state_change_probability(r, self._params) for r in self._registers
        )

    # -- merge -------------------------------------------------------------------

    def merge_inplace(self, other: "ExaLogLog") -> "ExaLogLog":
        """Merge a sketch with identical parameters into this one (Alg. 5)."""
        if not isinstance(other, ExaLogLog):
            raise TypeError(f"cannot merge {type(other).__name__} into ExaLogLog")
        if other._params != self._params:
            raise ValueError(
                f"parameter mismatch: {self._params} vs {other._params}; "
                "use merge() which reduces to common parameters"
            )
        d = self._params.d
        registers = self._registers
        self._array = None
        for i, r2 in enumerate(other._registers):
            if r2:
                registers[i] = merge_register(registers[i], r2, d)
        return self

    def merge(self, other: "ExaLogLog") -> "ExaLogLog":
        """Return the merged sketch; mixed (d, p) allowed for equal ``t``.

        Sketches with different ``d`` or ``p`` are first reduced to the
        common parameters ``(t, min(d, d'), min(p, p'))`` (Sec. 4.1).
        """
        if not isinstance(other, ExaLogLog):
            raise TypeError(f"cannot merge ExaLogLog with {type(other).__name__}")
        if other.t != self.t:
            raise ValueError(
                f"cannot merge sketches with different t ({self.t} vs {other.t})"
            )
        d = min(self.d, other.d)
        p = min(self.p, other.p)
        left = self.reduce(d=d, p=p)
        right = other.reduce(d=d, p=p)
        return left.merge_inplace(right)

    def __or__(self, other: "ExaLogLog") -> "ExaLogLog":
        return self.merge(other)

    # -- reduction ----------------------------------------------------------------

    def reduce(self, d: int | None = None, p: int | None = None) -> "ExaLogLog":
        """Algorithm 6: lossless reduction to smaller ``d`` and/or ``p``.

        The result is identical to the sketch that direct recording with
        the reduced parameters would have produced.
        """
        from repro.core.reduction import reduce_sketch

        return reduce_sketch(self, d=d, p=p)

    def copy(self) -> "ExaLogLog":
        """Deep copy of the sketch."""
        clone = type(self)._empty(self._params)
        clone._registers = list(self._registers)
        return clone

    # -- serialization --------------------------------------------------------------

    @property
    def register_array_bytes(self) -> int:
        """Exact size of the packed register array (paper's size accounting)."""
        return self._params.dense_bytes

    @property
    def memory_bytes(self) -> int:
        """Modelled in-memory footprint: packed registers + object overhead.

        (See DESIGN.md Sec. 3 on modelling JVM-comparable sizes; ExaLogLog
        allocates nothing beyond its fixed register array.)
        """
        from repro.baselines.base import OBJECT_OVERHEAD_BYTES

        return OBJECT_OVERHEAD_BYTES + self._params.dense_bytes

    @property
    def serialized_size_bytes(self) -> int:
        """Total serialized size including the 4-byte header and parameters."""
        return HEADER_SIZE + 3 + self._params.dense_bytes

    def to_bytes(self) -> bytes:
        """Serialize to the dense packed-bit-array format."""
        buffer = write_header(self._serialization_tag)
        buffer.append(self.t)
        buffer.append(self.d)
        buffer.append(self.p)
        packed = PackedArray.from_values(self._params.register_bits, self._registers)
        buffer.extend(packed.to_bytes())
        return bytes(buffer)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ExaLogLog":
        """Deserialize a sketch produced by :meth:`to_bytes`."""
        offset = read_header(data, cls._serialization_tag)
        if len(data) < offset + 3:
            raise SerializationError("truncated ExaLogLog parameters")
        t, d, p = data[offset], data[offset + 1], data[offset + 2]
        params = make_params(t, d, p)
        payload = data[offset + 3 :]
        expected = params.dense_bytes
        if len(payload) != expected:
            raise SerializationError(
                f"register payload is {len(payload)} bytes, expected {expected}"
            )
        packed = PackedArray.from_bytes(params.register_bits, params.m, payload)
        return cls.from_registers(params, packed.to_list())
