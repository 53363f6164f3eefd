"""HyperLogLog (paper Alg. 1; Flajolet et al. 2007, Heule et al. 2013).

The standard algorithm for approximate distinct counting and the yardstick
every row of Table 2 is measured against. A register stores the maximum of
geometrically distributed update values ``k = nlz(masked hash) - p + 1``;
``m = 2**p`` registers of 6 bits give a relative standard error of about
``1.04/sqrt(m)`` up to distinct counts of order 2**64.

Statistically, HyperLogLog is ExaLogLog's special case ELL(0, 0)
(Sec. 2.5), so this class delegates ML estimation — Ertl's estimator
[arXiv:1702.01284], the one the paper benchmarks as "HLL, ML estimator" —
to the shared Algorithm 3 / Algorithm 8 machinery with parameters
``(t=0, d=0, p)``. The bit layout follows Algorithm 1 (index from the top
``p`` hash bits), faithful to standard implementations.

Three estimators are exposed:

* ``estimate()`` / ``estimate_ml()`` — the ML estimator (default).
* ``estimate_raw()`` — the original estimator with the alpha_m constant and
  small-range linear counting (kept mainly because HyperLogLogLog relies on
  it, error spike included).
* :class:`MartingaleHyperLogLog` — HIP estimation for non-distributed use.

Register width is configurable (6 bits standard, 8 bits for the
DataSketches HLL8 variant of Table 2, which trades space for byte-aligned
register access; values are identical, only storage differs).
"""

from __future__ import annotations

import math
import struct

from repro.baselines.base import OBJECT_OVERHEAD_BYTES, DistinctCounter
from repro.core.mlestimation import compute_coefficients, estimate_from_coefficients
from repro.core.params import make_params
from repro.storage.packed import PackedArray
from repro.storage.serialization import (
    HEADER_SIZE,
    SerializationError,
    TAG_HYPERLOGLOG,
    read_header,
    write_header,
)

#: The smallest ``m`` whose :meth:`HyperLogLog.estimate_ml` takes the
#: vectorised Algorithm 3. Swept at m = 16-1024 with 1, 4 and 20 items per
#: register (best of 60-200, two sweeps on a 2-vCPU host): at m = 256 the
#: kernel plus the scalar solve take 0.06-0.10 ms against 0.06-0.16 ms for
#: the scalar loop, at m = 128 0.06-0.07 ms against 0.04-0.08 ms.
VECTORISED_ESTIMATE_M = 256


def hll_index_and_value(hash_value: int, p: int) -> tuple[int, int]:
    """Algorithm 1: register index (top ``p`` bits) and update value.

    ``k = nlz(hash with top p bits masked) - p + 1`` lies in ``[1, 65-p]``.
    """
    index = hash_value >> (64 - p)
    masked = hash_value & ((1 << (64 - p)) - 1)
    nlz = 64 - masked.bit_length()
    return index, nlz - p + 1


def _alpha_m(m: int) -> float:
    """The bias-correction constant of the original raw estimator."""
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


class HyperLogLog(DistinctCounter):
    """HyperLogLog with 6-bit (default) or 8-bit registers."""

    __slots__ = ("_m", "_p", "_register_width", "_registers")

    def __init__(self, p: int = 11, register_width: int = 6) -> None:
        if not 2 <= p <= 26:
            raise ValueError(f"p must be in [2, 26], got {p}")
        if register_width not in (6, 8):
            raise ValueError(f"register width must be 6 or 8, got {register_width}")
        self._p = p
        self._m = 1 << p
        self._register_width = register_width
        self._registers = [0] * self._m

    @property
    def p(self) -> int:
        return self._p

    @property
    def m(self) -> int:
        return self._m

    @property
    def register_width(self) -> int:
        return self._register_width

    @property
    def registers(self) -> tuple[int, ...]:
        return tuple(self._registers)

    @property
    def is_empty(self) -> bool:
        return not any(self._registers)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(p={self._p}, "
            f"register_width={self._register_width})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HyperLogLog):
            return NotImplemented
        return (
            self._p == other._p
            and self._register_width == other._register_width
            and self._registers == other._registers
        )

    # -- operations -------------------------------------------------------------

    def add_hash(self, hash_value: int) -> bool:
        index, k = hll_index_and_value(hash_value, self._p)
        if k > self._registers[index]:
            self._registers[index] = k
            return True
        return False

    def add_hashes(self, hashes) -> "HyperLogLog":
        """Vectorised bulk insert: fold the batch, then element-wise max."""
        import numpy as np

        from repro.backends import as_hash_array, hyperloglog_registers

        hashes = as_hash_array(hashes)
        if len(hashes):
            batch = hyperloglog_registers(hashes, self._p)
            existing = np.asarray(self._registers, dtype=np.int64)
            self._registers = np.maximum(existing, batch).tolist()
        return self

    def estimate(self) -> float:
        return self.estimate_ml()

    def estimate_ml(self, bias_correction: bool = True) -> float:
        """Ertl's ML estimator via the shared ELL(0, 0) machinery.

        For ``m >=`` :data:`VECTORISED_ESTIMATE_M` this routes through the
        vectorised batch engine (bit-identical to the scalar Algorithm 3 +
        Algorithm 8 pipeline).
        """
        params = make_params(0, 0, self._p)
        if self._m >= VECTORISED_ESTIMATE_M:
            return float(self.estimate_ml_many([self], bias_correction)[0])
        coefficients = compute_coefficients(self._registers, params)
        return estimate_from_coefficients(coefficients, params, bias_correction)

    @classmethod
    def estimate_ml_many(cls, sketches, bias_correction: bool = True):
        """Vectorised ML estimates for many same-``p`` HLL sketches.

        Stacks the register arrays into one matrix and solves every
        sketch in a single simultaneous Newton iteration
        (:func:`repro.estimation.batch.estimate_registers` with the
        ELL(0, 0) parameters); returns a float64 array.
        """
        import numpy as np

        from repro.estimation.batch import estimate_registers

        if not sketches:
            return np.zeros(0)
        p = sketches[0].p
        if any(sketch.p != p for sketch in sketches):
            raise ValueError("sketches must share the same precision p")
        matrix = np.array([sketch._registers for sketch in sketches], dtype=np.int64)
        return estimate_registers(matrix, make_params(0, 0, p), bias_correction)

    def estimate_raw(self) -> float:
        """The original Flajolet estimator with small-range linear counting.

        Known to have a bias spike near the linear-counting hand-over
        (~2.5 m); kept faithful because Sec. 5.2 attributes HyperLogLogLog's
        Figure 10 spike to exactly this estimator. The harmonic sum is
        accumulated per register *value* in ascending order — the canonical
        form the vectorised :meth:`estimate_raw_many` reproduces bit for bit.
        """
        return float(self.estimate_raw_many([self])[0])

    @classmethod
    def estimate_raw_many(cls, sketches):
        """Vectorised original estimator for many same-``p`` HLL sketches."""
        import numpy as np

        if not sketches:
            return np.zeros(0)
        m = sketches[0].m
        if any(sketch.m != m for sketch in sketches):
            raise ValueError("sketches must share the same precision p")
        matrix = np.array([sketch._registers for sketch in sketches], dtype=np.int64)
        k = len(sketches)
        values = int(matrix.max()) + 1
        flat = (np.arange(k, dtype=np.int64)[:, None] * np.int64(values) + matrix).ravel()
        counts = np.bincount(flat, minlength=k * values).reshape(k, values)
        harmonic = np.zeros(k)
        for value in range(values):
            harmonic += counts[:, value] * math.ldexp(1.0, -value)
        zeros = counts[:, 0]
        raw = (_alpha_m(m) * m * m) / harmonic
        estimates = raw.copy()
        # math.log per affected row: bit-identical to the scalar formula.
        for i in np.flatnonzero((raw <= 2.5 * m) & (zeros > 0)).tolist():
            estimates[i] = m * math.log(m / int(zeros[i]))
        return estimates

    def merge_inplace(self, other: DistinctCounter) -> "HyperLogLog":
        if not isinstance(other, HyperLogLog) or other._p != self._p:
            raise ValueError(f"cannot merge {self!r} with {other!r}")
        registers = self._registers
        for i, value in enumerate(other._registers):
            if value > registers[i]:
                registers[i] = value
        return self

    def copy(self) -> "HyperLogLog":
        clone = type(self)(self._p, self._register_width)
        clone._registers = list(self._registers)
        return clone

    # -- sizes and serialization ---------------------------------------------------

    @property
    def register_array_bytes(self) -> int:
        return (self._register_width * self._m + 7) // 8

    @property
    def memory_bytes(self) -> int:
        return OBJECT_OVERHEAD_BYTES + self.register_array_bytes

    @property
    def serialized_size_bytes(self) -> int:
        return HEADER_SIZE + 2 + self.register_array_bytes

    def to_bytes(self) -> bytes:
        buffer = write_header(TAG_HYPERLOGLOG)
        buffer.append(self._p)
        buffer.append(self._register_width)
        packed = PackedArray.from_values(self._register_width, self._registers)
        buffer.extend(packed.to_bytes())
        return bytes(buffer)

    @classmethod
    def from_bytes(cls, data: bytes) -> "HyperLogLog":
        offset = read_header(data, TAG_HYPERLOGLOG)
        if len(data) < offset + 2:
            raise SerializationError("truncated HyperLogLog parameters")
        p, width = data[offset], data[offset + 1]
        sketch = cls(p, width)
        payload = data[offset + 2 :]
        if len(payload) != sketch.register_array_bytes:
            raise SerializationError(
                f"register payload is {len(payload)} bytes, "
                f"expected {sketch.register_array_bytes}"
            )
        packed = PackedArray.from_bytes(width, sketch._m, payload)
        sketch._registers = packed.to_list()
        return sketch


class MartingaleHyperLogLog(HyperLogLog):
    """HyperLogLog with HIP (martingale) estimation (non-distributed use).

    The state-change probability of a register with value ``r`` is
    ``2**-r / m`` for ``r < 65 - p`` and 0 once saturated, maintained
    incrementally exactly like Algorithm 4.
    """

    __slots__ = ("_estimate", "_mu")

    supports_merge = False

    def __init__(self, p: int = 11, register_width: int = 6) -> None:
        super().__init__(p, register_width)
        self._estimate = 0.0
        self._mu = 1.0

    @property
    def mu(self) -> float:
        return self._mu

    def add_hash(self, hash_value: int) -> bool:
        index, k = hll_index_and_value(hash_value, self._p)
        old = self._registers[index]
        if k <= old:
            return False
        if self._mu > 0.0:
            self._estimate += 1.0 / self._mu
        k_max = 65 - self._p
        h_old = 2.0 ** (-old) if old < k_max else 0.0
        h_new = 2.0 ** (-k) if k < k_max else 0.0
        self._mu -= (h_old - h_new) / self._m
        self._registers[index] = k
        return True

    def add_hashes(self, hashes) -> "MartingaleHyperLogLog":
        """Bulk insert via the scalar loop (HIP estimation is order-dependent)."""
        from repro.backends.protocol import scalar_add_hashes

        return scalar_add_hashes(self, hashes)

    def estimate(self) -> float:
        return self._estimate

    def merge_inplace(self, other: DistinctCounter) -> "HyperLogLog":
        raise NotImplementedError(
            "martingale estimation is only valid for non-distributed streams"
        )

    def copy(self) -> "MartingaleHyperLogLog":
        clone = type(self)(self._p, self._register_width)
        clone._registers = list(self._registers)
        clone._estimate = self._estimate
        clone._mu = self._mu
        return clone

    @property
    def memory_bytes(self) -> int:
        return super().memory_bytes + 16  # estimate + mu accumulators

    @property
    def serialized_size_bytes(self) -> int:
        return super().serialized_size_bytes + 16

    def to_bytes(self) -> bytes:
        return super().to_bytes() + struct.pack("<dd", self._estimate, self._mu)

    @classmethod
    def from_bytes(cls, data: bytes) -> "MartingaleHyperLogLog":
        if len(data) < 16:
            raise SerializationError("truncated MartingaleHyperLogLog payload")
        base = HyperLogLog.from_bytes(data[:-16])
        sketch = cls(base.p, base.register_width)
        sketch._registers = list(base.registers)
        sketch._estimate, sketch._mu = struct.unpack("<dd", data[-16:])
        return sketch
