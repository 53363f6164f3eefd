"""Vectorised bulk-ingest state builders for the whole sketch family.

Every sketch in this library is order-independent (commutative, idempotent
inserts), so the state after a batch of hashes can be computed set-wise:
per register, the maximum update value plus the OR of window bits — which
vectorises. The contract every function here honours (and the equivalence
tests assert) is:

    bulk state  ==  state of the sequential ``add_hash`` loop, bit for bit.

The builders come in two flavours:

* ``*_state`` — final state from an *empty* sketch (kept for the
  simulation harness, which replays millions of fresh batches), and
* pair/fold helpers plus :func:`merge_exaloglog_registers` used by the
  in-place ``add_hashes`` methods on the sketches themselves.

Register arrays are held as int64; callers must guard ``register_bits <=
63`` (``d`` up to 57 with t=0) and fall back to the scalar loop beyond
that — :func:`supports_int64_registers` spells the condition out.

The three ExaLogLog hot-path entry points — :func:`exaloglog_registers`,
:func:`exaloglog_registers_from_pairs`, :func:`merge_exaloglog_registers` —
dispatch through the active kernel backend (:mod:`repro.backends.select`);
the ``reference_*`` functions here are the pure-NumPy implementations the
default backend uses and every other backend is checked bit-identical
against.
"""

from __future__ import annotations

from time import perf_counter as _perf_counter
from typing import Sequence

import numpy as np

from repro.backends.bitops import bit_length_u64, nlz64_array, ntz64_array
from repro.core.params import ExaLogLogParams
from repro.obs import metrics as _metrics

_U64 = np.uint64

# Instrumentation handles (no-ops until REPRO_METRICS enables collection;
# the enabled() guard at each call site keeps the disabled cost to one
# module-flag check).
_FOLD_BATCH_SIZE = _metrics.histogram(
    "backend.fold_batch_size", "Hashes per bulk fold call."
)
_HASHES_FOLDED = _metrics.counter(
    "backend.hashes_folded", "Total hashes folded through the bulk path."
)
_FOLD_SECONDS = _metrics.counter(
    "backend.fold_seconds", "Wall seconds spent inside bulk folds."
)
_MERGES = _metrics.counter(
    "backend.register_merges", "Algorithm 5 register-array merges."
)
#: Per-backend fold counters, cached by backend name: registry lookups
#: canonicalize labels, which is too slow for the per-batch hot path.
#: Handles stay valid across Registry.reset() (values are zeroed in place).
_FOLD_COUNTERS: "dict[str, _metrics.Counter]" = {}

#: Batches are folded in chunks of this many hashes: the ~10 temporary
#: arrays of a fold then stay cache-resident, which measures ~3x faster
#: than one pass over a 10M-element batch (merges between chunk folds are
#: O(m) and exact, so chunking never changes the resulting state).
BULK_CHUNK = 1 << 18


def _chunks(hashes: np.ndarray):
    if len(hashes) <= BULK_CHUNK:
        yield hashes
    else:
        for start in range(0, len(hashes), BULK_CHUNK):
            yield hashes[start : start + BULK_CHUNK]


def supports_int64_registers(params: ExaLogLogParams) -> bool:
    """Whether register values of ``params`` fit the int64 arrays used here."""
    return params.register_bits <= 63


# -- ExaLogLog ----------------------------------------------------------------


def split_hashes(
    hashes: np.ndarray, params: ExaLogLogParams
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised Algorithm 2 front end: (register index, update value)."""
    t = _U64(params.t)
    hashes = hashes.astype(_U64, copy=False)
    index = (hashes >> t) & _U64(params.m - 1)
    masked = hashes | _U64((1 << (params.p + params.t)) - 1)
    # ``masked`` is a fresh temporary owned by this frame, so the bit
    # smear may destroy it in place instead of copying it first.
    nlz = nlz64_array(masked, clobber=True)
    k = (nlz << params.t) + (hashes & _U64((1 << params.t) - 1)).astype(np.int64) + 1
    return index.astype(np.int64), k


def reference_registers_from_pairs(
    index: np.ndarray, k: np.ndarray, params: ExaLogLogParams
) -> np.ndarray:
    """Fold ``(register, update value)`` pairs into a fresh register array.

    Identical to sequentially applying Algorithm 2 (order-independent);
    also the bulk route for event schedules, whose events are exactly such
    pairs.
    """
    m = params.m
    d = params.d

    u = np.zeros(m, dtype=np.int64)
    np.maximum.at(u, index, k)

    low = np.zeros(m, dtype=np.int64)
    if d > 0:
        u_at_event = u[index]
        in_window = (k < u_at_event) & (k >= u_at_event - d)
        if in_window.any():
            positions = d - (u_at_event[in_window] - k[in_window])
            bits = np.int64(1) << positions
            np.bitwise_or.at(low, index[in_window], bits)
        # The deterministic value-0 bit for registers with 1 <= u <= d.
        phantom = (u >= 1) & (u <= d)
        low[phantom] |= np.int64(1) << (d - u[phantom])

    return (u << d) | low


def reference_exaloglog_registers(
    hashes: np.ndarray, params: ExaLogLogParams
) -> np.ndarray:
    """Fresh ExaLogLog register array for a hash batch (chunked fold).

    Uses only reference kernels internally, so it stays a valid baseline
    even while a different backend is active.
    """
    registers = None
    for chunk in _chunks(hashes):
        index, k = split_hashes(chunk, params)
        batch = reference_registers_from_pairs(index, k, params)
        if registers is None:
            registers = batch
        else:
            registers = reference_merge_registers(registers, batch, params.d)
    if registers is None:
        registers = np.zeros(params.m, dtype=np.int64)
    return registers


def exaloglog_state(hashes: np.ndarray, params: ExaLogLogParams) -> list[int]:
    """Final ExaLogLog register array after inserting all ``hashes``."""
    return exaloglog_registers(hashes, params).tolist()


def reference_merge_registers(
    existing: Sequence[int], batch: np.ndarray, d: int
) -> np.ndarray:
    """Vectorised Algorithm 5: merge a batch register array into ``existing``.

    Equivalent to ``merge_register(existing[i], batch[i], d)`` per register;
    the result equals the state of the union of the two element streams.
    """
    r1 = np.asarray(existing, dtype=np.int64)
    r2 = batch.astype(np.int64, copy=False)
    u1 = r1 >> d
    u2 = r2 >> d
    window = np.int64((1 << d) - 1)
    implicit = np.int64(1 << d)
    # Shifting by more than d+1 always yields 0; clamp to keep shifts valid.
    delta12 = np.minimum(u1 - u2, d + 1, dtype=np.int64)
    delta21 = np.minimum(u2 - u1, d + 1, dtype=np.int64)
    out = r1 | r2
    mask = (u1 > u2) & (u2 > 0)
    if mask.any():
        out[mask] = r1[mask] | ((implicit + (r2[mask] & window)) >> delta12[mask])
    mask = (u2 > u1) & (u1 > 0)
    if mask.any():
        out[mask] = r2[mask] | ((implicit + (r1[mask] & window)) >> delta21[mask])
    return out


class ReferenceBulkBackend:
    """The pure-NumPy kernels as a backend object (the default)."""

    __slots__ = ()
    name = "numpy"

    def fold(self, hashes, params: ExaLogLogParams) -> np.ndarray:
        return reference_exaloglog_registers(hashes, params)

    def registers_from_pairs(self, index, k, params: ExaLogLogParams) -> np.ndarray:
        return reference_registers_from_pairs(index, k, params)

    def merge_registers(self, existing, batch, d: int) -> np.ndarray:
        return reference_merge_registers(existing, batch, d)

    def __repr__(self) -> str:
        return "ReferenceBulkBackend()"


# -- backend dispatch (the public hot-path entry points) ----------------------


def _backend():
    from repro.backends.select import active_backend

    return active_backend()


def exaloglog_registers(hashes: np.ndarray, params: ExaLogLogParams) -> np.ndarray:
    """Fresh ExaLogLog register array for a hash batch (active backend)."""
    backend = _backend()
    if _metrics.enabled():
        started = _perf_counter()
        registers = backend.fold(hashes, params)
        _FOLD_SECONDS.inc(_perf_counter() - started)
        _FOLD_BATCH_SIZE.observe(len(hashes))
        _HASHES_FOLDED.inc(len(hashes))
        folds = _FOLD_COUNTERS.get(backend.name)
        if folds is None:
            folds = _FOLD_COUNTERS.setdefault(
                backend.name,
                _metrics.counter(
                    "backend.folds",
                    "Bulk folds dispatched, by kernel backend.",
                    labels={"backend": backend.name},
                ),
            )
        folds.inc()
        return registers
    return backend.fold(hashes, params)


def exaloglog_registers_from_pairs(
    index: np.ndarray, k: np.ndarray, params: ExaLogLogParams
) -> np.ndarray:
    """Fold ``(register, update value)`` pairs (active backend)."""
    return _backend().registers_from_pairs(index, k, params)


def merge_exaloglog_registers(
    existing: Sequence[int], batch: np.ndarray, d: int
) -> np.ndarray:
    """Vectorised Algorithm 5 merge (active backend)."""
    if _metrics.enabled():
        _MERGES.inc()
    return _backend().merge_registers(existing, batch, d)


# -- sparse-mode tokens -------------------------------------------------------


def tokenize_hashes(hashes: np.ndarray, v: int) -> np.ndarray:
    """Vectorised Sec. 4.3 token mapping (``hash_to_token`` per element).

    Tokens are ``v + 6`` bits wide; the result is int64 where that fits
    (``v <= 57``, including the practical ``v = 26``) and uint64 beyond.
    """
    hashes = hashes.astype(_U64, copy=False)
    mask = _U64((1 << v) - 1)
    nlz = nlz64_array(hashes | mask)
    if v + 6 > 63:
        return ((hashes & mask) << _U64(6)) | nlz.astype(_U64)
    return ((hashes & mask).astype(np.int64) << 6) | nlz


def token_hashes(tokens: np.ndarray, v: int) -> np.ndarray:
    """Vectorised ``token_to_hash``: representative 64-bit hash per token.

    ``h' = 2**(64 - nlz) - 2**v + (token >> 6)  (mod 2**64)``; the
    ``nlz = 0`` lane relies on uint64 wrap-around (``2**64 ≡ 0``), written
    as ``(1 << (63 - nlz)) * 2`` to keep every shift count in [0, 63].
    """
    tokens = np.asarray(tokens)
    nlz = (tokens & 63).astype(_U64)
    high = (tokens >> 6).astype(_U64)
    base = (_U64(1) << (_U64(63) - nlz)) * _U64(2)
    return base - _U64(1 << v) + high


# -- HyperLogLog --------------------------------------------------------------


def hyperloglog_registers(hashes: np.ndarray, p: int) -> np.ndarray:
    """Fresh HyperLogLog register array (Algorithm 1, top-p-bit indexing)."""
    registers = np.zeros(1 << p, dtype=np.int64)
    for chunk in _chunks(hashes):
        chunk = chunk.astype(_U64, copy=False)
        index = (chunk >> _U64(64 - p)).astype(np.int64)
        masked = chunk & _U64((1 << (64 - p)) - 1)
        k = 64 - p - bit_length_u64(masked) + 1
        np.maximum.at(registers, index, k)
    return registers


def hyperloglog_state(hashes: np.ndarray, p: int) -> list[int]:
    """Final HyperLogLog register array after inserting all ``hashes``."""
    return hyperloglog_registers(hashes, p).tolist()


# -- PCSA ---------------------------------------------------------------------


def pcsa_bitmaps(hashes: np.ndarray, p: int) -> np.ndarray:
    """Fresh PCSA bitmap array (level bitmaps ORed together)."""
    bitmaps = np.zeros(1 << p, dtype=np.int64)
    for chunk in _chunks(hashes):
        chunk = chunk.astype(_U64, copy=False)
        index = (chunk >> _U64(64 - p)).astype(np.int64)
        masked = chunk & _U64((1 << (64 - p)) - 1)
        levels = np.minimum(64 - p - bit_length_u64(masked), 64 - p - 1)
        np.bitwise_or.at(bitmaps, index, np.int64(1) << levels)
    return bitmaps


def pcsa_state(hashes: np.ndarray, p: int) -> list[int]:
    """Final PCSA bitmap array after inserting all ``hashes``."""
    return pcsa_bitmaps(hashes, p).tolist()


# -- SpikeSketch --------------------------------------------------------------


def spikesketch_pairs(hashes: np.ndarray, buckets: int) -> list[tuple[int, int]]:
    """Unique (sub-register index, level) pairs a hash batch produces.

    Thinning, index extraction and the base-4 level count are vectorised;
    the surviving unique pairs (a handful per register) are replayed
    through the scalar register update by the caller, which is exact
    because register updates are commutative and pairs are idempotent.
    """
    from repro.baselines.spikesketch import ACCEPTANCE, SpikeSketch

    sketch = SpikeSketch(buckets)
    m = sketch.m
    cap = sketch.max_level

    x = hashes.astype(_U64, copy=True)
    # Vectorised splitmix64_mix.
    x = (x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)
    x ^= x >> _U64(31)

    accepted = ((x >> _U64(40)) / float(1 << 24)) < ACCEPTANCE
    x = x[accepted]
    index = (x & _U64(m - 1)).astype(np.int64)
    remaining = x >> _U64(m.bit_length() - 1)
    level = np.minimum(1 + (ntz64_array(remaining) >> 1), cap)

    keys = np.unique(index * np.int64(cap + 1) + level)
    return [divmod(int(key), cap + 1) for key in keys.tolist()]


def spikesketch_state(hashes: np.ndarray, buckets: int = 128) -> list[int]:
    """Final SpikeSketch-model register array (matches SpikeSketch.add_hash)."""
    from repro.baselines.spikesketch import SpikeSketch
    from repro.core.register import update as update_register

    registers = [0] * SpikeSketch(buckets).m
    for i, level in spikesketch_pairs(hashes, buckets):
        registers[i] = update_register(registers[i], level, 3)
    return registers
