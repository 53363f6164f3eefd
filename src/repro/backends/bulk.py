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

The ExaLogLog kernel is three plain functions —
:func:`exaloglog_registers`, :func:`exaloglog_registers_from_pairs` and
:func:`merge_exaloglog_registers` — checked against the scalar
``add_hash`` and ``merge_register`` (the paper's Algorithms 2 and 5),
which stay the only oracle. The fold and the merge take one sketch's
registers or a stacked ``(rows, m)`` block of several sketches, which
they treat as one array of ``rows * m`` registers.
"""

from __future__ import annotations

from time import perf_counter as _perf_counter
from typing import Sequence

import numpy as np

from repro.backends.bitops import bit_length_u64, nlz64_array, ntz64_array
from repro.core.params import ExaLogLogParams
from repro.obs import metrics as _metrics

_U64 = np.uint64
_I64 = np.int64

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
_FOLDS = _metrics.counter("backend.folds", "Bulk ExaLogLog folds.")
_MERGES = _metrics.counter(
    "backend.register_merges", "Algorithm 5 register-array merges."
)

#: Hashes per chunk of the HyperLogLog and PCSA folds (and the default
#: slice of the other batch loops): the temporaries of a fold then stay
#: cache-resident, which measures ~3x faster than one pass over a
#: 10M-element batch. ExaLogLog folds size their chunks by register count
#: (:func:`pick_chunk`).
BULK_CHUNK = 1 << 18


def _chunks(values: np.ndarray, size: int = BULK_CHUNK):
    """Views of ``values`` at most ``size`` long (one view when it fits)."""
    if len(values) <= size:
        yield values
    else:
        for start in range(0, len(values), size):
            yield values[start : start + size]


def supports_int64_registers(params: ExaLogLogParams) -> bool:
    """Whether register values of ``params`` fit the int64 arrays used here."""
    return params.register_bits <= 63


# -- ExaLogLog ----------------------------------------------------------------


def pick_chunk(m: int) -> int:
    """Hashes per chunk of an ExaLogLog fold over ``m`` registers.

    The merge between two chunk folds costs O(m), so the chunk grows with
    the register count: ``max(2**16, min(2**20, 64 * m))`` measured faster
    than any fixed size at every precision tested. Chunk folds merge
    exactly (Algorithm 5), so chunking never changes the result.
    """
    return max(1 << 16, min(1 << 20, 64 * m))


def split_hashes(
    hashes: np.ndarray, params: ExaLogLogParams
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised Algorithm 2 front end: (register index, update value)."""
    hashes = hashes.astype(_U64, copy=False)
    return _split_into(hashes, params, np.empty((4, len(hashes)), dtype=_I64))


def _split_into(
    hashes: np.ndarray, params: ExaLogLogParams, scratch: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`split_hashes` of uint64 ``hashes``, written into ``scratch``.

    Returns views of scratch rows 2 and 3; rows 0 and 1 are clobbered.
    """
    n, t = len(hashes), params.t
    index, k = scratch[2, :n], scratch[3, :n]
    masked, guard = scratch[0, :n].view(_U64), scratch[1, :n].view(_U64)
    np.right_shift(hashes, _U64(t), out=index.view(_U64))
    np.bitwise_and(index, _I64(params.m - 1), out=index)
    np.bitwise_or(hashes, _U64((1 << (params.p + t)) - 1), out=masked)
    # bit_length(masked) = L is the float64 exponent, once rounding cannot
    # carry the value up to 2**L: clearing bit L - 54 (where the top bit of
    # masked >> 53 sits) keeps it below the rounding midpoint.
    np.right_shift(masked, _U64(53), out=guard)
    np.invert(guard, out=guard)
    masked &= guard
    np.copyto(guard.view(np.float64), masked, casting="unsafe")
    np.right_shift(guard.view(_I64), 52, out=k)  # exponent 1022 + L
    # k = (nlz << t) + (low t bits) + 1 with nlz = 64 - L = 1086 - exponent.
    np.left_shift(k, t, out=k)
    np.subtract(_I64((1086 << t) + 1), k, out=k)
    if t:
        k += np.bitwise_and(hashes, _U64((1 << t) - 1), out=masked).view(_I64)
    return index, k


def _fold_pairs(
    index: np.ndarray,
    k: np.ndarray,
    params: ExaLogLogParams,
    scratch: np.ndarray,
    size: int | None = None,
) -> np.ndarray:
    """One chunk of (register, update value) pairs into a fresh array.

    ``size`` registers (default ``m``): a stacked fold passes flattened
    ``row * m + register`` indices and ``rows * m``. The per-event
    passes write into scratch rows 0 and 1; ``index`` and ``k`` are only
    read.
    """
    d, n = params.d, len(index)
    size = params.m if size is None else size
    u = np.zeros(size, dtype=_I64)
    np.maximum.at(u, index, k)
    if d == 0:
        return u
    u_at = np.take(u, index, out=scratch[0, :n])
    # How far each event sits under its register's maximum.
    below = np.subtract(u_at, k, out=scratch[1, :n])
    if n > 32 * size:
        # Many events per register: most fall below their register's window.
        kept = (below <= d).nonzero()[0]
        index, u_at, below = index[kept], u_at[kept], below[kept]
    top = _I64(1 << d)
    # Each event sets its window bit d - below (below == 0 is the maximum
    # itself, whose bit d is masked off) and its register's deterministic
    # value-0 bit d - u, present while u <= d (see repro.core.register).
    # Shifts past d leave nothing, so clamping them at d + 1 is exact.
    bits = np.right_shift(top, np.minimum(below, d + 1, out=below), out=below)
    bits |= np.right_shift(top, np.minimum(u_at, d + 1, out=u_at), out=u_at)
    bits &= top - 1
    registers = u << d
    np.bitwise_or.at(registers, index, bits)
    return registers


def _merge(r1: np.ndarray, r2: np.ndarray, d: int) -> np.ndarray:
    """Algorithm 5 on every lane of two reachable register arrays.

    The larger register keeps its value; the smaller one's window, with
    its implicit bit ``2**d``, shifts right by the difference of the two
    maxima and ORs in. An empty smaller register would carry the value-0
    bit ``d - u``, which a reachable register with ``1 <= u <= d``
    already holds, so it changes nothing and needs no mask.
    """
    hi = np.maximum(r1, r2)
    lo = np.minimum(r1, r2)
    delta = hi >> d
    delta -= lo >> d
    # Shifting by more than d + 1 always yields 0; clamp to keep shifts valid.
    np.minimum(delta, d + 1, out=delta)
    window = _I64((1 << d) - 1)
    lo &= window
    lo += _I64(1 << d)
    lo >>= delta
    lo &= window  # equal maxima (delta == 0): drop the implicit bit again
    hi |= lo
    return hi


def exaloglog_registers(
    hashes: np.ndarray, params: ExaLogLogParams, bounds: Sequence[int] | None = None
) -> np.ndarray:
    """Fresh ExaLogLog register arrays for a hash batch (chunked fold).

    Without ``bounds``, one ``(m,)`` array: the sketch of every hash.
    With ``bounds`` (``rows + 1`` ascending offsets into ``hashes``, the
    first 0 and the last ``len(hashes)``), a ``(rows, m)`` block whose
    row ``i`` is the sketch of ``hashes[bounds[i]:bounds[i + 1]]``: every
    row folds in one pass over flattened ``row * m + register`` indices,
    in hash chunks that :func:`pick_chunk` sizes for ``rows * m``
    registers. The single-sketch fold is the one-row case.
    """
    if _metrics.enabled():
        started = _perf_counter()
        registers = _fold_hashes(hashes, params, bounds)
        _FOLD_SECONDS.inc(_perf_counter() - started)
        _FOLD_BATCH_SIZE.observe(len(hashes))
        _HASHES_FOLDED.inc(len(hashes))
        _FOLDS.inc()
        return registers
    return _fold_hashes(hashes, params, bounds)


def _fold_hashes(
    hashes: np.ndarray, params: ExaLogLogParams, bounds: Sequence[int] | None
) -> np.ndarray:
    hashes = hashes.astype(_U64, copy=False)
    m = params.m
    if bounds is None:
        rows = offsets = None
        size = m
    else:
        rows = len(bounds) - 1
        size = rows * m
        # Each hash's row offset, added to its register index.
        offsets = np.repeat(np.arange(0, size, m, dtype=_I64), np.diff(bounds))
        if len(offsets) != len(hashes):
            raise ValueError(f"bounds cover {len(offsets)} of {len(hashes)} hashes")
    chunk = pick_chunk(size)
    # One scratch block per call, reused by every chunk: fresh temporaries
    # of this size would be page-faulted in again for each chunk.
    scratch = np.empty((4, min(len(hashes), chunk)), dtype=_I64)
    registers = None
    for start in range(0, max(len(hashes), 1), chunk):
        index, k = _split_into(hashes[start : start + chunk], params, scratch)
        if offsets is not None:
            index += offsets[start : start + chunk]
        batch = _fold_pairs(index, k, params, scratch, size)
        registers = batch if registers is None else _merge(registers, batch, params.d)
    return registers if rows is None else registers.reshape(rows, m)


def exaloglog_registers_from_pairs(
    index: np.ndarray, k: np.ndarray, params: ExaLogLogParams
) -> np.ndarray:
    """Fold ``(register, update value)`` pairs into a fresh register array.

    Identical to sequentially applying Algorithm 2 (order-independent);
    also the bulk route for event schedules, whose events are exactly such
    pairs.
    """
    chunk = pick_chunk(params.m)
    scratch = np.empty((2, min(len(index), chunk)), dtype=_I64)
    registers = None
    for part_index, part_k in zip(_chunks(index, chunk), _chunks(k, chunk)):
        batch = _fold_pairs(part_index, part_k, params, scratch)
        registers = batch if registers is None else _merge(registers, batch, params.d)
    return registers


def exaloglog_state(hashes: np.ndarray, params: ExaLogLogParams) -> list[int]:
    """Final ExaLogLog register array after inserting all ``hashes``."""
    return exaloglog_registers(hashes, params).tolist()


def merge_exaloglog_registers(
    existing: Sequence[int] | np.ndarray, batch: np.ndarray, d: int
) -> np.ndarray:
    """Vectorised Algorithm 5: merge a batch register array into ``existing``.

    Equivalent to ``merge_register(existing[i], batch[i], d)`` per register
    for every reachable register state; the result equals the state of the
    union of the two element streams. Both arguments have one shape: one
    sketch's ``(m,)`` registers, or a stacked ``(rows, m)`` block, which
    merges row by row in the same single pass.
    """
    if _metrics.enabled():
        _MERGES.inc()
    r1 = np.asarray(existing, dtype=_I64)
    r2 = np.asarray(batch, dtype=_I64)
    if r1.shape != r2.shape:
        raise ValueError(f"cannot merge registers of shape {r2.shape} into {r1.shape}")
    if 4 * np.count_nonzero(r2) < r2.size:
        # A small batch touches few registers: merge only those lanes,
        # indexed flat so that a block's lanes are single registers.
        lanes = np.flatnonzero(r2)
        merged = r1.copy()
        merged.reshape(-1)[lanes] = _merge(r1.ravel()[lanes], r2.ravel()[lanes], d)
        return merged
    return _merge(r1, r2, d)


# -- sparse-mode tokens -------------------------------------------------------


def tokenize_hashes(hashes: np.ndarray, v: int) -> np.ndarray:
    """Vectorised Sec. 4.3 token mapping (``hash_to_token`` per element).

    Tokens are ``v + 6`` bits wide; the result is int64 where that fits
    (``v <= 57``, including the practical ``v = 26``) and uint64 beyond.
    """
    hashes = hashes.astype(_U64, copy=False)
    mask = _U64((1 << v) - 1)
    nlz = nlz64_array(hashes | mask, clobber=True)
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
        k = 64 - p - bit_length_u64(masked, clobber=True) + 1
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
        levels = np.minimum(64 - p - bit_length_u64(masked, clobber=True), 64 - p - 1)
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
