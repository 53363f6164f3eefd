"""Vectorised bulk-ingest backends (the family-wide NumPy fast path).

Promotes the exact NumPy bulk machinery that used to live private to the
simulation harness into a first-class layer: the
:class:`~repro.backends.protocol.BulkBackend` protocol, bit primitives,
and per-sketch state builders. Every sketch's ``add_hashes`` routes
through here; the contract is that bulk state equals the sequential
``add_hash`` loop state bit for bit (see :mod:`repro.backends.protocol`).
"""

from repro.backends.bitops import (
    as_hash_array,
    bit_length_u64,
    nlz64_array,
    ntz64_array,
)
from repro.backends.bulk import (
    BULK_CHUNK,
    ReferenceBulkBackend,
    exaloglog_registers,
    exaloglog_registers_from_pairs,
    exaloglog_state,
    hyperloglog_registers,
    hyperloglog_state,
    merge_exaloglog_registers,
    pcsa_bitmaps,
    pcsa_state,
    reference_exaloglog_registers,
    reference_merge_registers,
    reference_registers_from_pairs,
    spikesketch_pairs,
    spikesketch_state,
    split_hashes,
    supports_int64_registers,
    token_hashes,
    tokenize_hashes,
)
from repro.backends.fast import FastBulkBackend, pick_chunk
from repro.backends.protocol import BulkBackend, scalar_add_hashes, supports_bulk
from repro.backends.select import (
    active_backend,
    available_backends,
    set_backend,
    use_backend,
)

__all__ = [
    "BULK_CHUNK",
    "BulkBackend",
    "FastBulkBackend",
    "ReferenceBulkBackend",
    "active_backend",
    "as_hash_array",
    "available_backends",
    "bit_length_u64",
    "exaloglog_registers",
    "exaloglog_registers_from_pairs",
    "exaloglog_state",
    "hyperloglog_registers",
    "hyperloglog_state",
    "merge_exaloglog_registers",
    "nlz64_array",
    "ntz64_array",
    "pcsa_bitmaps",
    "pcsa_state",
    "pick_chunk",
    "reference_exaloglog_registers",
    "reference_merge_registers",
    "reference_registers_from_pairs",
    "scalar_add_hashes",
    "set_backend",
    "spikesketch_pairs",
    "spikesketch_state",
    "split_hashes",
    "supports_bulk",
    "supports_int64_registers",
    "token_hashes",
    "tokenize_hashes",
    "use_backend",
]
