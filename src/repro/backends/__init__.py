"""Vectorised bulk-ingest backends (the family-wide NumPy fast path).

Promotes the exact NumPy bulk machinery that used to live private to the
simulation harness into a first-class layer: the
:class:`~repro.backends.protocol.BulkBackend` protocol, bit primitives,
and per-sketch state builders, including the one ExaLogLog fold and merge
kernel. Every sketch's ``add_hashes`` routes through here; the contract
is that bulk state equals the sequential ``add_hash`` loop state bit for
bit (see :mod:`repro.backends.protocol`).
"""

from repro.backends.bitops import (
    as_hash_array,
    bit_length_u64,
    nlz64_array,
    ntz64_array,
)
from repro.backends.bulk import (
    BULK_CHUNK,
    exaloglog_registers,
    exaloglog_registers_from_pairs,
    exaloglog_state,
    hyperloglog_registers,
    hyperloglog_state,
    merge_exaloglog_registers,
    pcsa_bitmaps,
    pcsa_state,
    pick_chunk,
    spikesketch_pairs,
    spikesketch_state,
    split_hashes,
    supports_int64_registers,
    token_hashes,
    tokenize_hashes,
)
from repro.backends.protocol import BulkBackend, scalar_add_hashes, supports_bulk

__all__ = [
    "BULK_CHUNK",
    "BulkBackend",
    "as_hash_array",
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
    "scalar_add_hashes",
    "spikesketch_pairs",
    "spikesketch_state",
    "split_hashes",
    "supports_bulk",
    "supports_int64_registers",
    "token_hashes",
    "tokenize_hashes",
]
