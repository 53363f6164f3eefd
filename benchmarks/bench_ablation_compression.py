"""Ablation: serialized size — raw array vs range coder vs Shannon bound.

Sec. 6 (future work): entropy coding should push ExaLogLog towards the
compressed MVPs of Figure 6. This bench measures how close our Sec. 3.1
model-based range coder gets for a small-d configuration where the exact
entropy is computable.
"""

from _common import record_rows, run_once

from repro.backends import exaloglog_state
from repro.compression.codec import compress_registers
from repro.compression.entropy import theoretical_compressed_bytes
from repro.core.params import make_params
from repro.simulation.rng import numpy_generator, random_hashes
from repro.theory.mvp import mvp_ml_compressed, mvp_ml_dense


def test_register_compression(benchmark):
    params = make_params(2, 6, 8)  # d small enough for the exact bound

    def run():
        rows = []
        for n in (1_000, 30_000, 300_000):
            hashes = random_hashes(numpy_generator(0xC0DE, n), n)
            registers = exaloglog_state(hashes, params)
            compressed = compress_registers(registers, params, float(n))
            bound = theoretical_compressed_bytes(float(n), params)
            rows.append(
                {
                    "n": n,
                    "raw_bytes": params.dense_bytes,
                    "range_coded_bytes": len(compressed),
                    "shannon_bound_bytes": bound,
                    "overhead_vs_bound": len(compressed) / bound,
                }
            )
        return rows

    rows = run_once(benchmark, run)
    record_rows(
        "ablation_compression",
        f"Register compression, {params} "
        f"(theory: dense MVP {mvp_ml_dense(2, 6):.2f} -> compressed "
        f"{mvp_ml_compressed(2, 6):.2f})",
        rows,
    )
    for row in rows:
        assert row["range_coded_bytes"] < row["raw_bytes"]
        assert row["overhead_vs_bound"] < 1.6
