"""Engine-wide observability plane: metrics and span tracing.

Two sibling modules, both process-local, both near-zero cost until
switched on by environment variable:

* :mod:`repro.obs.metrics` (``REPRO_METRICS``) — Counter / Gauge /
  Histogram primitives with JSON + Prometheus exposition.
* :mod:`repro.obs.trace` (``REPRO_TRACE``) — nested context-manager
  spans in a bounded ring buffer, exported as Chrome trace-event JSON.

Every plane of the engine reports through them: the bulk kernels, the
WAL/snapshot store, the lock-free reader,
WAL-shipping replication, batched estimation, and the query executor
(whose per-plan-node spans feed ``explain(analyze=True)`` and the CLI's
``query ... --analyze``). ``python -m repro.store stats DIR`` is the
operator surface.
"""

from repro.obs import metrics, trace

__all__ = ["metrics", "trace"]
