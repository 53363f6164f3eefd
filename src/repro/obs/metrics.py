"""Process-local metrics: counters, gauges, histograms.

The engine spans four planes (vectorized ingest, the WAL/snapshot store,
WAL-shipping replication, the unified query plane), and some of them run
in processes the operator never sees — ``serve`` readers, ``replicate``
shippers. This module is the one substrate they all report through:

* **Primitives.** :class:`Counter` (monotone sum), :class:`Gauge`
  (last-written value), and :class:`Histogram` (fixed exponential
  buckets + sum + count, with quantile estimation) live in a
  process-local :class:`Registry`. ``workers=`` folds run on threads of
  this process, so their fold metrics land in the same registry; each
  metric's read-modify-write updates hold its own lock, so concurrent
  threads lose no update.
* **Near-zero cost when disabled.** Collection is off unless the
  ``REPRO_METRICS`` environment variable is truthy (or :func:`enable`
  is called): every mutator starts with one module-flag check and
  returns — no locks, no allocation, no clock reads. Instrumented hot
  paths additionally guard whole blocks with :func:`enabled` so even
  argument computation is skipped.
* **Exposition.** :meth:`Registry.to_json` for tooling and
  :meth:`Registry.to_prometheus` for the standard text format
  (``repro_``-prefixed, dots mapped to underscores, labels rendered).

Everything here is pure stdlib and import-cheap: instrumented modules
create their metric handles at import time and the handles stay valid
across :func:`reset` (values zero in place).
"""

from __future__ import annotations

import json
import math
import os
import threading
from bisect import bisect_left
from typing import Iterable, Mapping

#: Environment variable enabling collection at import time.
ENV_VAR = "REPRO_METRICS"

#: Truthy values accepted for :data:`ENV_VAR`.
_TRUTHY = ("1", "true", "yes", "on")


def _env_enabled() -> bool:
    return os.environ.get(ENV_VAR, "").strip().lower() in _TRUTHY


_ENABLED = _env_enabled()


def enabled() -> bool:
    """Whether collection is on (the hot-path guard)."""
    return _ENABLED


def enable() -> None:
    """Turn collection on for this process."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn collection off (existing values are kept, not cleared)."""
    global _ENABLED
    _ENABLED = False


class instrumented:
    """Context manager scoping :func:`enable` (tests, the ``stats`` CLI)."""

    def __init__(self, on: bool = True) -> None:
        self._on = on
        self._previous = _ENABLED

    def __enter__(self) -> "instrumented":
        global _ENABLED
        self._previous = _ENABLED
        _ENABLED = self._on
        return self

    def __exit__(self, *exc_info) -> None:
        global _ENABLED
        _ENABLED = self._previous


# -- buckets -------------------------------------------------------------------

#: Default histogram boundaries: exponential decades 1e-6 .. 1e9, dense
#: enough for both latencies (seconds) and sizes (bytes, rows). A final
#: +inf bucket is implicit.
DEFAULT_BUCKETS = tuple(
    base * 10.0**exponent
    for exponent in range(-6, 10)
    for base in (1.0, 2.5, 5.0)
)


def _canonical_labels(labels: "Mapping[str, str] | None") -> tuple:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


# -- primitives ----------------------------------------------------------------


class Metric:
    """Shared identity plumbing; concrete kinds add their state."""

    kind = "metric"

    def __init__(self, name: str, help: str = "", labels: tuple = ()) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self._lock = threading.Lock()

    @property
    def key(self) -> tuple:
        return (self.name, self.labels)

    def _label_suffix(self) -> str:
        if not self.labels:
            return ""
        inner = ",".join(f'{k}="{v}"' for k, v in self.labels)
        return "{" + inner + "}"


class Counter(Metric):
    """A monotonically increasing sum."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: tuple = ()) -> None:
        super().__init__(name, help, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not _ENABLED:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        with self._lock:
            self.value += amount

    def _reset(self) -> None:
        self.value = 0.0


class Gauge(Metric):
    """A point-in-time value (the last one written)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels: tuple = ()) -> None:
        super().__init__(name, help, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        if not _ENABLED:
            return
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not _ENABLED:
            return
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def _reset(self) -> None:
        self.value = 0.0


class Histogram(Metric):
    """Fixed-boundary bucket counts plus sum and count.

    ``buckets`` are the inclusive upper bounds of each bucket (a final
    +inf bucket is implicit); observations land in the first bucket
    whose bound is >= the value, Prometheus-style cumulative counts are
    produced at exposition time.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: tuple = (),
        buckets: "Iterable[float] | None" = None,
    ) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be strictly increasing")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # final slot: +inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``value`` (``count`` identical observations at once)."""
        if not _ENABLED:
            return
        with self._lock:
            self.counts[bisect_left(self.bounds, value)] += count
            self.sum += value * count
            self.count += count

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by interpolating within its bucket.

        Exact for values that sit on bucket boundaries; otherwise the
        usual histogram-quantile estimate (linear within the bucket,
        lower bound 0 for the first, the last finite bound for +inf).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return math.nan
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if index >= len(self.bounds):
                    return self.bounds[-1] if self.bounds else math.inf
                low = self.bounds[index - 1] if index else 0.0
                high = self.bounds[index]
                fraction = (rank - previous) / bucket_count
                return low + (high - low) * min(max(fraction, 0.0), 1.0)
        return self.bounds[-1] if self.bounds else math.nan

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    def _reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0


# -- the registry --------------------------------------------------------------


class Registry:
    """A process-local collection of metrics, keyed by (name, labels)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: "dict[tuple, Metric]" = {}

    def _get_or_create(self, cls, name, help, labels, **options):
        key = (name, _canonical_labels(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, help, key[1], **options)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name, help: str = "", labels=None) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name, help: str = "", labels=None) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name, help: str = "", labels=None, buckets=None) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    def get(self, name: str, labels=None) -> "Metric | None":
        """Look up one metric (``None`` when it was never created)."""
        return self._metrics.get((name, _canonical_labels(labels)))

    def metrics(self) -> "list[Metric]":
        with self._lock:
            return sorted(self._metrics.values(), key=lambda m: m.key)

    def __len__(self) -> int:
        return len(self._metrics)

    def reset(self) -> None:
        """Zero every metric's value (handles stay registered and valid)."""
        with self._lock:
            for metric in self._metrics.values():
                metric._reset()

    # -- exposition ------------------------------------------------------------

    def to_json(self, indent: "int | None" = None) -> str:
        """All metrics as one JSON document (histograms with quantiles)."""
        payload = {}
        for metric in self.metrics():
            entry: dict = {"kind": metric.kind}
            if metric.labels:
                entry["labels"] = dict(metric.labels)
            if isinstance(metric, Histogram):
                entry.update(
                    count=metric.count,
                    sum=metric.sum,
                    mean=None if metric.count == 0 else metric.mean,
                    p50=_json_safe(metric.quantile(0.50)),
                    p95=_json_safe(metric.quantile(0.95)),
                    p99=_json_safe(metric.quantile(0.99)),
                )
            else:
                entry["value"] = metric.value
            name = metric.name + metric._label_suffix()
            payload[name] = entry
        return json.dumps(payload, indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """The standard Prometheus text exposition (version 0.0.4).

        Names are prefixed ``repro_`` with dots mapped to underscores;
        histograms expose cumulative ``_bucket{le=...}`` series plus
        ``_sum`` and ``_count``.
        """
        lines: "list[str]" = []
        seen_headers: set = set()
        for metric in self.metrics():
            name = prometheus_name(metric.name)
            if name not in seen_headers:
                seen_headers.add(name)
                if metric.help:
                    lines.append(f"# HELP {name} {metric.help}")
                lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, Histogram):
                cumulative = 0
                for bound, bucket_count in zip(metric.bounds, metric.counts):
                    cumulative += bucket_count
                    labels = metric.labels + (("le", _format_bound(bound)),)
                    lines.append(
                        f"{name}_bucket{_render_labels(labels)} {cumulative}"
                    )
                cumulative += metric.counts[-1]
                labels = metric.labels + (("le", "+Inf"),)
                lines.append(f"{name}_bucket{_render_labels(labels)} {cumulative}")
                lines.append(
                    f"{name}_sum{_render_labels(metric.labels)} {_format_value(metric.sum)}"
                )
                lines.append(
                    f"{name}_count{_render_labels(metric.labels)} {cumulative}"
                )
            else:
                lines.append(
                    f"{name}{_render_labels(metric.labels)} {_format_value(metric.value)}"
                )
        return "\n".join(lines) + "\n"


def _json_safe(value: float):
    return None if math.isnan(value) or math.isinf(value) else value


def prometheus_name(name: str) -> str:
    """Map a dotted metric name to its Prometheus series name."""
    return "repro_" + name.replace(".", "_").replace("-", "_")


def _render_labels(labels: tuple) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return "{" + inner + "}"


def _format_bound(bound: float) -> str:
    if bound == int(bound) and abs(bound) < 1e15:
        return str(int(bound))
    return repr(bound)


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


# -- the default registry ------------------------------------------------------

#: The process-wide registry instrumented modules register into.
REGISTRY = Registry()


def counter(name: str, help: str = "", labels=None) -> Counter:
    """Get-or-create a counter in the default registry."""
    return REGISTRY.counter(name, help, labels)


def gauge(name: str, help: str = "", labels=None) -> Gauge:
    """Get-or-create a gauge in the default registry."""
    return REGISTRY.gauge(name, help, labels)


def histogram(name: str, help: str = "", labels=None, buckets=None) -> Histogram:
    """Get-or-create a histogram in the default registry."""
    return REGISTRY.histogram(name, help, labels, buckets=buckets)


def reset() -> None:
    REGISTRY.reset()


def to_json(indent: "int | None" = None) -> str:
    return REGISTRY.to_json(indent)


def to_prometheus() -> str:
    return REGISTRY.to_prometheus()
