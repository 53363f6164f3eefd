"""Span tracing: nested context-manager timers with Chrome trace export.

Metrics (:mod:`repro.obs.metrics`) say *how much*; spans say *where the
time went* inside one request — which plan node dominated a query, how
long a refresh spent in WAL tail replay vs snapshot switching. The
design constraints mirror metrics:

* **Near-zero cost when disabled.** Off unless ``REPRO_TRACE`` is
  truthy (or :func:`enable` is called); a disabled :func:`span` returns
  one shared no-op context manager — no clock reads, no allocation
  beyond the call itself.
* **Monotonic nesting.** Spans time with ``time.perf_counter`` and
  track a per-thread stack, so every recorded span knows its depth and
  its parent; a child always closes before (and nests strictly inside)
  its parent — asserted by the observability smoke test.
* **Bounded retention.** Completed spans land in a ring buffer
  (``REPRO_TRACE_BUFFER`` entries, default 4096): a long-running
  ``serve`` loop keeps the most recent window instead of growing
  without bound.
* **Chrome trace-event export.** :func:`to_chrome_trace` renders the
  ring as the Trace Event JSON format — load it in ``chrome://tracing``
  or Perfetto to see the nested flame view.

Usage::

    from repro.obs import trace

    with trace.span("store.commit", records=700, bytes=20480):
        ...
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field

#: Environment variable enabling tracing at import time.
ENV_VAR = "REPRO_TRACE"

#: Environment variable sizing the ring buffer (completed spans kept).
BUFFER_ENV_VAR = "REPRO_TRACE_BUFFER"

_TRUTHY = ("1", "true", "yes", "on")


def _env_enabled() -> bool:
    return os.environ.get(ENV_VAR, "").strip().lower() in _TRUTHY


def _buffer_capacity() -> int:
    try:
        value = int(os.environ.get(BUFFER_ENV_VAR, 4096))
    except ValueError:
        return 4096
    return max(1, value)


_ENABLED = _env_enabled()
_LOCK = threading.Lock()
_SPANS: "deque[Span]" = deque(maxlen=_buffer_capacity())
_LOCAL = threading.local()


def enabled() -> bool:
    """Whether span recording is on (the hot-path guard)."""
    return _ENABLED


def enable() -> None:
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    global _ENABLED
    _ENABLED = False


class tracing:
    """Context manager scoping :func:`enable` (tests, benchmarks)."""

    def __init__(self, on: bool = True) -> None:
        self._on = on
        self._previous = _ENABLED

    def __enter__(self) -> "tracing":
        global _ENABLED
        self._previous = _ENABLED
        _ENABLED = self._on
        return self

    def __exit__(self, *exc_info) -> None:
        global _ENABLED
        _ENABLED = self._previous


@dataclass(frozen=True)
class Span:
    """One completed span (recorded at exit)."""

    name: str
    start: float
    """``time.perf_counter()`` at entry (process-relative seconds)."""

    duration: float
    """Seconds between entry and exit."""

    depth: int
    """Nesting depth on its thread (0 = top-level)."""

    thread_id: int
    attrs: tuple = field(default=())

    @property
    def end(self) -> float:
        return self.start + self.duration


def _stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


class _ActiveSpan:
    """The live context manager; records into the ring on exit."""

    __slots__ = ("name", "attrs", "start", "depth")

    def __init__(self, name: str, attrs: tuple) -> None:
        self.name = name
        self.attrs = attrs
        self.start = 0.0
        self.depth = 0

    def __enter__(self) -> "_ActiveSpan":
        stack = _stack()
        self.depth = len(stack)
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        duration = time.perf_counter() - self.start
        stack = _stack()
        # Pop back to this span even if an inner span leaked (an
        # exception unwound through it): nesting stays monotone.
        while stack and stack[-1] is not self:
            stack.pop()
        if stack:
            stack.pop()
        record = Span(
            name=self.name,
            start=self.start,
            duration=duration,
            depth=self.depth,
            thread_id=threading.get_ident(),
            attrs=self.attrs,
        )
        with _LOCK:
            _SPANS.append(record)


class _NoopSpan:
    """Shared do-nothing context manager returned while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NOOP = _NoopSpan()


def span(name: str, **attrs):
    """Open a span named ``name``; ``attrs`` become trace-event args.

    Returns a context manager. While tracing is disabled this is one
    flag check plus a shared no-op object — safe on hot paths.
    """
    if not _ENABLED:
        return _NOOP
    return _ActiveSpan(name, tuple(sorted(attrs.items())) if attrs else ())


def spans() -> "list[Span]":
    """Completed spans currently retained (oldest first)."""
    with _LOCK:
        return list(_SPANS)


def reset() -> None:
    """Drop every retained span (the ring stays at its capacity)."""
    with _LOCK:
        _SPANS.clear()


def capacity() -> int:
    """The ring buffer's maximum retained span count."""
    return _SPANS.maxlen or 0


def set_capacity(count: int) -> None:
    """Resize the ring (keeps the newest spans that fit)."""
    global _SPANS
    with _LOCK:
        _SPANS = deque(_SPANS, maxlen=max(1, int(count)))


def to_chrome_trace() -> str:
    """The retained spans as Chrome Trace Event JSON (``ph: "X"``).

    Open in ``chrome://tracing`` or https://ui.perfetto.dev. Timestamps
    are microseconds relative to the process's ``perf_counter`` origin.
    """
    pid = os.getpid()
    events = [
        {
            "name": record.name,
            "ph": "X",
            "ts": record.start * 1e6,
            "dur": record.duration * 1e6,
            "pid": pid,
            "tid": record.thread_id,
            "args": {**dict(record.attrs), "depth": record.depth},
        }
        for record in spans()
    ]
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})


def save_chrome_trace(path) -> None:
    """Write :func:`to_chrome_trace` to ``path``."""
    with open(path, "w") as handle:
        handle.write(to_chrome_trace())
