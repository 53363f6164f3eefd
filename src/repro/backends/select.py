"""Kernel-backend selection for the ExaLogLog bulk fold/merge hot path.

The public bulk entry points (:func:`repro.backends.bulk.exaloglog_registers`,
``exaloglog_registers_from_pairs``, ``merge_exaloglog_registers``) dispatch
through the *active kernel backend*. Backends trade implementation strategy
for speed but never results — every backend is bit-identical to the scalar
``add_hash`` loop, and the invariant harness asserts it:

``numpy``
    The reference implementation (:mod:`repro.backends.bulk`), default.
``fast``
    :class:`repro.backends.fast.FastBulkBackend` — cache-blocked chunking
    with preallocated per-thread workspaces (no per-chunk temporaries).

Selection is programmatic (:func:`set_backend`, :func:`use_backend`) or via
the ``REPRO_BACKEND`` environment variable, read once at import. An unknown
env value warns and falls back to the reference backend instead of
breaking imports (CI sets the variable globally).
"""

from __future__ import annotations

import os
import threading
import warnings
from contextlib import contextmanager

#: Environment variable naming the startup backend.
ENV_VAR = "REPRO_BACKEND"

_LOCK = threading.Lock()
_ACTIVE = None  # resolved lazily so importing this module stays cheap


def _make_backend(name: str):
    if name in ("numpy", "reference"):
        from repro.backends.bulk import ReferenceBulkBackend

        return ReferenceBulkBackend()
    if name == "fast":
        from repro.backends.fast import FastBulkBackend

        return FastBulkBackend()
    raise ValueError(
        f"unknown backend {name!r}; available: {available_backends()}"
    )


def available_backends() -> list[str]:
    """Backend names accepted by :func:`set_backend`."""
    return ["numpy", "fast"]


def active_backend():
    """The backend the bulk entry points currently dispatch to."""
    global _ACTIVE
    backend = _ACTIVE
    if backend is None:
        with _LOCK:
            if _ACTIVE is None:
                _ACTIVE = _startup_backend()
            backend = _ACTIVE
    return backend


def set_backend(backend):
    """Select the kernel backend; returns the now-active backend object.

    ``backend`` is a name (``"numpy"``, ``"fast"``) or an object
    implementing ``fold`` / ``registers_from_pairs`` / ``merge_registers``.
    """
    global _ACTIVE
    if isinstance(backend, str):
        backend = _make_backend(backend)
    with _LOCK:
        _ACTIVE = backend
    return backend


@contextmanager
def use_backend(backend):
    """Context manager: run a block under another backend, then restore."""
    previous = active_backend()
    chosen = set_backend(backend)
    try:
        yield chosen
    finally:
        set_backend(previous)


def _startup_backend():
    """Resolve the import-time default (honouring ``REPRO_BACKEND``)."""
    name = os.environ.get(ENV_VAR, "").strip().lower()
    if name:
        try:
            return _make_backend(name)
        except ValueError as exc:
            warnings.warn(
                f"{ENV_VAR}={name!r} not usable ({exc}); "
                "falling back to the reference numpy backend",
                RuntimeWarning,
                stacklevel=2,
            )
    return _make_backend("numpy")
