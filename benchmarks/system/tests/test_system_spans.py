"""Span bookkeeping: self time, closure, coverage and wrapper installation."""

import os
import sys
import time
from time import perf_counter

import numpy as np
import pytest

import tracing
from tracing import SITE_INDEX, SITES, Tracer, coverage_failures, layer_metrics, self_times


def test_self_time_on_a_nested_tree():
    # op(10) -> a(6) -> {b(2), c(3)};  op -> d(1)
    parent = np.array([-1, 0, 1, 1, 0])
    duration = np.array([10.0, 6.0, 2.0, 3.0, 1.0])
    assert self_times(parent, duration).tolist() == [3.0, 1.0, 2.0, 3.0, 1.0]
    assert self_times(parent, duration).sum() == duration[0]


def _timed_op(tracer, kind, function, *args):
    span = tracer.begin_op(kind)
    start = perf_counter()
    function(*args)
    tracer.end_op(span, start, perf_counter())


def test_wrapped_calls_give_self_time_and_close_over_the_op():
    tracer = Tracer(tracing.MEM)

    def fold(sketch, hashes):
        time.sleep(0.02)

    inner = tracer.wrap(SITE_INDEX["core.sparse.add_hashes"], fold, tracing._rows_arg(1))

    def add_batch(aggregator, groups, items):
        time.sleep(0.01)
        inner(None, items)
        inner(None, items[:1])

    outer = tracer.wrap(SITE_INDEX["aggregate.add_batch"], add_batch, tracing._rows_arg(2))
    outer(None, [0], [1, 2, 3])  # outside an op: no span
    assert len(tracer.starts) == 0
    _timed_op(tracer, tracing.INGEST_OP, outer, None, [0, 0, 0], [1, 2, 3])

    metrics, closure = layer_metrics(tracer, {"rows": 3})
    assert metrics["aggregate.add_batch.calls"][0] == 1
    assert metrics["core.sparse.add_hashes.calls"][0] == 2
    assert metrics["core.sparse.add_hashes.self_s"][0] == pytest.approx(0.04, abs=0.015)
    assert metrics["aggregate.add_batch.self_s"][0] == pytest.approx(0.01, abs=0.015)
    assert metrics["aggregate.segments_per_batch"][0] == 2
    assert metrics["core.rows_per_fold"][0] == 2  # (3 + 1) rows over 2 folds
    assert abs(closure["gap"]) < tracing.CLOSURE_TOLERANCE
    shares = sum(metrics[f"{site.name}.share"][0] for site in SITES)
    assert shares == pytest.approx(1.0 - closure["gap"])


def test_coverage_names_silent_sites_and_open_gaps():
    tracer = Tracer(tracing.SPILL)
    _timed_op(tracer, "top", time.sleep, 0.01)  # an op no site covers
    metrics, closure = layer_metrics(tracer, {})
    failures = coverage_failures(tracing.SPILL, metrics, closure)
    silent = [site.name for site in SITES if tracing.SPILL in site.workloads]
    assert all(any(name in failure for failure in failures) for name in silent)
    assert "gap" in failures[-1]
    assert not any("store.reader.refresh" in failure for failure in failures)


def test_install_rebinds_every_holder_and_uninstall_restores():
    from repro.aggregate import DistinctCountAggregator
    from repro.store import SketchStore

    query_package = sys.modules["repro.query"]
    backends = sys.modules["repro.backends"]
    originals = (
        query_package.execute,
        backends.exaloglog_registers,
        os.fsync,
        SketchStore.__dict__["open"],
    )
    tracer = Tracer(tracing.MEM)
    undo = tracing.install(tracer)
    try:
        assert query_package.execute is sys.modules["repro.query.executor"].execute
        assert query_package.execute.__wrapped__ is originals[0]
        assert backends.exaloglog_registers.__wrapped__ is originals[1]
        assert sys.modules["repro.backends.bulk"].exaloglog_registers is backends.exaloglog_registers
        assert os.fsync.__wrapped__ is originals[2]
        assert isinstance(SketchStore.__dict__["open"], classmethod)

        aggregator = DistinctCountAggregator(p=8)
        _timed_op(tracer, tracing.INGEST_OP, aggregator.add_batch,
                  np.arange(300) % 3, np.arange(300))
        names = {tracer.span_names()[site] for site in tracer.sites}
        assert {"aggregate.add_batch", "hashing.batch.hash_items",
                "core.sparse.add_hashes", "op.ingest"} <= names
    finally:
        tracing.uninstall(undo)
    assert query_package.execute is originals[0]
    assert backends.exaloglog_registers is originals[1]
    assert os.fsync is originals[2]
    assert SketchStore.__dict__["open"] is originals[3]
