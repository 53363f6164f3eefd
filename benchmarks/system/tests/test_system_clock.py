"""The op clock: one probe before every op, times scaled by host speed."""

import os

import pytest

import workloads
from hostspeed import NOMINAL_FSYNC_S, NOMINAL_REFERENCE_S, host_speed


def fake_probe(monkeypatch, readings):
    readings = iter(readings)
    monkeypatch.setattr(workloads, "reference_kernel", lambda: next(readings))


def test_times_are_scaled_by_the_bracketing_probes(monkeypatch):
    half, full = NOMINAL_REFERENCE_S / 0.5, NOMINAL_REFERENCE_S
    fake_probe(monkeypatch, [half, half, full, full])
    clock = workloads.OpClock()
    for _ in range(4):
        clock.run("op", sum, range(1000))
    raw = clock.samples("op", raw=True)
    # Each op takes the median of the probes before it, its own and the next.
    speeds = [0.5, 0.5, 1.0, 1.0]
    assert clock.samples("op") == pytest.approx([r * s for r, s in zip(raw, speeds)])
    assert clock.references == [half, half, full, full]
    assert clock.attempted == 4 and clock.failed == 0


def test_a_raising_op_counts_as_failed(monkeypatch):
    fake_probe(monkeypatch, [NOMINAL_REFERENCE_S])
    clock = workloads.OpClock()
    with pytest.raises(ZeroDivisionError):
        clock.run("op", lambda: 1 / 0)
    assert clock.attempted == 1 and clock.failed == 1
    assert clock.samples("op") == []


def test_fsync_time_is_replaced_by_its_nominal_time(monkeypatch, tmp_path):
    fake_probe(monkeypatch, [NOMINAL_REFERENCE_S / 0.5])
    original = os.fsync
    clock = workloads.OpClock()

    def op(handle):
        handle.write(b"x")
        handle.flush()
        os.fsync(handle.fileno())
        os.fsync(handle.fileno())

    with open(tmp_path / "log", "wb") as handle, clock.fsync:
        clock.run("op", op, handle)
    assert os.fsync is original
    [(_, seconds, fsyncs, fsync_seconds)] = clock.ops
    assert fsyncs == 2 and 0 < fsync_seconds < seconds
    expected = (seconds - fsync_seconds) * 0.5 + 2 * NOMINAL_FSYNC_S
    assert clock.samples("op") == pytest.approx([expected])


def test_host_speed_is_nominal_over_the_median_probe():
    assert host_speed([NOMINAL_REFERENCE_S]) == 1.0
    assert host_speed([NOMINAL_REFERENCE_S * 2, NOMINAL_REFERENCE_S * 4, 1.0]) == 0.25
