"""The host-speed probe that normalises every time the benchmark reports.

A shared 2-vCPU Xeon virtual machine slows down by up to 2x for seconds
to minutes at a time, and every op of a process slows with it: raw
times of identical runs spread 30-50%. Each reported time is instead
multiplied by the host speed measured around it: the probe's nominal
time over its median measured time.

The probe is a Python loop that calls into NumPy on every tenth
iteration, with small arrays: the mix of interpreter work and extension
calls the program's ops are made of. On that machine, over three minutes
of three fixed ops (a 16384-row grouped ``add_batch``, ``top(10)`` and a
point query on 64 groups) repeated with probes between them, the ops'
medians over 10-second stretches spread 30-50% raw, 14-17% normalised
by a pure-Python loop, and 2-5% normalised by this probe. The pure loop
under-corrects: the ops slowed about 1.4 times as much as it did.

The probe's array is read before its timer starts and stays in the L1
cache, so what the program did just before cannot move it: after an op
that streams 64 MB through memory it reads within 2% of its reading
after an idle spell. It touches nothing of the program.

The machine's virtual disk varies too, and independently: within one
hour the mean fsync of the durable workload's WAL appends went from
about 70 to 130 µs, which moved its batch times by 30% between runs
while the probe read the same. How long one fsync takes is the
device's doing; how many a batch issues is the program's. So time spent inside
``os.fsync`` (:class:`FsyncMeter`) is taken out of an op's time before
the probe's scaling, and each call counts :data:`NOMINAL_FSYNC_S`
instead. Over 2.5 minutes of durable batches this cut the spread of
10-second medians from 21% (probe alone) to 5%.
"""

import os
from time import perf_counter

import numpy as np

#: Loop length and calls into NumPy (one per CALL_EVERY iterations).
ITERATIONS = 2000
CALL_EVERY = 10

#: The probe's time on an unloaded 2-CPU box, so that normalised times
#: read as that box's seconds.
NOMINAL_REFERENCE_S = 0.40e-3

_ARRAY = np.arange(256 + ITERATIONS, dtype=np.int64)


def reference_kernel() -> float:
    """Seconds one fixed loop of Python work and small NumPy calls takes."""
    array = _ARRAY
    np.add.reduce(array)
    start = perf_counter()
    total = 0
    for value in range(ITERATIONS):
        total += value * value
        if value % CALL_EVERY == 0:
            np.add.reduce(array[:256 + value])
    return perf_counter() - start


def host_speed(references) -> float:
    """Nominal over median measured probe time: below 1 while the host is slow."""
    ordered = sorted(references)
    middle = len(ordered) // 2
    typical = ordered[middle] if len(ordered) % 2 else (ordered[middle - 1] + ordered[middle]) / 2
    return NOMINAL_REFERENCE_S / typical


#: What one fsync counts in normalised times: a small append's fsync on
#: the local ext4 disk of a 2-vCPU VM took 65-130 µs.
NOMINAL_FSYNC_S = 100e-6


def normalised(seconds: float, speed: float, fsyncs: int = 0, fsync_seconds: float = 0.0) -> float:
    """``seconds`` on the nominal host: the time outside ``fsyncs`` calls
    (which took ``fsync_seconds``) scaled by ``speed``, plus each call at
    :data:`NOMINAL_FSYNC_S`."""
    return (seconds - fsync_seconds) * speed + fsyncs * NOMINAL_FSYNC_S


class FsyncMeter:
    """Counts ``os.fsync`` calls, and the time spent in them, while entered.

    The program calls ``os.fsync`` through the ``os`` module, so replacing
    the attribute there sees every call.
    """

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self._real = None

    def __enter__(self) -> "FsyncMeter":
        self._real = os.fsync
        os.fsync = self._fsync
        return self

    def __exit__(self, *exc_info) -> None:
        os.fsync = self._real

    def _fsync(self, fd) -> None:
        start = perf_counter()
        try:
            self._real(fd)
        finally:
            self.seconds += perf_counter() - start
            self.calls += 1
