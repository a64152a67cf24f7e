"""A clock that runs at the host's current speed, for the benchmark's timings.

The benchmark runs on virtual CPUs shared with other tenants, and their
speed changes by up to 2x from one second to the next, for the program
and for any fixed piece of work alike.  Wall time alone therefore
measures the neighbours as much as the program.  This module times a
fixed reference kernel again and again while the program runs and
expresses the program's time in units of the kernel's time at that
moment, scaled back to seconds with the kernel's time on a quiet host
(`REFERENCE_S`):

    scaled seconds = program seconds x REFERENCE_S / mean kernel seconds

A change that makes the program faster lowers the scaled time in the
same proportion as the wall time; a slow stretch of the host raises
program and kernel time together and leaves the scaled time unchanged.

The kernel does what the workloads do, in equal parts: an interpreted
Python loop, a loop of numpy operations on short vectors, and dense
symmetric eigendecompositions.  It only uses numpy, never optosqueeze,
so no change to the package moves it.  Inside a timed region it runs on
SIGALRM every `PERIOD_S` seconds, in the main thread, between two
bytecodes of the program (during a long call into compiled code, such as
a large `eigh`, it waits for that call to return); its own time is taken
out of the program's.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.0105  # the kernel's time on a quiet two-vCPU Xeon host at 2.1 GHz, one BLAS thread
PERIOD_S = 0.3  # a sample every 0.3 s of program time costs about 5% of it
POINT_SAMPLES = 3  # kernels before and after a region that cannot be interrupted

_MATRIX = np.random.default_rng(0).standard_normal((120, 120))
_MATRIX = _MATRIX + _MATRIX.T
_VECTOR = np.random.default_rng(1).standard_normal(64)


def kernel() -> float:
    """Seconds taken by the fixed reference work, about REFERENCE_S on a quiet host."""
    t0 = perf_counter()
    s = 0
    for i in range(50_000):
        s += i * i % 7
    x = _VECTOR
    for _ in range(1_500):
        x = np.sin(x) * 0.5 + _VECTOR
    for _ in range(3):
        np.linalg.eigh(_MATRIX)
    return perf_counter() - t0


class HostClock:
    """Times regions of code in raw and in host-speed-scaled seconds."""

    def __init__(self):
        self._samples = []
        self._kernel_s = 0.0  # time spent in sampling, to take out of the regions

    def _sample(self, *_):
        t0 = perf_counter()
        self._samples.append(kernel())
        self._kernel_s += perf_counter() - t0

    def time(self, fn):
        """Run fn(); returns (raw seconds, scaled seconds).

        The kernel runs once before fn, every PERIOD_S seconds during it
        and once after it; the scaled time uses the mean of those samples.
        """
        self._sample()
        first, kernel_before = len(self._samples) - 1, self._kernel_s
        previous = signal.signal(signal.SIGALRM, self._sample)
        t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        raw = wall - (self._kernel_s - kernel_before)
        self._sample()
        speed = statistics.mean(self._samples[first:])
        return raw, raw * REFERENCE_S / speed

    def point(self, fn):
        """Run fn() with no sampling inside it, between POINT_SAMPLES kernels before and after.

        For a region that cannot be interrupted (a child process) and that
        is short against the host's changes of speed.
        """
        before = [kernel() for _ in range(POINT_SAMPLES)]
        t0 = perf_counter()
        fn()
        raw = perf_counter() - t0
        after = [kernel() for _ in range(POINT_SAMPLES)]
        return raw, raw * REFERENCE_S / statistics.mean(before + after)
