"""Machine-speed calibration: scaled operation times from kernel samples.

The shared virtual machine this benchmark was written on shares its
cores, caches and memory bandwidth with other tenants, and its speed
drifts by 10-25% over seconds to minutes.  That drift moves every
operation's wall time together with this kernel's.  ``Meter`` times the
kernel about once a second, between operations and, through ``poll``,
inside long ones; each stretch of operation time between two samples
counts as its wall time times REFERENCE_S / (mean of the two kernel
times), its duration at a fixed reference speed.  The kernel is the
benchmark's own code built from the same kinds of work as the program
(complex phase rotations, DCT-IV pairs, cubic splines, banded solves) and
is identical for every commit it measures.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import numpy as np
from scipy.fft import dct, idct
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

# Usual kernel time on the 2-core reference machine (see README.md).
REFERENCE_S = 0.04


def _arrays(n: int):
    x = np.linspace(0.0, 12.0, n)
    band = np.vstack([np.full(n, -1.0), np.full(n, 4.0), np.full(n, -1.0)])
    return (x, np.exp(-x ** 2) * (1.0 + 0.5j),
            np.exp(-1j * 1e-3 * np.arange(n) ** 2 / n), band,
            np.linspace(0.0, 10.0, 3 * n))


# A cache-resident size (the propagator's) and one far past the caches
# (the CLI's 32768-point fields): contention from other tenants slows
# the two by different amounts, and the operations sit between them.
_SIZES = ((_arrays(4096), 20, 2, 10), (_arrays(65536), 2, 1, 1))


def _work() -> float:
    acc = 0.0
    for (x, v0, mult, band, ys), steps, splines, solves in _SIZES:
        v = v0.copy()
        for _ in range(steps):                # propagator-like steps
            a = np.abs(v)
            v = v * np.exp(1e-3j * (a ** 4 + a ** 1.8))
            v = idct(dct(v, type=4, norm="ortho") * mult, type=4,
                     norm="ortho")
        for _ in range(splines):              # spline resamples
            acc += float(np.abs(CubicSpline(x, v)(ys)).sum())
        for _ in range(solves):               # banded solves
            acc += float(solve_banded((1, 1), band, v.real).sum())
    return acc


def kernel_seconds() -> float:
    """Median time of 3 runs of the kernel (about 40 ms each)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Meter:
    """Wall and scaled time of operations, sampled every INTERVAL_S.

    ``timed(op)`` measures one operation; ``poll()``, called from inside
    an operation, samples the kernel when INTERVAL_S has passed.  Kernel
    time is never counted in an operation.  ``close()`` takes the last
    sample; every ``op.scaled`` is final after it.
    """

    INTERVAL_S = 1.0

    def __init__(self) -> None:
        self.kernel = kernel_seconds()
        self.since = time.perf_counter()    # end of the last sample
        self.current = None                 # (op, start) while one runs
        self.open = []                      # (op, wall) since the sample

    def _credit(self, now: float) -> None:
        op, start = self.current
        wall = now - max(start, self.since)
        op.seconds += wall
        self.open.append((op, wall))

    def _sample(self) -> None:
        after = kernel_seconds()
        factor = REFERENCE_S / (0.5 * (self.kernel + after))
        for op, wall in self.open:
            op.scaled += wall * factor
        self.open.clear()
        self.kernel, self.since = after, time.perf_counter()

    def _due(self) -> bool:
        return time.perf_counter() - self.since >= self.INTERVAL_S

    def poll(self) -> None:
        if self.current is not None and self._due():
            self._credit(time.perf_counter())
            self._sample()

    @contextmanager
    def timed(self, op):
        self.current = (op, time.perf_counter())
        try:
            yield
        finally:
            self._credit(time.perf_counter())
            self.current = None
            if self._due():
                self._sample()

    def close(self) -> None:
        if self.open:
            self._sample()
