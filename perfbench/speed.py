"""Interpreter-speed sampler: scales wall times to a reference machine speed.

On a shared host the speed of one CPU drifts by up to 2x within a minute
(other tenants), which would swamp any change to demostab.  A SIGALRM
handler therefore runs a fixed 1.5 ms kernel every SAMPLE_PERIOD_S of
wall time, in the measured process itself, and records how long it took.
``scaled(a, b)`` returns the wall time of [a, b] minus the samples taken
inside it, multiplied by REF_KERNEL_S / (mean kernel time around [a, b]):
the seconds the interval would take at the reference speed.  The kernel uses
nothing of demostab, so changes to demostab leave it alone.

All times are CLOCK_MONOTONIC, which is shared by every process on the host,
so a parent can pass the moment it spawned this interpreter.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

SAMPLE_PERIOD_S = 0.1
KERNEL_STEPS = 80
# Median kernel time on the 2-core Xeon VM the benchmark was written on.
REF_KERNEL_S = 1.5e-3
MIN_SAMPLES = 8
WINDOW_S = 1.0


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


_A = np.array([[2.0, 1.0, 0.0, 0.0], [1.0, 3.0, 1.0, 0.0], [0.0, 1.0, 4.0, 1.0],
               [0.0, 0.0, 1.0, 5.0]])


def _kernel() -> None:
    # Small matrix-vector products, 4x4 solves and float formatting: the
    # operation mix of demostab's simulators and CSV/JSON writers.  Over 1 s
    # windows its time tracks the host's speed swings on that work to a
    # residual of 5-8 %, against 6-10 % for numpy alone and 9 % for a
    # pure-Python loop, which also swings 25 % more than the work.
    x = np.ones(4)
    rows = []
    for _ in range(KERNEL_STEPS):
        x = x + 1e-3 * (_A @ x)
        y = np.linalg.solve(_A, x)
        rows.append(",".join(repr(float(v)) for v in y))
    "\n".join(rows)


class Sampler:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def sample(self, *_signal_args) -> None:
        start = clock()
        _kernel()
        self.samples.append((start, clock() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        """Stop the timer, then sample back to back so the last interval has neighbours."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        for _ in range(MIN_SAMPLES):
            self.sample()

    def scaled(self, a: float, b: float) -> float:
        inside = sum(d for t, d in self.samples if a <= t < b)
        near = [d for t, d in self.samples if a - WINDOW_S <= t < b + WINDOW_S]
        if len(near) < MIN_SAMPLES:
            mid = 0.5 * (a + b)
            near = [d for _, d in sorted(self.samples, key=lambda s: abs(s[0] - mid))]
            near = near[:MIN_SAMPLES]
        # The mean, not the median: the interval's wall time integrates the
        # slowdown, outliers included.
        return (b - a - inside) * REF_KERNEL_S / statistics.fmean(near)
