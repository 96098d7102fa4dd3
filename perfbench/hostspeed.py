"""Host speed tracking, so that timings do not move with the host's load.

On a shared host the same engine work takes up to twice as long during
slow spells that last from a tenth of a second to several seconds (CPU
time slows with wall time, so process time does not help).  While a run
measures, a timer signal runs a fixed reference kernel every
SAMPLE_EVERY_S, whatever the engine is doing, and each measured interval
is scaled by NOMINAL_KERNEL_S / (mean kernel time of the samples inside
it, or of the two around it when none falls inside).  The time the
samples themselves take is subtracted from the interval.  The kernel is
plain interpreter work on Fractions, tuples and dicts, like the engine's
inner loops, and it lives here so that no engine change can alter it.
Scaled times read as seconds on this host when it is unloaded; the raw
times are reported beside them.
"""

from __future__ import annotations

import bisect
import gc
import signal
from fractions import Fraction
from time import perf_counter

# Least kernel time seen on an unloaded host (2 vCPU, Python 3.11); it
# only sets the unit of the scaled times.
NOMINAL_KERNEL_S = 0.000_2
SAMPLE_EVERY_S = 0.05
KERNEL_REPEATS = 3

_TABLE = {i: (Fraction(i % 13 + 1, i % 7 + 2), i) for i in range(512)}


def _kernel() -> int:
    acc = 0
    for i in range(1, 48):
        a, _ = _TABLE[(i * 37) % 512]
        b, _ = _TABLE[(i * 91) % 512]
        x = a * b - Fraction(1, i + 1)
        if x > 0:
            acc += x.denominator & 7
        acc += len((a, b, x))
    return acc


def kernel_seconds() -> float:
    """Least of KERNEL_REPEATS kernel runs, with the cyclic collector off."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(KERNEL_REPEATS):
            t0 = perf_counter()
            _kernel()
            best = min(best, perf_counter() - t0)
    finally:
        if collecting:
            gc.enable()
    return best


class HostSpeed:
    """Kernel samples taken on a timer, and the scaled length of any interval.

    Use as a context manager around everything to be scaled; `scaled` may
    be called once the sampling has stopped.
    """

    def __init__(self):
        self.at: list[float] = []
        self.kernel_s: list[float] = []
        self._cost: list[float] = []  # wall time each sample took
        self._previous = None

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def _sample(self) -> None:
        t0 = perf_counter()
        k = kernel_seconds()
        t1 = perf_counter()
        self.at.append((t0 + t1) / 2)
        self.kernel_s.append(k)
        self._cost.append(t1 - t0)

    def scaled(self, t0: float, t1: float) -> float:
        """Length of [t0, t1], less the sampling inside it, in unloaded-host seconds."""
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        busy = (t1 - t0) - sum(self._cost[lo:hi])
        if hi > lo:
            kernel = sum(self.kernel_s[lo:hi]) / (hi - lo)
        else:
            kernel = (self.kernel_s[max(lo - 1, 0)] + self.kernel_s[min(hi, len(self.at) - 1)]) / 2
        return busy * NOMINAL_KERNEL_S / kernel

    def slowdown(self) -> float:
        """Median kernel time over the nominal one."""
        return sorted(self.kernel_s)[len(self.kernel_s) // 2] / NOMINAL_KERNEL_S
