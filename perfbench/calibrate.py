"""A fixed reference kernel that measures how fast the host runs right now.

The shared host this benchmark runs on changes speed by up to 1.7x within
seconds, for all code alike, so raw wall seconds of two runs of the
same code can differ by more than any useful regression bound. So a timer
runs a short fixed pure-Python kernel every PERIOD_S seconds, also in the
middle of an op, and each op's wall time, less the kernel's own time, is
rescaled by the kernel's time around it:

    op seconds at reference speed = op net wall seconds * NOMINAL_S / kernel seconds

where kernel seconds is the mean of the kernel runs during the op and the
one just before and just after it. The speed swings within a second, so
the nearest runs track it best: the mean over the op's own span follows
a long op, and two neighbours bracket a short one. A change to salemlat
moves the rescaled times as it moves wall times; a change of host speed
moves the kernel as well and largely cancels out.

The kernel mixes what salemlat spends its time on: Fraction elimination,
small-integer matrix loops and a product of 22 x 22 matrices of ~380-bit
integers, the shape of the K3 extension stage. It uses only
perfbench/inputs.py, never salemlat, and runs with the garbage collector
paused, so what the library keeps alive in the process cannot slow it.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

from inputs import (LATTICES, _fraction_inverse, _mat_mul, charpoly,
                    e8_minus_one, reflection, root_vectors)

# Kernel seconds on the host the benchmark was defined on (2 vCPUs, Python
# 3.11) at a typical moment; it only fixes the scale of the reported seconds.
NOMINAL_S = 0.02

# Unrecorded kernel runs first: a fresh interpreter runs them slowly.
WARMUP = 3

# Seconds between kernel runs of the timer, about ten times the kernel's.
PERIOD_S = 0.2

_E8 = [[-x for x in row] for row in e8_minus_one()]
_ROWS = LATTICES[8]
_ROOTS = root_vectors(_ROWS)
_ISOMETRY = [[int(i == j) for j in range(len(_ROWS))] for i in range(len(_ROWS))]
for _k in (3, 17, 40, 61, 5):
    _ISOMETRY = _mat_mul(_ISOMETRY, reflection(_ROWS, _ROOTS[_k % len(_ROOTS)]))
_rng = random.Random(22)
_BIG = [[_rng.getrandbits(380) for _ in range(22)] for _ in range(22)]


def _kernel() -> None:
    for _ in range(2):
        _fraction_inverse(_E8)
        charpoly(_ISOMETRY)
        charpoly(_ISOMETRY)
    _mat_mul(_BIG, _BIG)


def ref_sample() -> tuple[float, float]:
    """(start, seconds) of one kernel run, perf_counter clock."""
    paused = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _kernel()
        return start, perf_counter() - start
    finally:
        if paused:
            gc.enable()


class RefTimer:
    """Kernel runs from a SIGALRM timer while the loop is timed.

    net() is a clock that stops while the kernel runs, for timing ops."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        sample = ref_sample()
        self.samples.append(sample)
        self.spent += perf_counter() - sample[0]

    def net(self) -> float:
        return perf_counter() - self.spent

    def __enter__(self) -> "RefTimer":
        for _ in range(WARMUP):
            ref_sample()
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)


def rescale(events: list[tuple[float, float, float]],
            samples: list[tuple[float, float]], around: int = 1) -> list[float]:
    """Each (start, end, seconds) event at reference speed, by the mean of
    the kernel samples that start within [start, end] and the `around`
    samples on either side of that span."""
    samples = sorted(samples)
    starts = [s for s, _ in samples]
    out = []
    for start, end, seconds in events:
        lo = max(bisect_left(starts, start) - around, 0)
        hi = min(bisect_right(starts, end) + around, len(samples))
        ref = statistics.fmean(s for _, s in samples[lo:hi])
        out.append(seconds * NOMINAL_S / ref)
    return out
