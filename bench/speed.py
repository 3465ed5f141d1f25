"""The machine's speed, sampled between operations, and the timings scaled by it.

The benchmark's host shares its cores with other work, and a fixed
computation runs up to 1.8x slower in one stretch of seconds or minutes
than in another. The program's own speed cannot be told apart from that
drift by timing the program alone. So the run also times a fixed reference
computation, which uses only the standard library and numpy and no code of
the package, between two operations once ``EVERY_S`` seconds have passed
since its last sample. Each operation's latency is then multiplied by
``NOMINAL_S`` over the median reference time in the ``WINDOW_S`` seconds
before and after it: it reads as the latency on the machine at its nominal
speed. The raw latencies are kept in the run's raw output.

The reference mixes the kinds of work the package does: ``Fraction``
arithmetic with growing denominators (the exact layers), a complex and dict
loop in the interpreter (the slice scans and the polynomial code), and small
dense eigendecompositions (the interior-point solver).
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

import numpy as np

NOMINAL_S = 1.2e-3  # the reference's time in a fast stretch of the recorded machine
EVERY_S = 0.05
WINDOW_S = 0.25
SETUP_SAMPLES = 5  # reference samples taken right after a set-up, after one warm-up

_MATRIX = np.random.default_rng(0).standard_normal((24, 24))
_MATRIX = _MATRIX @ _MATRIX.T


def reference_work():
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i, i + 1) * Fraction(3, 2 * i + 1)
    z, table = 0j, {}
    for i in range(600):
        z = z * (0.5 + 0.25j) + complex(i % 5, 1)
        table[(i, i % 7)] = z
    for _ in range(6):
        np.linalg.eigh(_MATRIX)
    return acc, len(table)


class SpeedProbe:
    """Reference samples of one process: when each started and how long it took."""

    def __init__(self):
        self.starts = []
        self.costs = []

    def sample(self):
        start = time.perf_counter()
        reference_work()
        self.starts.append(start)
        self.costs.append(time.perf_counter() - start)

    def sample_if_due(self):
        if not self.starts or time.perf_counter() - self.starts[-1] >= EVERY_S:
            self.sample()

    def scale(self, start, end):
        """NOMINAL_S over the median reference time around [start, end]."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if lo == hi:  # nothing within the window: the nearest sample before it
            lo = max(lo - 1, 0)
            hi = lo + 1
        return NOMINAL_S / statistics.median(self.costs[lo:hi])

    def scale_now(self):
        """The scale at this moment, from fresh samples."""
        reference_work()
        for _ in range(SETUP_SAMPLES):
            self.sample()
        return NOMINAL_S / statistics.median(self.costs[-SETUP_SAMPLES:])
