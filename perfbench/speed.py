"""Machine-speed reference for normalizing wall times.

The benchmark runs on shared machines whose speed drifts by tens of percent
over seconds to minutes, which moves every wall time with it. A fixed
pure-Python kernel (Fraction arithmetic, tuples and a dict, like framecalc's
own inner loops) is timed between ops. Each op's wall time is then scaled by
NOMINAL_MS over the kernel time measured around it, which reports the op as
it would take on a machine where the kernel takes NOMINAL_MS. Single
samples are noisy, so an op uses the median of the samples within a second
of it. The kernel is benchmark code, so a change to framecalc cannot move
it.
"""
from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# Typical kernel time on the machine the baseline was measured on.
NOMINAL_MS = 2.0
SAMPLE_EVERY_S = 0.1
WINDOW_S = 1.0


def _kernel() -> int:
    table = {}
    for i in range(1, 300):
        q = Fraction(i, i + 1) * Fraction(i + 2, i + 3) - Fraction(1, i % 7 + 1)
        table[(i % 31, i % 7)] = (q.numerator, q.denominator)
    return len(table)


def reference_ms() -> float:
    """Median of five timed kernel runs, in ms."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        _kernel()
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times)


class Sampler:
    """Reference samples taken between ops, at most every SAMPLE_EVERY_S."""

    def __init__(self):
        self.times: list = []
        self.values: list = []

    def maybe_sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.times or now - self.times[-1] >= SAMPLE_EVERY_S:
            self.values.append(reference_ms())
            self.times.append(time.perf_counter())

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_MS over the median of the samples taken from WINDOW_S
        before ``start`` to WINDOW_S after ``end`` (perf_counter times),
        and at least of the two samples around the interval."""
        lo = min(bisect.bisect_left(self.times, start - WINDOW_S),
                 max(bisect.bisect(self.times, start) - 1, 0))
        hi = max(bisect.bisect(self.times, end + WINDOW_S),
                 bisect.bisect(self.times, end) + 1)
        return NOMINAL_MS / statistics.median(self.values[lo:hi])
