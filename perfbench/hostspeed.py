"""The host's speed through a run, sampled by a timer signal.

On a shared host, co-tenant load slows this process by up to a half, for
stretches from milliseconds to minutes, with CPU time rising as wall time
does (no steal is reported) and no hardware counters to read instead.  A
timing of the program then follows the host's load as much as the program.

While a ``HostSpeed`` runs, a SIGALRM every INTERVAL_S runs
``reference_work``, a short fixed loop of the kind the search kernels do,
and records how long it took.  ``scale(start, end)`` is NOMINAL_S over the
median of the samples from PAD_S before ``start`` to PAD_S after ``end``.
A time multiplied by it is that time at a fixed reference speed: a slower
host stretches the time and the samples alike, a slower program only the
time.  The loop is the benchmark's own code, so no change to the program
moves it.
"""
from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.02
PAD_S = 0.05
# reference_work's time on an undisturbed core of the machine the benchmark
# was written on (2 vCPUs of an Intel Xeon); it sets only the scale, which
# keeps the reported times close to seconds measured there
NOMINAL_S = 2e-4


def reference_work(n: int = 1000) -> int:
    """List indexing, integer arithmetic and branches, about 0.2 ms."""
    h = [1] * 16
    total = 0
    for i in range(n):
        j = i % 15 + 1
        if h[j] <= h[j - 1] + 2:
            h[j] += 1
        else:
            h[j] = 1
        total += h[j] * j
    return total


class HostSpeed:
    """Samples of reference_work taken on a timer; ``spent`` is their total
    time, which the caller takes out of the timings that enclose them."""

    def __init__(self):
        self.times: list[float] = []  # perf_counter() at each sample's start
        self.seconds: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        a = perf_counter()
        reference_work()
        b = perf_counter()
        self.times.append(a)
        self.seconds.append(b - a)
        self.spent += b - a

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the median sample around [start, end]; with no
        sample there, the nearest ones on either side; 1 if none was taken."""
        if not self.times:
            return 1.0
        lo = bisect.bisect_left(self.times, start - PAD_S)
        hi = bisect.bisect_right(self.times, end + PAD_S)
        if lo == hi:
            lo, hi = max(lo - 1, 0), hi + 1
        return NOMINAL_S / statistics.median(self.seconds[lo:hi])
