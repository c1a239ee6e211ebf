"""Host-speed calibration: a fixed kernel sampled while the measured work runs.

The CPU time of the same pure-Python work moves by up to a factor of two
within seconds on a shared host (other tenants on the same physical core
and caches), far more than the changes the benchmark must resolve.  So
every timing is rescaled to a reference speed: a profiling timer
interrupts the measured process every ``PERIOD_S`` of its CPU time, and
the handler times ``kernel``, a fixed piece of pure-Python work of the
same kind as the series code (float arithmetic, ``lgamma``, tuples and a
dictionary).  A timing of the span ``[start, end]`` becomes

    (CPU seconds - kernel seconds inside the span) * REFERENCE_S / k,

where ``k`` is the median kernel time over the samples taken inside the
span (or the ``WINDOW`` nearest ones, for a short span).  The result is
CPU seconds at the speed at which the kernel takes ``REFERENCE_S``.  The
kernel imports nothing from ``betagap``, so a change to the program
cannot move it.

Clock: the thread CPU time of the calling thread.  The measured
processes are single-threaded (BLAS is pinned to one thread), so it
equals their process CPU time; ``time.process_time`` itself turns coarse
(timer ticks) on Linux once a process CPU timer is armed, so it is not
used while sampling.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

#: CPU seconds between two kernel samples.
PERIOD_S = 0.01
#: The reference speed: about the median CPU seconds of one kernel sample
#: taken during a workload on the machine the benchmark was built on (a
#: shared 2-core Intel Xeon).
REFERENCE_S = 1.25e-4
#: Fewest samples a timing is scaled by.
WINDOW = 7

clock = time.thread_time


def kernel() -> float:
    """Fixed pure-Python work, about 0.1 ms."""
    acc = 0.0
    table: dict = {}
    for i in range(200):
        key = (i & 7, i & 3)
        table[key] = table.get(key, 0.0) + math.lgamma(1.0 + i * 0.01)
        acc += table[key] * 1e-3
    return acc


class Sampler:
    """Kernel samples taken from a ``SIGPROF`` handler; one per process."""

    def __init__(self) -> None:
        self.at: list[float] = []  # clock() when each sample started
        self.took: list[float] = []  # its CPU seconds
        self.spent = 0.0  # CPU seconds of all samples so far
        self._busy = False

    def start(self) -> Sampler:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = clock()
        kernel()
        took = clock() - start
        self.at.append(start)
        self.took.append(took)
        self.spent += took
        self._busy = False

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median kernel time around ``[start, end]``."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        if hi - lo < WINDOW:
            lo = max(0, (lo + hi - WINDOW) // 2)
            hi = min(len(self.at), lo + WINDOW)
            lo = max(0, hi - WINDOW)
        if hi <= lo:
            raise RuntimeError("no calibration samples were taken")
        return REFERENCE_S / statistics.median(self.took[lo:hi])

    def mark(self) -> tuple[float, float]:
        """The start of a timed span: ``(clock(), spent)``."""
        return clock(), self.spent

    def measure(self, mark: tuple[float, float]) -> tuple[float, float]:
        """CPU seconds since ``mark`` without the samples: plain, and at reference speed."""
        start, spent = mark
        spent = self.spent - spent
        end = clock()
        net = end - start - spent
        return net, net * self.scale(start, end)
