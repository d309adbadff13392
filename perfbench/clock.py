"""Calibrated timing: wall time rescaled to a fixed machine speed.

The benchmark was defined on a 2-vCPU virtual machine whose speed
drifts by up to +-40% over tens of seconds while nothing else runs in
it.  Process CPU time tracks wall time there and steal time stays near
zero, so the drift is contention on the host, which no process-level
clock removes.  Identical work timed in 3 s pieces over one minute had
an interquartile range of 15-36% of its median.

``CalibratedTimer.measure`` therefore runs a fixed reference kernel from
a SIGALRM handler every ``PERIOD_S`` seconds while the timed call runs.
Each stretch of work between two samples is divided by the kernel time
measured at its end; the sum, times ``REFERENCE_KERNEL_S``, is the
work's duration in seconds at the reference speed.  The kernel's own
time is excluded.  On 1-3 s pieces of the solver's work this cut the
spread to 4-9%; sampling more often than every 50 ms did not cut it
further.  The kernel is plain Python, so a fresh interpreter can be timed
before it imports numpy, and it allocates nothing the garbage collector
tracks, so it cannot move a collection inside the timed call.

Only the standard library is used.  Signals are delivered to the main
thread, so ``measure`` must be called from it.
"""

import signal
import statistics
import time
from typing import NamedTuple

PERIOD_S = 0.05
KERNEL_LOOPS = 3000
# A middle value of the kernel times measured on the 2-vCPU Xeon virtual
# machine the benchmark was defined on (0.45-0.60 ms), so scaled seconds
# read within about 25% of wall seconds there.
REFERENCE_KERNEL_S = 4.6e-4


class Timing(NamedTuple):
    wall_s: float     # wall time of the call, calibration excluded
    scaled_s: float   # the same work in seconds at the reference speed
    samples: int      # calibration samples taken during the call
    kernel_s: float   # median kernel time in this call (0.0 if none)


def _step(x, i):
    return (x * 0.5 + i) % 1000.0


def kernel(loops=KERNEL_LOOPS):
    """Fixed interpreter-bound work; its duration measures machine speed."""
    x = 0.0
    for i in range(loops):
        x = _step(x, i)
    return x


class CalibratedTimer:
    """Times calls in wall seconds and in reference seconds."""

    def __init__(self, period_s=PERIOD_S, clock=time.perf_counter):
        self.period_s = period_s
        self.clock = clock
        self.busy_s = 0.0   # total time spent in the kernel so far
        self._marks = []    # (kernel start, kernel end) of the open call

    def work_clock(self):
        """A clock that stops while the calibration kernel runs."""
        return self.clock() - self.busy_s

    def _sample(self, signum, frame):
        start = self.clock()
        kernel()
        end = self.clock()
        self._marks.append((start, end))
        self.busy_s += end - start

    def measure(self, fn):
        """Call ``fn()`` and return ``(its value, Timing)``."""
        self._marks = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        start = self.clock()
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            end = self.clock()
            signal.signal(signal.SIGALRM, previous)
        return value, self._timing(start, end)

    def _timing(self, start, end):
        marks = self._marks
        if not marks:   # too short to sample: no speed to correct by
            return Timing(end - start, end - start, 0, 0.0)
        units, last = 0.0, start
        for k_start, k_end in marks:
            units += (k_start - last) / (k_end - k_start)
            last = k_end
        kernel_times = [b - a for a, b in marks]
        units += (end - last) / kernel_times[-1]
        wall = end - start - sum(kernel_times)
        return Timing(wall, units * REFERENCE_KERNEL_S, len(marks),
                      statistics.median(kernel_times))
