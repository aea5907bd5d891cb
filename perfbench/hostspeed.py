"""Host-speed calibration of the end-to-end timings.

On a shared machine the host can switch, for seconds at a time, between a
fast state and one in which the same Python code runs about 1.9x slower.
Process CPU time slows with wall time and almost no steal time is reported,
so the cause is another load on the same physical core, not scheduling.  On
a 2-vCPU cloud VM (Python 3.11) raw seconds then spread by 15-40% from one
40 s run to the next, while the calibrated seconds below spread by about 3%.

A fixed reference kernel (built-ins only) runs from an interval timer every
PERIOD_S seconds of the measuring process.  Each sample gives the host's
speed at that moment as REFERENCE_S / (the kernel's seconds).  A timed
interval, with the samples' own time taken out, is multiplied by the mean
speed of the samples taken during it and of the last sample before and the
first after it.  The result reads as seconds on a host where the kernel
takes REFERENCE_S.  This assumes the timed code slows with the host as the
kernel does, which holds for sclkit's pure-Python arithmetic; native code
may slow less, and its calibrated times would then read low in slow states.
"""

import bisect
import signal
import time
from contextlib import contextmanager

REFERENCE_S = 0.004
PERIOD_S = 0.1


def reference_work():
    """A fixed load of integer elimination and dict updates.  It imports
    nothing, and neither does this module beyond a few small ones, so a
    sample before ``setup_s`` starts pre-loads nothing that sclkit needs."""
    n = 12
    m = [[(i * 7 + j * 3) % 11 - 5 for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            continue
        m[k], m[piv] = m[piv], m[k]
        for i in range(k + 1, n):
            m[i] = [(m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev for j in range(n)]
        prev = m[k][k]
    counts = {}
    for i in range(12000):
        key = (i % 37, i % 11)
        counts[key] = counts.get(key, 0) + 1
    return m, counts


class HostSpeed:
    """Speed samples of one process, and calibration of its intervals."""

    def __init__(self):
        self.times = []  # start of each sample
        self.speeds = []  # REFERENCE_S / the sample's seconds
        self.spent = 0.0  # seconds spent sampling

    def sample(self):
        t0 = time.perf_counter()
        reference_work()
        dt = time.perf_counter() - t0
        self.times.append(t0)
        self.speeds.append(REFERENCE_S / dt)
        self.spent += dt

    @contextmanager
    def sampling(self):
        """Sample every PERIOD_S seconds while inside."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            self.sample()
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    @contextmanager
    def interval(self, record):
        """Append ``(start, end, seconds without sampling)`` to ``record``."""
        t0, spent0 = time.perf_counter(), self.spent
        try:
            yield
        finally:
            t1 = time.perf_counter()
            record.append((t0, t1, t1 - t0 - (self.spent - spent0)))

    def calibrated(self, start, end, seconds):
        """``seconds`` measured between ``start`` and ``end``, in reference seconds."""
        lo = max(bisect.bisect_left(self.times, start) - 1, 0)
        hi = bisect.bisect_right(self.times, end) + 1
        speeds = self.speeds[lo:hi]
        return seconds * sum(speeds) / len(speeds)
