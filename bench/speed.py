"""Timings corrected for the speed of a shared machine.

On a shared virtual machine the speed of one core changes by up to 2x
within seconds, and the thread's CPU time changes with it.  `Ticker` runs a
fixed pure-Python loop (`probe`) every TICK_SECONDS of the process's CPU
time, from a SIGVTALRM handler, and keeps the time each probe took.  Every
timed interval is then scaled by REFERENCE_MS over the mean probe time
around it: the time the same work would take on a machine on which one
probe takes REFERENCE_MS.  The probes' own time never counts in a timing:
`Ticker.now` is the thread's CPU time minus the time spent in the handler.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PROBE_ITERATIONS = 1000

# About the median probe time inside the benchmark's runs on the 2-core
# development VM (Intel Xeon, Python 3.11.7): 0.19-0.21 ms.  Corrected
# timings are near the raw ones there.  Changing it rescales every timing.
REFERENCE_MS = 0.2

TICK_SECONDS = 0.01


def probe() -> float:
    """Thread CPU time, in ms, of a fixed loop of dict stores and integer
    arithmetic, the operations the package's own loops are made of."""
    start = time.thread_time()
    total, table = 0, {}
    for i in range(PROBE_ITERATIONS):
        table[i & 255] = total
        total += i * 3 % 7
    return (time.thread_time() - start) * 1000.0


class Ticker:
    """Context manager that probes the machine's speed while active."""

    def __init__(self):
        self.spent = 0.0
        self._busy = False
        self.times: list[float] = []  # now() when each probe was taken
        self.probes_ms: list[float] = []

    def now(self) -> float:
        """The thread's CPU time in seconds, less the time taken by probes."""
        return time.thread_time() - self.spent

    def _tick(self, signum=None, frame=None) -> None:
        if self._busy:  # the timer fired during a probe
            return
        self._busy = True
        start = time.thread_time()
        self.times.append(start - self.spent)
        self.probes_ms.append(probe())
        self.spent += time.thread_time() - start
        self._busy = False

    def __enter__(self) -> "Ticker":
        self._previous = signal.signal(signal.SIGVTALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_VIRTUAL, TICK_SECONDS, TICK_SECONDS)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0, 0)
        self._tick()  # also lets a signal still pending reach the handler
        signal.signal(signal.SIGVTALRM, self._previous)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_MS over the mean time of the probes taken between
        `start` and `end` (now() values) and of the nearest one on each
        side."""
        lo = max(0, bisect.bisect_left(self.times, start) - 1)
        hi = bisect.bisect_right(self.times, end) + 1
        return REFERENCE_MS / statistics.fmean(self.probes_ms[lo:hi])

    def corrected(self, intervals: list[tuple[float, float]]) -> list[float]:
        """The length in seconds of each (start, end) interval, corrected."""
        return [(end - start) * self.factor(start, end) for start, end in intervals]
