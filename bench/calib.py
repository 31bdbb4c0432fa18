"""Machine-speed calibration shared by the benchmark's processes.

The benchmark runs on machines whose CPU speed swings by up to 2x within
seconds (cores shared with other tenants), which no amount of repetition
inside one run averages away.  So every timed process also times a *slice*:
a fixed bit of pure-Python work of the same kind as the package's (sparse
dict products of big integers) that never touches tvcount.  Slices run
back to back before and after the timed work and, while it runs, one every
``INTERVAL_S`` from a SIGALRM handler.  A timed wall time, less the time
spent in in-flight slices, is scaled by ``REFERENCE_S / mean slice time``:
seconds on a machine where a slice takes ``REFERENCE_S``.  A change to
tvcount moves the timed work, never the slices.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

# a slice's duration on an uncontended core of the reference machine
# (2-core Xeon at 2.0 GHz, Python 3.11), which fixes the scale of every
# normalised time
REFERENCE_S = 180e-6
INTERVAL_S = 0.005
BRACKET = 10

_GRID = {(i, j): 3**40 + i * j for i in range(5) for j in range(5)}


def slice_time() -> float:
    """Seconds this process takes for one calibration slice now."""
    t0 = time.perf_counter()
    out: dict = {}
    for (i, j), c in _GRID.items():
        for (k, l), d in _GRID.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + c * d
    return time.perf_counter() - t0


class Speed:
    """Slice times sampled around and during a piece of timed work."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.inflight = 0.0  # seconds spent in slices inside ``sampling()``

    def bracket(self) -> None:
        self.samples.extend(slice_time() for _ in range(BRACKET))

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(slice_time())
        self.inflight += time.perf_counter() - t0

    @contextmanager
    def sampling(self):
        """Run one slice every INTERVAL_S of wall time until the block ends."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self) -> float:
        """Factor that turns this process's seconds into reference seconds."""
        return REFERENCE_S * len(self.samples) / sum(self.samples)
