"""Machine-speed probe: wall times scaled to a fixed reference speed.

The benchmark runs on shared cores, where the same pass can take 1x or
1.8x as long a few minutes apart.  The probe times a fixed pure-Python
kernel every INTERVAL_S from a SIGALRM handler, so samples fall inside
every op, long ones included.  An interval's time at reference speed is
its wall time, less the probe's own time within it, times REF_KERNEL_S
over the median kernel time sampled within WINDOW_S of the interval.  A
slower program shows as more reference seconds; a slower machine does not.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

KERNEL_ITERS = 2000
#: Kernel time that defines the reference speed (about this machine's median).
REF_KERNEL_S = 3.0e-4
INTERVAL_S = 0.05
WINDOW_S = 0.5


def kernel() -> float:
    """Wall time of a fixed loop of integer arithmetic and dict stores."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(KERNEL_ITERS):
        acc += (i * i) % 7
        table[i & 63] = acc
    return time.perf_counter() - start


def reference_factor(samples) -> float:
    """Multiplier from wall seconds to reference seconds."""
    return REF_KERNEL_S / statistics.median(samples)


class SpeedProbe:
    """Samples the kernel every INTERVAL_S while active (a context manager)."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        took = kernel()
        self.at.append(start)
        self.took.append(took)

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of the wall interval [start, end]."""
        lo, hi = bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)
        own = sum(self.took[lo:hi])
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        window = self.took[lo:hi] or [kernel()]
        return (end - start - own) * reference_factor(window)
