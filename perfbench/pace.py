"""Host speed, sampled while the benchmark runs.

The benchmark runs on shared virtual machines whose cores slow down for
seconds to minutes at a time, by up to half, when other tenants are busy.
Process CPU time slows with them, so no clock of this process can tell a
slow host from a slow program.  A fixed reference workload can: ``probe()``
runs the same pure-Python and numpy mix every time, independent of parkroute,
and its duration measures the host's speed at that moment.

``Pacer`` runs the probe on a wall-clock timer while the program runs, so the
samples fall evenly over the measured interval.  A probe takes about 3 ms and
runs every 0.25 s; its time is subtracted from the interval.  The mean of
``REF_PROBE_S / duration`` over the samples is the host's average speed
relative to the reference, and ``ref_seconds`` scales a wall time by it: the
time the same work takes at the reference speed.  A program that does more
work reads slower and one that does less reads faster, whatever the host did
meanwhile.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# Duration of one probe on a quiet host (a 2-vCPU Xeon virtual machine with
# Python 3.11 and numpy 2.4).  Only its constancy matters: it sets the scale of
# every reference time.
REF_PROBE_S = 0.003
INTERVAL_S = 0.25

_ROWS = np.random.default_rng(12345).random((128, 24))
_DIST = np.random.default_rng(54321).random((8, 8))
_COSTS = [float((7 * i) % 11 + 1) for i in range(10)]


def _descend(depth: int, loc: int, g: float, path: list[int]) -> float:
    """Best-two-first search over a complete graph of 8 nodes."""
    if depth == 0:
        return g
    kids = []
    for i in range(8):
        if i != loc:
            c = g + _DIST[loc, i]
            if c < np.inf:
                kids.append((c, i))
    kids.sort(key=lambda t: (t[0], t[1]))
    return min(_descend(depth - 1, i, c, path + [i]) for c, i in kids[:2])


def _probe_work() -> float:
    """A small subset DP over lists, dict traffic with tuple keys, short numpy
    calls and a recursive search that reads numpy scalars: the mix of
    operations the package's solvers spend their time in."""
    n = len(_COSTS)
    best = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        low, j, rest = math.inf, 0, mask
        while rest:
            if rest & 1:
                v = best[mask ^ (1 << j)] + _COSTS[j] * j
                if v < low:
                    low = v
            rest >>= 1
            j += 1
        best[mask] = low
    table: dict[tuple[int, int], float] = {}
    for i in range(1000):
        table[(i * 31) % 211, i % 7] = best[i]
    acc = sum(table.get((k, k % 7), 0.0) for k in range(211))
    row = np.zeros(_ROWS.shape[1])
    for r in _ROWS:
        row = np.minimum(row + r, 2.0 * r)
    return acc + float(row.sum()) + _descend(8, 0, 0.0, [])


def probe() -> float:
    """Wall time of one run of the reference workload, in seconds."""
    start = time.perf_counter()
    _probe_work()
    return time.perf_counter() - start


def spot_speed() -> float:
    """Host speed relative to the reference, from three probes in a row."""
    return statistics.fmean(REF_PROBE_S / probe() for _ in range(3))


class Pacer:
    """Samples the probe every ``INTERVAL_S`` of wall time while active.

    Use as a context manager around the region to measure; it takes one more
    sample just before the region and one just after.  ``overhead_s`` is the
    time the timer's probes took inside the region, which the caller subtracts
    from the region's wall time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.overhead_s = 0.0
        self._busy = False
        self._previous = None

    def _sample(self, *_):
        if self._busy:  # a probe that outlasts the interval is not interrupted
            return
        self._busy = True
        start = time.perf_counter()
        try:
            self.samples.append(probe())
        finally:
            self.overhead_s += time.perf_counter() - start
            self._busy = False

    def __enter__(self) -> "Pacer":
        self.samples.append(probe())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe())

    def speed(self) -> float:
        """Mean host speed over the samples, relative to the reference."""
        return statistics.fmean(REF_PROBE_S / s for s in self.samples)


def ref_seconds(wall: float, pacer: Pacer) -> float:
    """``wall`` less the probes' own time, at the reference speed."""
    return (wall - pacer.overhead_s) * pacer.speed()
