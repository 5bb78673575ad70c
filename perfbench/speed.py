"""Calibrated timing on a host whose speed drifts.

On a shared 2-core host the same pure-Python work runs up to 2x slower from
one second to the next, with CPU time tracking wall time (other tenants share
the cores), and the slowdown stays correlated for about half a second. No
number of passes averages that out within one run. So while a timed region
runs, SIGALRM interrupts it every INTERVAL_S and a tiny fixed probe measures
the current speed; a block of probes also runs just before and after. The
probes' time is subtracted from the region, and the region's time is scaled by
NOMINAL_S over the mean probe duration: the seconds the region takes on a
host where one probe takes NOMINAL_S.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

INTERVAL_S = 0.02
NOMINAL_S = 0.0003
BLOCK = 10

_N = 400
_ADJ = tuple(((i + 1) % _N, (i - 1) % _N, (i * 7 + 3) % _N, (i * 13 + 5) % _N)
             for i in range(_N))
_SEEN = bytearray(_N)
_QUEUE = [0] * _N
_ZERO = bytes(_N)


def _probe() -> None:
    # Breadth-first searches over a fixed graph; allocates no containers.
    seen = _SEEN
    queue = _QUEUE
    adj = _ADJ
    for _ in range(3):
        seen[:] = _ZERO
        seen[0] = 1
        head, tail = 0, 1
        while head < tail:
            u = queue[head]
            head += 1
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = 1
                    queue[tail] = w
                    tail += 1


class SpeedMeter:
    """Probe samples (start, duration) taken around and during timed regions.

    With ``during=False`` only the blocks before and after run, so that no
    probe lands inside a traced span.
    """

    def __init__(self, during: bool = True):
        self.during = during
        self.samples: list[tuple[float, float]] = []

    def _sample(self, *_) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        _probe()
        self.samples.append((start, perf_counter() - start))
        if enabled:
            gc.enable()

    def __enter__(self) -> "SpeedMeter":
        self.samples.clear()
        for _ in range(BLOCK):
            self._sample()
        if self.during:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(BLOCK):
            self._sample()

    def region(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall seconds, calibrated seconds) of [t0, t1], probes taken out."""
        paused = sum(d for s, d in self.samples if t0 <= s < t1)
        wall = t1 - t0 - paused
        mean = sum(d for _, d in self.samples) / len(self.samples)
        return wall, wall * NOMINAL_S / mean
