"""The machine's speed, sampled while a workload runs.

The 2-vCPU guests this benchmark was tuned on change speed by up to 1.5x
for spans of seconds to many minutes: a fixed piece of work takes that much
longer in CPU time, not only in wall time, so the slow state is a slower CPU
and not time taken from the process.  Such a state can outlast a whole run,
and no statistic over the run's own timings removes it.

``SpeedMonitor`` runs a short fixed probe every ``INTERVAL_S`` seconds from a
``SIGALRM`` handler, so probes are spread evenly in wall time and sample the
machine inside long operations too.  The probe's code is like ringlab's
inner loops: small numpy calls on index arrays and pure-Python integer and
dict work.  ``scaled`` turns a stretch of wall time into reference-speed
seconds: the time divided by the probes' slowness, the ratio of their time
to ``REFERENCE_PROBE_S``.  Probe time is kept out of the timings it
interrupts.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

#: the probe's median time, between a workload's operations, on the
#: machine the benchmark was tuned on (2-vCPU Intel Xeon KVM guest, Python
#: 3.11, numpy 2.4); a scaled time is the time the same work takes when the
#: probe takes this long
REFERENCE_PROBE_S = 0.0022
#: seconds between probes: a probe takes about 2 ms, so they cost 2-3%
INTERVAL_S = 0.1
#: probes on each side of a moment that estimate the speed at it
WINDOW = 3

_INDEX = np.arange(256, dtype=np.int64)


def probe_work() -> int:
    acc = 0
    for i in range(1, 150):
        v = (_INDEX * i + 7) % 61
        acc += int(np.count_nonzero(v == 3))
        seen = {}
        for j in range(40):
            seen[j * i % 17] = j
        acc += sum(seen.values())
    return acc


def probe() -> float:
    t = time.perf_counter()
    probe_work()
    return time.perf_counter() - t


def slowness_now(count: int = 15) -> float:
    """The slowness of the machine now: the median of ``count`` probes
    after three that warm the probe's code and data."""
    for _ in range(3):
        probe()
    return statistics.median(probe() for _ in range(count)) / REFERENCE_PROBE_S


class SpeedMonitor:
    """Samples the probe every ``INTERVAL_S`` seconds while entered.

    ``clock()`` is ``perf_counter`` less the time spent in probes, so a
    duration taken with it leaves the probes out."""

    def __init__(self) -> None:
        self.times: list[float] = []  # monitor clock at each probe
        self.slowness: list[float] = []
        self.probe_s = 0.0
        self._smooth: list[float] = []
        self._busy = False

    def clock(self) -> float:
        return time.perf_counter() - self.probe_s

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a probe stalled past the next tick: skip that tick
            return
        self._busy = True
        t = time.perf_counter()
        work = probe()
        self.times.append(t - self.probe_s)
        self.slowness.append(work / REFERENCE_PROBE_S)
        self.probe_s += time.perf_counter() - t
        self._busy = False

    def __enter__(self):
        for _ in range(3):  # warm the probe's code and data
            probe()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _smoothed(self) -> list[float]:
        """Each probe's slowness as the median of it and the ``WINDOW``
        probes on either side, so that one disturbed probe moves nothing."""
        if len(self._smooth) != len(self.slowness):
            s = self.slowness or [1.0]
            self._smooth = [
                statistics.median(s[max(k - WINDOW, 0):k + WINDOW + 1]) for k in range(len(s))
            ]
        return self._smooth

    def scaled(self, start: float, end: float) -> float:
        """Reference-speed seconds of the stretch ``[start, end]`` of the
        monitor clock: each piece between two probes divided by the
        slowness of the probe that ends it."""
        smooth = self._smoothed()
        last = len(smooth) - 1
        k = bisect.bisect_right(self.times, start)
        total, t = 0.0, start
        while t < end:
            stop = min(self.times[k], end) if k < len(self.times) else end
            total += (stop - t) / smooth[min(k, last)]
            t, k = stop, k + 1
        return total
