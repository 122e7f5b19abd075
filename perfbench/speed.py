"""Wall time rescaled to a reference processor speed.

The shared 2-vCPU virtual machines this benchmark was measured on change
speed by up to 1.7x within seconds to minutes, independently per vCPU (most
likely another tenant's load on the same physical core).  A fixed-work run therefore reads 14 s or 22 s
depending on when it runs.  `Sampler` times a short fixed calibration loop
every `PERIOD_S` seconds, from a SIGALRM handler in the measured thread, so
each sample sees the vCPU the run is on at that moment.  Each stretch of
program time between two samples is scaled by REF_S / (local calibration
time), which gives the time the run would take at the reference speed.  The
calibration time itself is left out of both the raw and the scaled time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

ITERS = 10_000  # interpreter steps of the calibration loop
NP_CALLS = 125  # tiny numpy calls of the calibration loop
PERIOD_S = 0.2
WINDOW = 2  # samples on each side whose median sets the local speed
# calibration loop time on an uncontended vCPU of the reference host
REF_S = 0.00118


_MAT = np.arange(6.0).reshape(2, 3)
_VEC = np.array([0.2, 0.3, 0.5])


def calibrate() -> float:
    """Seconds taken by the fixed calibration loop.

    The loop mixes the package's two kinds of work, interpreter steps and
    numpy calls on tiny arrays.  Its slowdown under contention tracked the
    workloads' better than either kind alone did.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(ITERS):
        acc = (acc + i * i) % 1_000_003
    for _ in range(NP_CALLS):
        acc += float(_MAT @ _VEC @ np.ones(2))
    return time.perf_counter() - t0


def scale(samples: int = 9) -> float:
    """REF_S over the median calibration time now: the factor that turns
    seconds at the current speed into seconds at the reference speed."""
    return REF_S / statistics.median(calibrate() for _ in range(samples))


class Sampler:
    """Context manager around a timed stretch of code; see the module text."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, *_):
        self.starts.append(time.perf_counter())
        self.durations.append(calibrate())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def seconds(self) -> tuple[float, float]:
        """(raw, scaled) seconds of program time between the first and last sample."""
        raw = scaled = 0.0
        for i in range(1, len(self.starts)):
            work = self.starts[i] - (self.starts[i - 1] + self.durations[i - 1])
            local = statistics.median(self.durations[max(0, i - 1 - WINDOW): i + WINDOW])
            raw += work
            scaled += work * REF_S / local
        return raw, scaled
