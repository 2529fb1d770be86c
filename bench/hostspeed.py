"""Host-speed probe: rescales wall time to a steady reference speed.

On the 2-vCPU VM this benchmark was written on, the vCPUs run in a fast and
a slow state whose speeds differ 1.5-2.2x and which switch every 1-30 s, with
CPU time equal to wall time; a 20 s run can sit wholly in either state. So
the gated times are not wall seconds but calibrated seconds: while a timed
interval runs, a SIGALRM every PERIOD_S runs a short fixed kernel in the
same thread and times it. The interval's calibrated time is its wall time,
less the probes, times the mean of NOMINAL_S / (probe time) over its probes.
A host on which every probe takes NOMINAL_S shows wall seconds; one running
at half that speed shows half its wall time.

The program does not slow down as much as the probe in every workload: per
workload, calibrated time is wall time times speed ** k, where k (the
workload's ``host_sensitivity``) is the share of the probe's slowdown that
its ops feel. k = 1 is plain calibration.

The kernel mixes the program's two kinds of work: numpy arithmetic on tiny
arrays in an interpreted loop (the RK4 simulator) and small matrix-vector
products (the small-H LSTMs). The probes take 2-3% of an interval and are
subtracted from it; they run the same on every commit, so they cancel out of
a comparison, as does NOMINAL_S.

Importing this module imports numpy: pin the BLAS threads first.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.02
# The kernel's time on the reference VM in its fast state; only a scale.
NOMINAL_S = 150e-6
BURST = 20  # probes per burst, for intervals timed from outside this process

_M = np.cos(np.arange(256.0)).reshape(16, 16) * 0.2
_V = np.ones(16)
_E = np.array([1.0, 2.0, 3.0])
_F = np.array([0.2, 0.3, 0.5])


def _kernel() -> float:
    v, a, acc, n = _V, np.zeros(3), 0.0, 0
    for i in range(12):
        v = np.tanh(_M @ v)
        rate = np.exp(-_E / (1.0 + i * 1e-3)) * (1.0 - a) ** 1.5
        a = np.clip(a + 1e-3 * rate, 0.0, 1.0)
        acc = max(acc, float(_F @ (1.0 - a)))
        for j in range(20):
            n += j
    return acc + n + float(v[0])


def probe() -> float:
    """Seconds one run of the kernel takes now, with its code and data warm.

    The untimed first run refills the caches and branch history the program
    evicted, so the timed run depends on the host, not on the program.
    """
    _kernel()
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def speed(samples, k: float = 1.0) -> float:
    """Mean of (NOMINAL_S / probe time) ** k: 1 at the nominal speed.

    The mean of the ratios, not the ratio of the means: the work an
    interval does is its time integral of speed.
    """
    return statistics.fmean((NOMINAL_S / s) ** k for s in samples)


def burst_speed() -> float:
    """The host's speed now, from BURST probes in a row (about 3 ms)."""
    return speed([probe() for _ in range(BURST)])


class Probed:
    """Times a block in wall and calibrated seconds.

    ``with Probed() as p: ...`` then read ``p.wall_s``, ``p.calibrated_s``
    (with exponent ``k``) and ``p.speed``, the block's mean probe speed
    relative to NOMINAL_S.
    One probe runs just before and one just after the block, outside its
    time, so that a block shorter than PERIOD_S still has two.
    """

    def __init__(self, period_s: float = PERIOD_S, k: float = 1.0):
        self.period_s = period_s  # 0: only the two probes outside the block
        self.k = k
        self.samples: list[float] = []
        self.wall_s = self.calibrated_s = self.speed = 0.0

    def _on_alarm(self, signum, frame):
        self.samples.append(probe())

    def __enter__(self):
        self.samples = [probe()]
        if self.period_s:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if self.period_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        wall = time.perf_counter() - self._start
        inside = sum(self.samples[1:])
        self.samples.append(probe())
        self.wall_s = wall
        self.speed = speed(self.samples)
        self.calibrated_s = max(wall - inside, 0.0) * speed(self.samples, self.k)
        return False
