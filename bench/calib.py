"""Host-speed calibration, sampled inside the timed passes.

The benchmark runs on a shared virtual machine whose speed drifts by tens
of percent, both within one pass and between runs minutes apart. A kernel
timed before or after a pass, or in a second process on the other core,
tracks that drift poorly. So an interval timer interrupts the workload at
a fixed period and runs a small fixed kernel in the same process, on the
same core, at that moment. The mean kernel time over a pass is the host's
speed during that pass, and

    wall_calib = (pass wall time - kernel time inside it) / mean kernel time

is the pass's cost in kernel units. A change to the program moves it; a
change in host speed moves the numerator and the denominator together.

The kernel is the benchmark's own code on fixed inputs; no casidec code
runs in it. Each workload names the kernel whose speed tracked its own
best on a shared 2-core virtual machine. "interp" is the grid solver's
cubic map_coordinates backtrace on a 256 x 256 array. "mixed" is numpy
exp and cos over that array followed by an interpreter loop that fills a
dict with formatted strings, in about equal time: the analytic sweep is
partly numpy quadrature and partly interpreter work on configs and
summaries, and either half alone tracked it worse.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from scipy.ndimage import map_coordinates

# kernel kind -> seconds between kernels; either costs about 4% of a pass
PERIOD_S = {"interp": 0.25, "mixed": 0.06}


class Sampler:
    """Runs the kernel on SIGALRM while `active` is set and keeps its times."""

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        self._w = rng.standard_normal((256, 256))
        axis = np.arange(256.0)
        self._coords = np.meshgrid(0.99 * axis + 0.7, 1.01 * axis - 0.4, indexing="ij")
        self._period = PERIOD_S[kind]
        self._work = {"interp": self._interp, "mixed": self._mixed}[kind]
        self.active = False
        self.samples: list[float] = []
        self._busy = False
        self.kernel()   # first call loads and warms everything it touches
        self.samples.clear()

    def _interp(self):
        map_coordinates(self._w, self._coords, order=3, mode="constant", cval=0.0)

    def _mixed(self):
        np.exp(-0.5 * self._w * self._w) + np.cos(self._w)
        table = {}
        for i in range(1500):
            table[i % 7] = str(i * 0.5)

    def kernel(self):
        t0 = time.perf_counter()
        self._work()
        self.samples.append(time.perf_counter() - t0)

    def _on_alarm(self, _signum, _frame):
        # a handler can be re-entered at the next bytecode; one kernel at a time
        if self.active and not self._busy:
            self._busy = True
            try:
                self.kernel()
            finally:
                self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self._period, self._period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.active = False
        return False

    def take(self) -> list[float]:
        """The kernel times since the last take()."""
        samples, self.samples = self.samples, []
        return samples


def calibrated(wall: float, inside: list[float], kernel_s: float) -> float:
    """A pass's wall time, less the kernels run inside it, in units of the
    pass's mean kernel time."""
    return (wall - sum(inside)) / kernel_s
