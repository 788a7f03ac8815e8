"""Host-speed normalisation for the timed passes.

The benchmark shares a few vCPUs of a host whose throughput swings by up
to 2x within seconds and drifts over minutes (CPU time tracks wall time,
so it is not steal).  Two runs of the same code minutes apart can differ
by 40 % in wall time.  To measure the program and not the host, a fixed
reference kernel that does not touch asymcsit (small complex numpy arrays
plus list sorting, the same mix of work as the evaluator) is timed every
PERIOD_S seconds while a pass runs, from a SIGALRM handler.  Each stretch
of program time between two reference samples is scaled by REF_S over the
mean of the two samples around it:

    normalised_s = sum_k  stretch_k * REF_S / ((ref_{k-1} + ref_k) / 2)

so a normalised second is a wall second on a host where the kernel takes
REF_S.  The time spent in the kernel itself is not part of the pass.  Raw
wall seconds (program time only) are kept next to it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# About the median wall time of reference() on a 2-vCPU "Intel(R) Xeon(R)
# Processor" VM with Python 3.11 and numpy 2.4, so that normalised seconds
# read close to wall seconds there; it only sets the scale.
REF_S = 0.0145
PERIOD_S = 0.25

_ITEMS = [((i * 7919) % 1009, i) for i in range(400)]


def reference() -> float:
    """Run the fixed reference kernel once; return its wall seconds."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    for _ in range(36):
        h = rng.standard_normal((1000, 2, 2)) + 1j * rng.standard_normal((1000, 2, 2))
        det = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]
        np.mean(np.log2(1.0 + np.abs(det) ** 2))
        items = list(_ITEMS)
        for _ in range(4):
            items.sort()
            items.reverse()
    return time.perf_counter() - t0


class Meter:
    """Times one stretch of program work with reference samples interleaved.

    Use as a context manager around the timed work; afterwards `wall_s` is
    the program's own wall time and `norm_s` its host-normalised time.
    """

    def __init__(self):
        self.wall_s = 0.0
        self.norm_s = 0.0

    def _sample(self) -> None:
        t_stop = time.perf_counter()
        ref = reference()
        stretch = t_stop - self._t_start
        self.wall_s += stretch
        self.norm_s += stretch * REF_S / ((self._ref + ref) / 2.0)
        self._ref = ref
        self._t_start = time.perf_counter()

    def _on_alarm(self, _signum, _frame) -> None:
        self._sample()
        # one-shot timer, re-armed after the sample: handlers never nest
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def __enter__(self) -> "Meter":
        reference()  # the first call after a pause runs cold
        self._ref = reference()
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        self._t_start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()
