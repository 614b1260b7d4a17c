"""Machine-speed probe: timing metrics are scaled to a reference speed.

The benchmark runs on shared 2-core VMs whose speed drifts by up to 1.8x
over minutes, which moves every wall time by more than the change a
comparison is meant to detect.  A fixed probe is timed throughout a run,
and ``Meter.factor()`` is its median time over ``REFERENCE_S``.  Reported
times are wall times divided by that factor and rates are multiplied by
it, so they read as figures at the reference speed.  The probe is the
benchmark's own code, so a change to the package cannot move it; the raw
wall figures are printed beside the scaled ones.

The probe is two kernels, interpreter work with small numpy calls and
numpy work on large arrays, and its time is the geometric mean of theirs.
The workloads mix both kinds, and neither kernel alone tracks them: over
seven minutes of drift on the VM, the first moved about 1.4 times as much
as the workloads and the second about 0.75 times as much, while their
geometric mean moved within 15% of them.
"""

import math
import statistics
import time

import numpy as np

#: A typical probe time on the 2-core Xeon VM the benchmark was written on
#: (medians of ten-run sets there ran from 1.6 to 2.5 ms).
REFERENCE_S = 0.0025
#: During the op phase, probe again once this long has passed.
EVERY_S = 0.5
#: Probes per sampling point.
REPS = 3
#: Sampling points taken right after each set-up, in the set-up's process.
SETUP_POINTS = 5


_ARRAY = np.linspace(0.0, 1.0, 20000) ** 3


def _interpreter_kernel() -> float:
    x = np.linspace(0.1, 3.0, 64)
    acc = 0.0
    seen = {}
    for i in range(400):
        acc += float(np.exp(-x * (1 + i % 7)).sum())
        seen[i % 13] = acc
        acc += sum(j * 0.5 for j in range(40))
    return acc


def _array_kernel() -> float:
    acc = 0.0
    for k in range(6):
        y = np.exp(-_ARRAY * (k + 1))
        acc += float(np.sort(y)[100]) + float(np.cumsum(y)[-1])
    return acc


def _timed(kernel) -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Meter:
    """Probe samples of one phase; ``spent`` is the time the probes took."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.last = -float("inf")

    def maybe_probe(self) -> None:
        """Probe if ``EVERY_S`` has passed since the last probe."""
        if time.perf_counter() - self.last >= EVERY_S:
            self.probe()

    def probe(self) -> None:
        """Time the probe ``REPS`` times."""
        start = time.perf_counter()
        for _ in range(REPS):
            self.samples.append(math.sqrt(_timed(_interpreter_kernel) * _timed(_array_kernel)))
        self.last = time.perf_counter()
        self.spent += self.last - start

    def factor(self) -> float:
        """Above 1 when the machine ran slower than the reference."""
        return statistics.median(self.samples) / REFERENCE_S
