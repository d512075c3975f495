"""A fixed reference kernel that measures the host's current speed.

The host's speed drifts by tens of percent over seconds to minutes, and
it drifts for this kernel and for the package alike. Each operation's
time is divided by the kernel's time measured just before it, which
cancels most of the drift. The kernel has two parts, because the
package spends its time in two kinds of code that contention slows
differently: interpreted Python (the DP, JSON parsing) and numpy
passes over sample columns (the entropy kernel).
"""

import statistics
import time

import numpy as np

LOOP = 100_000
COLUMNS = np.random.default_rng(0).integers(0, 2, size=(20_000, 16))


def _python_part():
    total = 0
    for i in range(LOOP):
        total += i
    return total


def _numpy_part():
    for j in range(8):
        cells = np.ravel_multi_index(
            [COLUMNS[:, j], COLUMNS[:, j + 1], COLUMNS[:, j + 2]], (2, 2, 2))
        np.bincount(cells, minlength=8)


def seconds():
    """Median of three timings of each part, summed (about 6 ms)."""
    total = 0.0
    for part in (_python_part, _numpy_part):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            part()
            times.append(time.perf_counter() - t0)
        total += statistics.median(times)
    return total
