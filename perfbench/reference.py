"""Fixed reference kernel that gauges how fast the machine runs right now.

On a shared machine the same code runs up to 60% slower for minutes at a
time.  Each timed operation is bracketed by speed samples taken with this
kernel, and its time is reported at reference speed: scaled to the speed
at which the kernel takes ``REFERENCE_S``.  The kernel mixes the program's
two kinds of work: Python dict, sort and str formatting and parsing, and
numpy gathers scattered over a 16 MB array.
"""

import time

#: Kernel seconds that define the reference speed; roughly its time on an
#: idle 2.1 GHz Xeon vCPU.
REFERENCE_S = 0.02


def kernel_seconds() -> float:
    import numpy as np

    t = time.perf_counter()
    cells = {i: (i * 7919) % 10007 for i in range(15000)}
    text = " ".join(str(cells[i]) for i in sorted(cells, key=cells.__getitem__))
    sum(int(x) for x in text.split())
    big = np.arange(2_000_000, dtype=np.float64)
    big[(np.arange(500_000) * 7919) % big.size].sum()
    return time.perf_counter() - t


def speed_sample() -> float:
    """Median of three kernel runs: one run alone varies by up to 2x."""
    return sorted(kernel_seconds() for _ in range(3))[1]


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at reference speed, given speed samples taken around it."""
    return seconds * REFERENCE_S * 2 / (before + after)
