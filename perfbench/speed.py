"""Machine-speed calibration for the benchmark's timings.

The VM this benchmark was built on drifts in speed by up to about 1.5x over
minutes. The drift shows in wall time and CPU time alike, and the VM exposes
no hardware counters. So every timing is taken together with a fixed unit of
reference work, run right after each trial. A timing is reported at the
reference speed, where one unit takes ``REFERENCE_S``:
``reported = measured / factor``, with ``factor = mean unit time / REFERENCE_S``.
The unit mixes the three kinds of work a trial does: an interpreted Python
loop, many small numpy calls, and FFT plus ``exp`` on a small array. The
program never runs this code, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.002  # one unit at the reference speed; this sets the time scale

_A = np.array([[3.0, 0.5], [0.2, 2.0]])
_B = np.ones(2)
_X = np.exp(1j * np.arange(4096.0)).reshape(256, 16)


def unit() -> float:
    """Wall seconds that one unit of reference work takes now."""
    clock = time.perf_counter
    start = clock()
    acc = 0
    for i in range(6000):
        acc += i * i % 7
    for _ in range(60):
        np.linalg.solve(_A, _B)
        np.linalg.norm(_B)
    for _ in range(2):
        np.fft.fft2(_X)
        np.exp(1j * _X.real)
    return clock() - start


class Speed:
    """Running calibration: unit times taken between timed operations."""

    def __init__(self):
        unit()  # warms numpy's caches
        self.samples: list[float] = []

    def measure(self) -> None:
        self.samples.append(unit())

    @property
    def factor(self) -> float:
        """Mean unit time over ``REFERENCE_S``; above 1 when slower."""
        return sum(self.samples) / len(self.samples) / REFERENCE_S

