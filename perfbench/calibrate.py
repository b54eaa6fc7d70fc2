"""Speed calibration against fixed reference kernels.

On a shared host the same work can take twice as long from one second to
the next, and interpreted Python slows down more than large numpy
operations do. The benchmark therefore runs a small fixed kernel (no
qcoremap code) between steps of a pass and scales each step's time by the
kernel's nominal time over its measured time. A reported time is the time
the step would take on a host where the kernel takes its nominal time; raw
times and speed factors are kept in the run details.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Kernel:
    run: Callable[[], int]
    nominal_s: float  # on an idle 2-CPU Xeon host


def _interpreter() -> int:
    counts: dict[int, int] = {}
    for i in range(20000):
        key = i % 977
        counts[key] = counts.get(key, 0) + i
    a = np.arange(144.0).reshape(12, 12)
    for _ in range(300):
        a = np.minimum(a, a.T) + 1.0
    return len(counts) + int(a[0, 0])


_STATES = (np.arange(360 * 8).reshape(360, 8) * 7919 % 4).astype(np.int8)


def _array() -> int:
    return int((_STATES[:, None, :] != _STATES[None, :, :]).sum(axis=2)[0, 1])


# Dict and small-array work, like the mappers and the harness.
INTERPRETER = Kernel(_interpreter, 0.004)
# One large broadcast comparison, like the oracle's move-count tensor.
ARRAY = Kernel(_array, 0.008)


class Clock:
    """Times a pass as segments, each followed by one kernel run.

    ``mark()`` closes the current segment. A segment's scale is the kernel's
    nominal time over the median of its own kernel time and its
    neighbours'. Kernel runs are excluded from the pass time.
    """

    def __init__(self, kernel: Kernel = INTERPRETER):
        self.kernel = kernel
        self.segments: list[float] = []
        self.kernels: list[float] = []
        self._start = perf_counter()

    def mark(self) -> int:
        """Close the current segment and return its index."""
        self.segments.append(perf_counter() - self._start)
        started = perf_counter()
        self.kernel.run()
        self.kernels.append(perf_counter() - started)
        self._start = perf_counter()
        return len(self.segments) - 1

    def scale(self, index: int) -> float:
        window = self.kernels[max(0, index - 1): index + 2]
        return self.kernel.nominal_s / statistics.median(window)

    def raw_s(self) -> float:
        return sum(self.segments)

    def scaled_s(self) -> float:
        return sum(seg * self.scale(i) for i, seg in enumerate(self.segments))

    def speed(self) -> float:
        """Median kernel speed relative to nominal (1.0 = nominal host)."""
        return self.kernel.nominal_s / statistics.median(self.kernels)
