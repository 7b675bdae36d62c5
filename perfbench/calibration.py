"""Host-time calibration against a fixed reference kernel.

The machines this benchmark runs on share their cores with other
tenants. On the reference machine the same Python loop runs in one of
two speeds that alternate every few hundred milliseconds, about 1.7x
apart. So a fixed reference kernel is timed before every tick of the
measured loop, and each tick's time (a "chunk") is divided by the
median of the four kernel times around it (two before, two after),
which follows a speed change within a few milliseconds while ignoring
a single outlying kernel sample. Multiplying by
:data:`NOMINAL_KERNEL_S` keeps the unit in seconds: a calibrated
second is the time the loop would take on a machine where the kernel
takes :data:`NOMINAL_KERNEL_S`.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from typing import List

import numpy as np

#: The kernel's median time on the reference machine (a 2-vCPU Intel
#: Xeon VM, Python 3.11, NumPy 2.4, one BLAS thread) in its slower
#: speed. Fixed once: a change to it rescales every host-time metric.
NOMINAL_KERNEL_S = 3.5e-4

_SAMPLES = deque(((i * 0.6180339887) % 1.0 for i in range(400)), maxlen=400)
_POINTS = np.linspace(0.0, 1.0, 48).reshape(24, 2)


class _Bins:
    """Fixed-width bin counts, filled one value at a time."""

    __slots__ = ("low", "width", "counts")

    def __init__(self, low: float, width: float, bins: int) -> None:
        self.low = low
        self.width = width
        self.counts = [0.0] * bins

    def add(self, value: float) -> None:
        index = min(int((value - self.low) / self.width), len(self.counts) - 1)
        self.counts[index] += 1.0


def reference_kernel() -> float:
    """A fixed mix of Python bytecode and small NumPy calls.

    Shaped like the controller's hot paths, not calling them: bin a
    400-sample window one value at a time through a small object (as
    the trajectory histograms do), scan it for non-finite values
    through a generator (as the model watchdog does), then nearest-
    point queries on a few dozen 2-D points with small arrays (as
    mapping and voting do). Its cost must not depend on the program,
    so that a faster program shows as faster.
    """
    bins = _Bins(0.0, 1.0 / 20, 20)
    for value in _SAMPLES:
        bins.add(value)
    acc = float(all(math.isfinite(value) for value in _SAMPLES))
    for j in range(10):
        point = np.array([j * 0.1, 0.5])
        distances = np.sqrt(((_POINTS - point) ** 2).sum(axis=1))
        acc += float(distances[int(np.argmin(distances))])
        acc += float(np.linalg.norm(point))
    return acc + float(np.cumsum(np.asarray(bins.counts) / len(_SAMPLES))[-1])


@dataclass
class CalibratedClock:
    """Host time of a chunked loop, each chunk scaled by the kernel.

    Call :meth:`kernel` before every chunk, :meth:`add_work` with each
    timed region's seconds, and append raw per-period seconds to
    :attr:`raw_periods` as they happen. :meth:`close` (once, at the
    end) samples the kernel a last time and computes the totals.
    """

    raw_periods: List[float] = field(default_factory=list)
    kernel_samples: List[float] = field(default_factory=list)
    raw_s: float = 0.0
    calibrated_s: float = 0.0
    #: perf_counter when the loop ended (the last kernel sample).
    end: float = 0.0
    calibrated_periods: List[float] = field(default_factory=list)
    #: perf_counter when each chunk started, and the chunk's factor.
    _starts: List[float] = field(default_factory=list)
    _factors: List[float] = field(default_factory=list)
    _work: List[float] = field(default_factory=list)
    _first_period: List[int] = field(default_factory=list)

    def kernel(self) -> None:
        """Time one reference-kernel run; a new chunk starts after it."""
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.kernel_samples.append(t1 - t0)
        self._starts.append(t1)
        self._work.append(0.0)
        self._first_period.append(len(self.raw_periods))

    def add_work(self, seconds: float) -> None:
        """Add one timed region to the current chunk."""
        self._work[-1] += seconds

    def close(self) -> None:
        """Scale every chunk by the median of its four nearest samples."""
        self.kernel()
        self.end = self._starts[-1]
        samples = self.kernel_samples
        last = len(samples) - 1
        for j in range(last):
            around = samples[max(0, j - 1): min(last, j + 2) + 1]
            self._factors.append(NOMINAL_KERNEL_S / statistics.median(around))
        self.raw_s = sum(self._work)
        self.calibrated_s = sum(w * f for w, f in zip(self._work, self._factors))
        bounds = self._first_period[1:]
        self.calibrated_periods = [
            seconds * self._factors[bisect.bisect_right(bounds, i)]
            for i, seconds in enumerate(self.raw_periods)
        ]

    def factor_at(self, when: float) -> float:
        """Calibration factor of the chunk running at ``when``."""
        index = bisect.bisect_right(self._starts, when) - 1
        return self._factors[min(max(index, 0), len(self._factors) - 1)]

    def kernel_stats(self) -> dict:
        """Median and quartile spread (IQR / median) of every sample."""
        samples = self.kernel_samples
        if len(samples) < 2:
            median = samples[0] if samples else 0.0
            return {"median_s": median, "iqr_share": 0.0, "samples": len(samples)}
        q1, q2, q3 = statistics.quantiles(samples, n=4)
        return {"median_s": q2, "iqr_share": (q3 - q1) / q2, "samples": len(samples)}
