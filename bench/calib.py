"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of the CPU given to a process drifts by tens
of percent within minutes, in wall time and in CPU time alike.  The
benchmark therefore runs a fixed calibration kernel around the measured
work and reports each timing at the reference speed:

    normalized = raw * NOMINAL_S / kernel_seconds

where ``kernel_seconds`` is measured next to the work it scales.  The kernel
uses only NumPy and SciPy, never maxflat, so a change to the program cannot
move it; its mix of Python calls, small array operations, a recursive
filter and a small solve resembles the program's own.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.signal import lfilter

#: Kernel seconds at the reference speed (the median on the machine the
#: benchmark was defined on).  Only ratios between runs matter.
NOMINAL_S = 0.0009
#: Kernel repetitions per calibration; their median is used.
REPS = 5

_RNG = np.random.default_rng(20210601)
_X = _RNG.standard_normal(1000)
_B = np.array([0.02, 0.05, 0.02])
_A = np.array([1.0, -1.6, 0.69])
_M = _RNG.standard_normal((9, 9)) + 9.0 * np.eye(9)
_V = _RNG.standard_normal(9)


def _kernel() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(30):
        y = lfilter(_B, _A, _X)
        z = np.convolve(y[:32], _B)
        s = np.linalg.solve(_M + i * 1e-3 * np.eye(9), _V)
        acc += float(z[3] + s[0] + np.max(np.abs(y[100:200])))
    if not np.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite value")
    return time.perf_counter() - t0


def calibrate() -> float:
    """Seconds of one kernel run now: the median of REPS runs."""
    return statistics.median(_kernel() for _ in range(REPS))


class Meter:
    """Times a closed loop of operations at the reference speed.

    The loop is cut into segments of about ``interval`` seconds; the kernel
    runs between segments, outside the timed work.  A segment's time is
    scaled by the mean of the calibrations at its two ends, and so is every
    operation in it.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.cal = [calibrate()]
        self.op_raw: list = []
        self.op_units: list = []
        self.op_seg: list = []
        self.seg_raw: list = []
        self.seg_start = time.perf_counter()

    def op(self, seconds: float, units: float = 1.0) -> None:
        """Record a timed piece of work of ``seconds`` that does ``units``
        reported operations; calibrate when a segment is full."""
        self.op_raw.append(seconds)
        self.op_units.append(units)
        self.op_seg.append(len(self.seg_raw))
        if time.perf_counter() - self.seg_start >= self.interval:
            self.cut()

    def cut(self) -> None:
        """End the current segment with a calibration."""
        self.seg_raw.append(time.perf_counter() - self.seg_start)
        self.cal.append(calibrate())
        self.seg_start = time.perf_counter()

    def _factors(self) -> list:
        return [NOMINAL_S / (0.5 * (a + b))
                for a, b in zip(self.cal, self.cal[1:])]

    def ops(self) -> list:
        """Operation seconds at the reference speed.  Call after cut()."""
        f = self._factors()
        return [t * f[i] for t, i in zip(self.op_raw, self.op_seg)]

    def total(self) -> float:
        """Seconds of timed work at the reference speed."""
        return sum(t * f for t, f in zip(self.seg_raw, self._factors()))


class Discard:
    """A meter that keeps nothing, for untimed rounds."""

    def op(self, seconds: float, units: float = 1.0) -> None:
        pass
