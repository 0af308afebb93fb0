"""Machine-speed calibration for the end-to-end times.

On a shared virtual machine the same pass of a workload can take 0.9 s in
one minute and 1.4 s in the next, and within a run the speed switches
between a fast and a slow mode (about 1.6x apart) every few seconds,
because the host's load changes.  A median over such a run lands in
whichever mode held most of it.  So an untraced run also times a fixed
numpy kernel that does not depend on the program, about every INTERVAL_S
at a step boundary, and each step and pass is scaled by REFERENCE_S over
the kernel's median time within MARGIN_S of it.  Scaled, a time reads as
seconds on a machine whose kernel takes REFERENCE_S, whatever mode the
host was in.  The kernel's own time is excluded from every step and pass.

Creating a file on the benchmark's disk also costs from 0.04 to 0.7 ms of
system time, from one second to the next, and a set-up round creates about
830 of them.  No kernel run before or after a round predicts what its own
files cost, so a round's system time is replaced by a fixed REFERENCE_FILE_S
for each file and directory it created (see `Calibration.setup_seconds`).
Result records keep every raw time.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# The median kernel time, and the typical system time per file created in
# set-up, on the 2-core machine the benchmark was defined on (OpenBLAS
# 0.3.31, one thread).
REFERENCE_S = 0.012
REFERENCE_FILE_S = 3.0e-4
INTERVAL_S = 0.1
# Kernel samples within this many seconds of a step or pass calibrate it.
MARGIN_S = 0.25


class Calibration:
    """A kernel shaped like the program's work: a strided-window tensordot,
    as in the convolutions, and a run of calls on small arrays, where
    per-call cost dominates."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._volume = rng.random((4, 16, 18, 18, 18), dtype=np.float32)
        self._weights = rng.random((16, 16, 4, 4, 4), dtype=np.float32)
        self._small = rng.random(32)
        self.times: list[float] = []     # midpoint of each kernel run
        self.samples: list[float] = []   # its duration
        self.spent_s = 0.0
        self._last = -np.inf

    def measure(self) -> None:
        start = time.perf_counter()
        windows = sliding_window_view(self._volume, (4, 4, 4),
                                      axis=(2, 3, 4))[:, :, ::2, ::2, ::2]
        np.tensordot(windows, self._weights, axes=([1, 5, 6, 7], [1, 2, 3, 4]))
        x = self._small
        for _ in range(1250):
            x = np.maximum(x * 0.5, 0.1)
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.samples.append(end - start)
        self.spent_s += end - start
        self._last = end

    def due(self) -> bool:
        return time.perf_counter() - self._last >= INTERVAL_S

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a time measured from `start` to `end` into
        reference seconds: REFERENCE_S over the median kernel time within
        MARGIN_S of the interval, or of the nearest kernel run if none."""
        lo = bisect.bisect_left(self.times, start - MARGIN_S)
        hi = bisect.bisect_right(self.times, end + MARGIN_S)
        if lo == hi:
            nearest = min(range(len(self.times)),
                          key=lambda i: abs(self.times[i] - (start + end) / 2))
            lo, hi = nearest, nearest + 1
        return REFERENCE_S / statistics.median(self.samples[lo:hi])

    def setup_seconds(self, raw: float, start: float, end: float, files: int,
                      system: float) -> float:
        """A set-up round's time in reference terms.  Its time outside
        system calls is scaled like any other time; its `system` seconds,
        nearly all spent creating files, are replaced by REFERENCE_FILE_S
        for each of the `files` it created."""
        return max(raw - system, 0.0) * self.scale(start, end) \
            + files * REFERENCE_FILE_S
