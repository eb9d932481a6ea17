"""Calibration helper: times the calibration kernel on request.

Usage: ``python -m perfbench.calibrator``.  Each line read from standard
input is a comma-separated list of cores; the helper runs
:func:`perfbench.measure.calibration_kernel` pinned to each core in turn
and answers with one line, the mean kernel time in seconds.  It exits
when its input closes.  See :class:`perfbench.measure.KernelHelper`.
"""

from __future__ import annotations

import os
import sys
import time

from perfbench.measure import calibration_kernel

#: Kernel runs before the first answer (the first calls are slow).
WARM_UP = 3


def main() -> int:
    for _ in range(WARM_UP):
        calibration_kernel()
    for line in sys.stdin:
        times = []
        for core in (int(c) for c in line.split(",")):
            os.sched_setaffinity(0, {core})
            started = time.perf_counter()
            calibration_kernel()
            times.append(time.perf_counter() - started)
        print(repr(sum(times) / len(times)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
