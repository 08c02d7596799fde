"""Host-speed calibration: times read at a fixed reference speed.

On a shared host the same Python code runs at speeds up to 1.8x apart
from one second to the next, and a slow stretch can last minutes, so raw
wall times of identical runs disagree by more than any useful regression
bound.  The benchmark therefore times, before every job and set-up and
once at the end, a fixed piece of work that shares no code with
chasekit: the benchmark's own oracle chase (`oracle.py`) of a fixed
chain program.  A job or set-up time is then scaled by

    REFERENCE_S / (mean of the calibrations just before and just after it)

which gives the seconds it would have taken at the speed at which the
calibration takes `REFERENCE_S`.  A change that slows chasekit by some
share raises the scaled time by that share; a swing of the host moves
the job and the calibration together and cancels.

The calibration runs with the garbage collector off, so chasekit's heap
(what it leaves alive between jobs) cannot change its cost.
"""

from __future__ import annotations

import bisect
import gc
import random
import time
from typing import List, Tuple

import gen
import oracle

# About the calibration's time on the 2-vCPU host the baseline was
# measured on; scaled times read as seconds on that host.
REFERENCE_S = 0.004

_PROGRAM = gen.chain_program(random.Random("calibration"), "calibration", variant=0)


def calibration_work() -> None:
    oracle.chase(_PROGRAM.facts, _PROGRAM.tgds, terminates=False, max_levels=12)


class Speed:
    """Calibration times through a run, and the scaling they give."""

    def __init__(self) -> None:
        self.marks: List[Tuple[float, float]] = []  # (midpoint, seconds), in time order

    def calibrate(self) -> None:
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            calibration_work()
            end = time.perf_counter()
        finally:
            if was_enabled:
                gc.enable()
        self.marks.append(((start + end) / 2, end - start))

    def local(self, at: float) -> float:
        """Mean of the calibrations just before and just after time `at`
        (the nearest one alone at either end)."""
        times = [t for t, _ in self.marks]
        k = bisect.bisect_left(times, at)
        near = self.marks[max(k - 1, 0):k + 1]
        return sum(s for _, s in near) / len(near)

    def scaled(self, seconds: float, at: float) -> float:
        """`seconds`, measured around time `at`, at the reference speed."""
        return seconds * REFERENCE_S / self.local(at)
