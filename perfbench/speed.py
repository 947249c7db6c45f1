"""Machine-speed reference for a shared box whose speed shifts.

On a shared 2-core virtual machine (2.1 GHz nominal), the CPU speed was
seen to flip between two states about 1.7x apart for seconds to minutes at
a time; raw wall times of identical runs then spread by 20-30%. A short pure-Python loop
(stdlib ``Fraction`` arithmetic, tuples and a dict, the same instruction
mix as the program) timed between jobs tracks that speed.

``scale()`` turns a loop time into the factor that converts measured
seconds into *reference seconds*: seconds on a machine where the loop takes
``REF_SECONDS``. A job's loop time is the median of the ``WINDOW`` loop
times nearest to it (``around``): one loop time is noisy (about 10%), the
speed states last seconds. The loop uses no groupwalk code, so no change to
the program moves it; the garbage collector is off while it runs, so the
heap the jobs leave behind does not either.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction
from typing import List

REF_SECONDS = 0.003
WINDOW = 11


def _loop() -> Fraction:
    acc = Fraction(0)
    table = {}
    for i in range(1, 400):
        w = Fraction(1, i) * Fraction(i, i + 1)
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + w
        acc += w
    return acc + len(table)


def reference() -> float:
    """Seconds one run of the reference loop takes now."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        _loop()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def around(refs: List[float], i: int) -> float:
    """Median of the WINDOW loop times nearest to the job run between
    refs[i] and refs[i + 1]."""
    lo = max(0, min(i + 1 - WINDOW // 2, len(refs) - WINDOW))
    return statistics.median(refs[lo:lo + WINDOW])


def scale(ref_seconds: float) -> float:
    """Factor from measured seconds to reference seconds."""
    return REF_SECONDS / ref_seconds
