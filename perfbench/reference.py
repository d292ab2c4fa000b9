"""A fixed reference routine that gauges the machine's speed of the moment.

The benchmark's host is shared, and its speed for the same Python code
drifts by up to 50% within a minute as other tenants load it.  Every
measured task therefore runs next to this routine, and each time the
benchmark reports is scaled by ``NOMINAL_NS`` over the routine's time
around it: the time the task would take when the routine takes
``NOMINAL_NS``.  The routine is pure-Python integer arithmetic on lists,
like equik's own inner loops, and shares no code with equik, so a change
to equik moves the scaled times exactly as it moves the measured ones.

Run it directly to print the routine's median time on this machine:

    python3 perfbench/reference.py
"""

from __future__ import annotations

import random
import statistics
import time

import checks

# The routine's median time on the machine the baseline was taken on
# (2-vCPU Xeon VM, Python 3.11.7).
NOMINAL_NS = 1_000_000

_MATRIX = [[random.Random(f"reference:{i}:{j}").randint(-9, 9) for j in range(12)] for i in range(12)]
_REPEAT = 6
_DET = checks.det(_MATRIX)


def time_ns() -> int:
    """Nanoseconds for one run of the routine: six 12x12 Bareiss determinants."""
    t0 = time.perf_counter_ns()
    for _ in range(_REPEAT):
        if checks.det(_MATRIX) != _DET:
            raise AssertionError("the reference routine computed another determinant")
    return time.perf_counter_ns() - t0


def scale(window) -> float:
    """Factor that turns a time measured next to ``window`` reference times
    into the time at nominal speed."""
    return NOMINAL_NS / statistics.fmean(window)


if __name__ == "__main__":
    samples = [time_ns() for _ in range(200)]
    print(f"median {statistics.median(samples):.0f} ns, min {min(samples)} ns, max {max(samples)} ns")
