"""How fast one core of the host runs right now, from a fixed reference loop.

The benchmark gets a few cores of a host shared with other tenants.  The pace
each core is left with drifts by up to half, per core and for tens of seconds
at a time, so a whole run can fall in a slow or a fast stretch.  run.py pins
each pipeline process to one core, times this loop on that core right before
and right after it, and scales the process's times by
REFERENCE_S / (geometric mean of the two loop times): what they would have
been at the pace at which one loop takes REFERENCE_S.  The loop runs no
dbarlab code, so a change to the program moves the scaled times in full.
"""

from __future__ import annotations

import os
import time

# seconds per _loop() on a quiet core of a 2-vCPU Xeon host
REFERENCE_S = 0.0035
SAMPLE_S = 0.3


def _loop() -> int:
    total = 0
    for i in range(50000):
        total += i * i
    return total


def measure(cpu: int) -> float:
    """Mean seconds per reference loop on core `cpu`, over SAMPLE_S seconds."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        loops = 0
        start = time.perf_counter()
        while time.perf_counter() - start < SAMPLE_S:
            _loop()
            loops += 1
        return (time.perf_counter() - start) / loops
    finally:
        os.sched_setaffinity(0, allowed)
