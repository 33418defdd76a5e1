"""A fixed reference loop that measures how fast the host runs right now.

On a shared host other tenants slow this process by up to a half, in bursts
of milliseconds whose density drifts over minutes.  A run measures that
slowdown as it goes: after every job it runs ``unit`` (pure-Python float,
tuple and dict work plus small numpy operations, like the program's own
mix) for a tenth of the job's time.  The mean time of ``unit`` over
the run, divided by ``UNIT_S``, is the run's slowdown, and ``run.py``
divides its wall times by it.  ``unit`` calls nothing of the program under
test, so a change to the program does not move the slowdown.
"""

from __future__ import annotations

import math
import time

import numpy as np

# a fixed time per unit(): a round value between the best (0.44 ms) and the
# usual mean (0.7 to 0.9 ms) of one unit() on a shared 2-vCPU Xeon VM with
# Python 3.11 and numpy 2.4; comparisons between commits use only ratios
UNIT_S = 5.0e-4
# reference time spent after a job, as a share of the job's time
SHARE = 0.1

_ARRAY = np.linspace(0.1, 1.0, 64)


def unit():
    acc = 0.0
    table = {}
    for i in range(1500):
        x = (i % 97) * 0.01
        t = (x, x * x, math.sin(x))
        acc += t[0] * t[1] - t[2]
        table[i & 63] = acc
    a = _ARRAY
    for _ in range(60):
        a = np.sqrt(a * 1.0001 + 0.01)
    return acc + min(table.values()) + float(a[0])


class Reference:
    """Accumulated time and call count of ``unit`` over one run."""

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0

    def sample(self, busy_s, share=SHARE):
        """Run ``unit`` for about ``share`` of ``busy_s``, and at least once."""
        spent = 0.0
        while True:
            t0 = time.perf_counter()
            unit()
            spent += time.perf_counter() - t0
            self.calls += 1
            if spent >= share * busy_s:
                break
        self.seconds += spent

    def slowdown(self):
        """Mean time of ``unit`` over UNIT_S: above 1 on a host slower than that."""
        return self.seconds / self.calls / UNIT_S
