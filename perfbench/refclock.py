"""Timing in reference seconds, corrected for the speed of a shared host.

On the shared 2-core machine the benchmark was written on, the speed of one
core drifted by about ±20 % over tens of seconds. A fixed loop took 11.9 to
17.2 ms in consecutive 10 s windows, and CPU time moved with wall time, so
the drift was a slower core, not lost scheduling. No median over rounds can
remove a drift that lasts as long as a run. So a fixed reference workload is
timed right before and right after every measured unit. The unit's raw time
is then scaled by ``REFERENCE_S`` over the mean of those two reference
times. Wall time is scaled by the reference's wall time and CPU time by its
CPU time. The reference runs no relosplit code, so changes to the library do
not move it. Raw times are always reported as well.

On ring-box this cut the spread of ``solve_s`` over seven runs from 14 % to
4 %.
"""

import statistics
from dataclasses import dataclass
from time import perf_counter, process_time

import numpy as np

#: Typical time of one ``reference_work()`` call on the development machine
#: (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4). Timings are reported in
#: seconds at that speed. Never change it: results would no longer compare.
REFERENCE_S = 0.008
REPEATS = 5

_VECTOR = np.arange(64.0)


def reference_work():
    """An interpreter loop plus small numpy calls, the two kinds of solver work."""
    total = 0
    for i in range(100_000):
        total += i * i
    for _ in range(1000):
        np.clip(_VECTOR, 3.0, 40.0)
    return total


def reference_times():
    """Median wall and CPU seconds of REPEATS reference_work() calls."""
    walls, cpus = [], []
    for _ in range(REPEATS):
        w0, c0 = perf_counter(), process_time()
        reference_work()
        cpus.append(process_time() - c0)
        walls.append(perf_counter() - w0)
    return statistics.median(walls), statistics.median(cpus)


@dataclass
class Timing:
    """Raw and reference-scaled seconds of one measured unit."""

    wall: float
    cpu: float
    raw_wall: float
    raw_cpu: float


class ReferenceClock:
    """Measures calls in reference seconds; see the module docstring."""

    def __init__(self):
        self.last = reference_times()
        #: every reference wall time taken, for the record
        self.samples = [self.last[0]]

    def scale(self, raw_wall):
        """Scale a raw wall time taken just before the last reference."""
        return raw_wall * REFERENCE_S / self.last[0]

    def measure(self, fn, *args):
        """Call fn(*args); returns (result, Timing)."""
        w0, c0 = perf_counter(), process_time()
        result = fn(*args)
        raw_cpu = process_time() - c0
        raw_wall = perf_counter() - w0
        now = reference_times()
        before, self.last = self.last, now
        self.samples.append(now[0])
        return result, Timing(
            wall=raw_wall * 2 * REFERENCE_S / (before[0] + now[0]),
            cpu=raw_cpu * 2 * REFERENCE_S / (before[1] + now[1]),
            raw_wall=raw_wall,
            raw_cpu=raw_cpu,
        )
