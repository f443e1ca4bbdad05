"""Host-speed correction for benchmark timings.

The shared 2-CPU host this benchmark was tuned on runs the same code up to
1.6x slower for stretches of seconds to minutes (other tenants).  Over a
150 s test, job times and a fixed reference loop timed next to them
correlated at 0.89; dividing by the reference cut the spread of 40-job means
from 26% to 4%.  So the runner times the reference between jobs and scales
every job to the speed at which the reference takes NOMINAL_S.

The reference is interpreter-bound and small-array numpy work, like most of
sqlab, and touches nothing of sqlab, so a change to the program never moves
it.
"""

import bisect
import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 0.005    # the reference's time on the tuning host in a quiet phase
INTERVAL_S = 0.5     # at most this long between probes while jobs run
PROBE_REPEATS = 3


def reference():
    s = 0
    for i in range(40_000):
        s += i * i
    a = np.ones(64)
    for _ in range(1_000):
        a = a * 1.0000001 + 0.5
    return s + a[0]


class HostSpeed:
    """Reference timings through a run, and the factor that scales a job's time."""

    def __init__(self):
        self.times = []      # when each probe ended
        self.refs = []       # median reference time at each probe
        self.probe()

    def probe(self):
        runs = []
        for _ in range(PROBE_REPEATS):
            t0 = perf_counter()
            reference()
            runs.append(perf_counter() - t0)
        self.times.append(perf_counter())
        self.refs.append(statistics.median(runs))

    def maybe_probe(self):
        if perf_counter() - self.times[-1] >= INTERVAL_S:
            self.probe()

    def reference_at(self, t):
        """Reference time at `t`, interpolated between the probes around it."""
        i = bisect.bisect_left(self.times, t)
        if i == 0:
            return self.refs[0]
        if i == len(self.times):
            return self.refs[-1]
        t0, t1 = self.times[i - 1], self.times[i]
        w = (t - t0) / (t1 - t0)
        return (1 - w) * self.refs[i - 1] + w * self.refs[i]

    def factor(self, start, end):
        """Multiply a time measured over [start, end] by this to correct it."""
        return NOMINAL_S / self.reference_at((start + end) / 2)

    def median_factor(self):
        return NOMINAL_S / statistics.median(self.refs)
