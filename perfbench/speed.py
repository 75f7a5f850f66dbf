"""Host speed, sampled while a workload runs, and times at reference speed.

The 2-core shared host this benchmark was built on changes speed by
itself: a fixed pure-Python loop, timed back to back, took 33 ms in one
3-second stretch and 51 ms in the next, with process CPU time equal to
wall time.  Raw wall times of the same code therefore spread by about
a quarter from run to run, whatever statistic a run takes over them.

So a worker also measures the host.  An interval timer interrupts it
every INTERVAL_S and times reference(), fixed dict, tuple and int work
on small objects with operators, like nullkit's own, that never calls
nullkit.  A span's time at reference speed is its wall time, less the
samples taken inside it, times REF_S over the mean sample in the span.
REF_S is the mean sample on that host, so a time at reference speed
reads about as the wall time would there.  A change to nullkit moves
the span but not the samples; the samples follow only the host.
"""

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.02
# The mean reference() sample while the workloads ran on the host the
# benchmark was calibrated on (2 cores, Python 3.11): 330-430 us.  A
# scale only, fixed so that results stay comparable.
REF_S = 0.00035


class _Residue:
    """An element of Z/251, as a small object with operators."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __add__(self, other):
        return _Residue((self.v + other.v) % 251)

    def __mul__(self, other):
        return _Residue((self.v * other.v) % 251)


_TERMS = {(i, j, 4 - i - j): _Residue(3 * i + j + 1)
          for i in range(5) for j in range(5 - i)}


def reference():
    """The fixed work: square a 15-term polynomial over Z/251 and sort
    its monomials."""
    out = {}
    for (a, b, c), x in _TERMS.items():
        for (d, e, g), y in _TERMS.items():
            key = (a + d, b + e, c + g)
            term = x * y
            out[key] = out[key] + term if key in out else term
    return sorted(out, reverse=True)


class Sampler:
    """Samples reference() on a timer, from start() until stop()."""

    def __init__(self):
        self.at = []      # perf_counter when each sample started
        self.ref = []     # time of reference() in each sample
        self.cost = []    # time each sample took from the workload

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.ref.append(t1 - t0)
        self.cost.append(time.perf_counter() - t0)

    def window(self, t0, t1):
        """(samples' cost, mean reference time) over [t0, t1).

        A span too short to hold two samples is judged by the nearest
        ones on either side of it."""
        i = bisect.bisect_left(self.at, t0)
        j = bisect.bisect_left(self.at, t1)
        cost = sum(self.cost[i:j])
        lo, hi = i, j
        while hi - lo < 2 and (lo > 0 or hi < len(self.at)):
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        return cost, statistics.fmean(self.ref[lo:hi])

    def scaled(self, t0, t1):
        """Wall time t1 - t0, less samples, at reference speed.

        The host's speed changes within a second, so a span is judged by
        the samples inside it, not by a wider window."""
        cost, mean_ref = self.window(t0, t1)
        return (t1 - t0 - cost) * REF_S / mean_ref
