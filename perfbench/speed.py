"""How fast the CPU runs right now, read from a fixed pure-Python task.

The machine the benchmark runs on may be shared.  On a 2-core machine the
same riq work took from 1.0 to 1.7 times its fastest time, in phases that
lasted from a second to minutes, so raw timings of two runs minutes apart
can differ by a third.  The benchmark therefore reads the speed of a
reference task just before and after each request (every 16th request on
subsume-random), and every ``SAMPLE_S`` seconds while a long request runs
(``Sampler``), and scales the request's latency to a reference speed: a
latency ``dt`` with readings ``t1 .. tk`` (before it, while it ran, and
after it) counts as ``dt * REFERENCE_S / mean(t1 .. tk)``.  The time the
readings inside a request take is not part of its latency.

On that machine, over six runs per workload, this cut the spread
(interquartile range over median) of goals_per_s on subsume-random,
rbox-chain and interp-define from 0.09, 0.09 and 0.12 to 0.025, 0.05 and
0.025 in one hour (20-second runs), and from 0.14, 0.16 and 0.19 to 0.04,
0.06 and 0.06 in another (15-second runs).  A task that chases pointers
through a 2 MB table tracked the slowdowns less well.  Not every slowdown
shows in the task: in one set of runs, two subsume-random runs still read
15% slow.

Readings inside requests matter where requests take longer than a few
readings: on rbox-chain (one pass of 32 requests of 15 ms to 5 s), over six
passes, the spread of goals_per_s was 0.114 unscaled, 0.047 scaled by the
readings before and after each request, and 0.022 with readings every
0.25 s inside it as well.  Over ten passes with readings every 0.1 s, the
spread of the median latency (most rbox-chain requests near it take about
0.2 s) was 0.047, against 0.073 from the same runs scaled by the readings
before and after each request alone.  A reading every 0.1 s costs 15% of
the wall time of a long request; that time is not counted as latency.

The task is a fixed loop of interpreter work that uses nothing from riq and
allocates nothing, so no change to the library moves it.
"""

from __future__ import annotations

import signal
import time
from itertools import repeat

#: Seconds a reading takes at the reference speed: about the median reading
#: on the machine the benchmark was tuned on, so that scaled times there are
#: close to measured ones.
REFERENCE_S = 0.005


#: A permutation of 0..255 the task walks; small ints are shared objects in
#: CPython, so the walk allocates nothing.
_TABLE = tuple((7 * i + 3) % 256 for i in range(256))
_STEPS = 90_000


def task_seconds() -> float:
    """Wall time of one run of the reference task: a walk through a table
    of small ints that allocates nothing, so the state of the program's
    own heap does not change the reading."""
    table, x, total = _TABLE, 0, 0
    start = time.perf_counter()
    for _ in repeat(None, _STEPS):
        x = table[x]
        total = (total + x) & 255
    return time.perf_counter() - start


def reading() -> float:
    """One reading: the fastest of three runs of the task, which drops
    interruptions shorter than a run."""
    return min(task_seconds() for _ in range(3))


def scaled(seconds: float, readings) -> float:
    """``seconds`` measured while the speed read ``readings``, in seconds
    at the reference speed."""
    return seconds * REFERENCE_S * len(readings) / sum(readings)


#: Seconds between readings while a request runs.
SAMPLE_S = 0.1


class Sampler:
    """Takes a reading every ``interval`` seconds of wall time between
    ``start`` and ``stop``, from a SIGALRM handler that runs on the main
    thread between two bytecodes of the request; with no interval it takes
    none.  ``readings`` holds them and ``cost`` the seconds they took."""

    def __init__(self, interval: float | None = SAMPLE_S):
        self.interval = interval
        self.readings: list[float] = []
        self.cost = 0.0
        if interval:
            signal.signal(signal.SIGALRM, self._take)

    def _take(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.readings.append(reading())
        self.cost += time.perf_counter() - start

    def start(self) -> None:
        self.readings = []
        self.cost = 0.0
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
