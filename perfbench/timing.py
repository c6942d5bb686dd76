"""How the benchmark times work on a shared host.

The shared virtual machines this benchmark runs on disturb timings in two
ways, and each is taken out here.

* Single operations are stretched by tens of milliseconds while the host
  runs other work on the virtual CPU.  The thread's CPU time leaves that
  out.  So an operation's time is its CPU time, unless the thread blocked
  of its own accord while it ran (a voluntary context switch: waiting for
  disk, a child process, a sleep); then it is its wall-clock time, so
  waiting that the operation itself causes always counts.  Today's
  operations run in-process and never block.
* The host changes speed by up to about 1.5 times in phases of seconds to
  minutes (other work shares the cores and caches), and CPU time slows
  with wall time.  A phase as long as a run moves every statistic of that
  run alike.  So the benchmark also times fixed reference work before and
  after every stretch of about ``EVERY_S`` seconds of timed work, and scales
  each time in the stretch by ``NOMINAL_S`` over the mean of the two
  reference times.  A time then reads as it would on a host where the
  reference work takes ``NOMINAL_S``.

The reference imports nothing from kannanlab and allocates no objects the
garbage collector tracks, so no change to the package can move it; a change
that makes the package slower or faster moves the scaled times exactly as
it moves the unscaled ones.
"""

from __future__ import annotations

import math
import random
import resource
import statistics
from time import perf_counter, thread_time

# CPU time of one reference() on the machine the benchmark was written on
# (a shared 2-vCPU virtual machine, Python 3.11.7), about; the unit of
# every scaled time.
NOMINAL_S = 1.6e-3
# Timed work between two reference timings, in seconds.
EVERY_S = 0.3
# Reference runs per reference timing; the timing is their median.
REPEATS = 15

_N = 22
_rng = random.Random(0)
_TABLE = [[_rng.random() for _ in range(_N)] for _ in range(_N)]


def start() -> tuple[float, float, int]:
    """A mark to pass to :func:`stop` when the timed work ends."""
    return perf_counter(), thread_time(), resource.getrusage(resource.RUSAGE_THREAD).ru_nvcsw


def stop(mark: tuple[float, float, int]) -> tuple[float, float]:
    """The time the work since ``mark`` took, and its wall-clock time."""
    wall = perf_counter() - mark[0]
    cpu = thread_time() - mark[1]
    blocked = resource.getrusage(resource.RUSAGE_THREAD).ru_nvcsw != mark[2]
    return (wall if blocked else cpu), wall


def _ratio(a: float, b: float) -> float:
    return a / (1.0 + b) if a > b else math.sqrt(a * b)


def reference() -> float:
    """A triangle scan and a sweep of small function calls over a fixed table."""
    table = _TABLE
    bad = 0
    for i in range(_N):
        row_i = table[i]
        for j in range(_N):
            d_ij = row_i[j]
            row_j = table[j]
            for k in range(_N):
                if d_ij > row_i[k] + row_j[k]:
                    bad += 1
    total = float(bad)
    for i in range(_N):
        row_i = table[i]
        for j in range(_N):
            for k in range(0, _N, 2):
                total += _ratio(row_i[j], row_i[k])
    return total


def reference_s() -> float:
    """Median time of ``REPEATS`` runs of :func:`reference`."""
    times = []
    for _ in range(REPEATS):
        mark = start()
        reference()
        times.append(stop(mark)[0])
    return statistics.median(times)


class SpeedScale:
    """Scales times to the nominal host speed, one stretch at a time.

    ``add`` collects times; once ``due``, ``flush`` times the reference
    again and returns the stretch's times scaled by ``NOMINAL_S`` over the
    mean of the reference times before and after it.
    """

    def __init__(self) -> None:
        self.before = reference_s()
        self.pending: list[float] = []

    def add(self, seconds: float) -> None:
        self.pending.append(seconds)

    def due(self) -> bool:
        return sum(self.pending) >= EVERY_S

    def estimate(self) -> float:
        """The pending times' sum, scaled by the last reference time alone."""
        return sum(self.pending) * NOMINAL_S / self.before

    def flush(self) -> list[float]:
        if not self.pending:
            return []
        after = reference_s()
        factor = NOMINAL_S / ((self.before + after) / 2)
        scaled = [t * factor for t in self.pending]
        self.before = after
        self.pending = []
        return scaled
