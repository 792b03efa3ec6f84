"""A fixed reference load that measures how fast the machine is right now.

On a shared host the machine flips between a fast and a slow state (the load
takes about 0.020 s or 0.031 s) several times a second, and the share of time
spent in the slow state drifts from run to run.  That drift, not the program,
sets most of the spread between runs.  The benchmark therefore times this
load while the program runs and scales the run's median times by
``NOMINAL_S / mean(load seconds)``: the times the run would have taken on a
machine where the load takes ``NOMINAL_S``.  The mean, not the median, because
a time spent under a mix of the two states grows with the mix linearly, while
the median of a two-valued sample jumps from one state to the other.

The load is a pure-Python loop of float arithmetic and builtin calls, the kind
of work that dominates ergodim's hot loops.  It allocates nothing that
outlives an iteration and never touches ergodim or numpy, so neither the
program's code nor the heap state a report leaves behind can move it.

``Sampler`` runs the load from a ``SIGALRM`` handler every ``period`` seconds
of a report, so the samples cover the report's own time evenly, long reports
included, and it counts the seconds the handler took so that the caller can
take them off the report's time.  The handler touches no program state: the
report's payload bytes do not change (the benchmark's gate checks that).
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

# Median seconds of one ``run()`` on the machine the baseline was recorded on
# (nproc 2, Python 3.11.7).  It only sets the scale of the normalized metrics
# and is never re-measured.
NOMINAL_S = 0.03
ITERATIONS = 150_000


def run() -> float:
    """Seconds taken by one pass of the fixed load."""
    t0 = time.perf_counter()
    x, acc = 0.5, 0.0
    for i in range(ITERATIONS):
        x = abs(x * 3.7 - 1.3) % 1.0
        acc += x if i & 1 else -x
    elapsed = time.perf_counter() - t0
    if acc != acc:  # keeps the loop's result live
        raise AssertionError("reference load produced NaN")
    return elapsed


class Sampler:
    """Load timings taken every ``period`` seconds while ``active``."""

    def __init__(self, period: float = 0.5):
        self.period = period
        self.samples: list = []
        self.paused = 0.0  # seconds spent running the load
        self._armed = False

    def sample(self):
        t0 = time.perf_counter()
        self.samples.append(run())
        self.paused += time.perf_counter() - t0

    def _tick(self, *_):
        self.sample()
        # one-shot timer, re-armed only once the sample is done: a periodic
        # timer would re-enter the handler whenever the load outlasts the period
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, self.period)

    @contextmanager
    def active(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, self.period)
        try:
            yield self
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
