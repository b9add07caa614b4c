"""Timing at a reference speed, for a machine whose speed drifts.

The machines this benchmark runs on share their cores with other tenants,
and the same pure-Python loop can run 1.6 times slower for seconds at a time.
A probe, a fixed piece of pure-Python work that does not use skewstone, is
timed three times before a timed call, every ``PROBE_EVERY_S`` seconds
during it (from a ``SIGALRM`` handler, so it runs in the benchmark's one
thread, between the program's bytecodes) and three times after it.  The
call's time, less the time spent in probes, is scaled by how much slower the
probe ran than ``PROBE_NOMINAL_S``: it reads in seconds at the reference
speed, as if the machine had run at its fast speed throughout.  The probe
allocates no container objects, so it does not move the program's garbage
collections.
"""

import signal
import statistics
from time import perf_counter

# Seconds probe() takes between the program's bytecodes on the machine the
# benchmark was written on (CPython 3.11.7 on a 2-vCPU Intel Xeon virtual
# machine) in a fast spell.
PROBE_NOMINAL_S = 0.00018
PROBE_EVERY_S = 0.01
PROBES_AROUND = 3

_SETS = [frozenset((i, i * 7 % 31, i * 11 % 37, i % 5)) for i in range(60)]
_INDEX = {s: i for i, s in enumerate(_SETS)}


def probe():
    """Set comparisons and dict lookups on small frozensets, as the
    package's lattices do, with no allocation of tracked objects."""
    hits = 0
    for a in _SETS:
        for b in _SETS[:12]:
            if a <= b or not a.isdisjoint(b):
                hits += _INDEX[b]
            hits += len(a) * _INDEX[a] % 7
    return hits


class ReferenceClock:
    """Times calls at the reference speed; installs a SIGALRM handler while
    it is open."""

    def __init__(self):
        self._samples = []
        self.probe_means = []    # of each timed call, in seconds

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum=None, frame=None):
        t0 = perf_counter()
        probe()
        self._samples.append(perf_counter() - t0)

    def time(self, fn):
        """Calls ``fn()``; returns (seconds at the reference speed, seconds
        as timed less the probes, fn's result)."""
        samples = self._samples = []
        for _ in range(PROBES_AROUND):
            self._tick()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            dt = perf_counter() - t0
        dt -= sum(samples[PROBES_AROUND:])
        for _ in range(PROBES_AROUND):
            self._tick()
        mean = statistics.fmean(samples)
        self.probe_means.append(mean)
        return dt * PROBE_NOMINAL_S / mean, dt, result
