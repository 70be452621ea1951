"""The host's speed, timed with a fixed unit of exact arithmetic.

The host is shared and its speed drifts, by 15-40 % within minutes, with CPU
time tracking wall time.  While each CLI command runs, a thread of the CLI
process itself times ``unit`` (independent of coarse_kit) every
SAMPLE_EVERY_S, and the command's times are rescaled by those timings to
seconds at the reference host speed (``scale``).  The thread holds the
interpreter lock while it times the unit, and run.py pins the benchmark and
every CLI process to one processor, so the unit runs where the command runs,
at the speed the command sees.
"""

import random
import statistics
import sys
import threading
import time
from fractions import Fraction

REF_UNIT_S = 0.0025       # about the unit's median duration on the benchmark host
SAMPLE_EVERY_S = 0.1      # gap between timings during a command

_RNG = random.Random(7)
_VALUES = [Fraction(_RNG.randint(-99, 99), _RNG.randint(1, 99))
           for _ in range(64)]


def unit():
    """A sum of products of fixed fractions: object churn, gcds on growing
    integers and method dispatch, like coarse_kit's exact arithmetic.  Of a
    fraction-free elimination, a dictionary workload and this unit, this
    one tracked the CLI's own slowdowns best."""
    total = Fraction(0)
    for a in _VALUES:
        for b in _VALUES[:12]:
            total += a * b
    return total


def time_unit():
    t0 = time.perf_counter()
    unit()
    return time.perf_counter() - t0


class Sampler:
    """Times the unit every SAMPLE_EVERY_S on a daemon thread until stopped."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        # A switch interval longer than the unit keeps the main thread from
        # taking the lock back while the unit is being timed.
        sys.setswitchinterval(0.02)
        self.samples.append(time_unit())
        while not self._stop.wait(SAMPLE_EVERY_S):
            self.samples.append(time_unit())
        self.samples.append(time_unit())

    def start(self):
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        self._thread.join()
        return self.samples


def scale(samples):
    """Factor to seconds at the reference host speed.

    Work done in a time dt at a unit duration c is dt / c, so a command's
    work in reference seconds is its time times REF_UNIT_S times the mean
    of 1 / c over evenly spaced timings.  A timing stretched by a
    preemption adds little to that mean.
    """
    return REF_UNIT_S * statistics.fmean(1 / c for c in samples)
