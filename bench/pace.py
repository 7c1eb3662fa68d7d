"""The host's speed, sampled while a pass runs.

The benchmark shares its host with other tenants, whose load slows pure
Python code by up to half, in bursts from under a second to minutes long.
No statistic over passes removes a burst that lasts as long as a run.  So a
timer interrupts the pass every INTERVAL_S and times a fixed reference loop.
A stage's time is then scaled by the host's mean speed during the stage,
relative to the speed at which the loop takes REFERENCE_S.  The result
reads as seconds on the host at its reference speed.  It moves with the
program's own cost rather than with the host's load: over ten runs of
big4_verify, scaled stage times spread 0.02 to 0.05 where measured ones
spread 0.26 to 0.31 (bench/README.md, "Steadiness and bounds").

The time spent in the interrupts is taken out of the op times.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
# About the reference-loop time at the mean speed of the 2-core x86 VM where
# the benchmark was defined (Python 3.11.7).  It only sets the unit: scaled
# seconds read close to measured ones on that host.
REFERENCE_S = 0.0014


def reference_loop() -> None:
    """Fixed interpreter work: big-integer arithmetic and dict updates.

    It creates a single container, so it hardly moves the cyclic garbage
    collector's allocation count, and with it the program's collections.
    """
    table: dict = {}
    x = 12345678901234567
    for i in range(2500):
        x = (x * 6364136223846793005 + i) % 18446744073709551557
        key = x & 255
        table[key] = table.get(key, 0) + (x >> 40)


def scaled(seconds: float, samples: list[float]) -> float:
    """seconds at the reference speed, given reference times sampled meanwhile.

    The timer spaces the samples evenly in time, so the mean of their
    inverses is the host's mean speed over the measured interval.
    """
    return seconds * REFERENCE_S * statistics.fmean(1 / t for t in samples)


class Pace:
    """Times reference_loop on demand and every INTERVAL_S while started."""

    def __init__(self):
        self.samples: list[float] = []
        self.paused = 0.0  # seconds spent in interrupts so far
        self._sampling = False

    def sample(self) -> None:
        self._sampling = True
        start = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - start)
        self._sampling = False

    def _tick(self, signum, frame) -> None:
        if self._sampling:  # the timer fired inside sample(); skip this tick
            return
        start = time.perf_counter()
        self.sample()
        self.paused += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
