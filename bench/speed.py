"""Machine-speed sampler.

The 2-core VMs this benchmark runs on switch between a fast and a slow
speed (about 1.6x apart) many times a minute, and CPU time tracks wall
time, so the slowdown is the machine's, not the program's.  Raw sweep
times spread by 12-40% (quartile distance over median) between runs.

While a measurement runs, a SIGALRM handler times a fixed piece of
Python every ``PERIOD_S``; the mean of those samples is the speed the
machine ran at during that very measurement.  Over five minutes of
long-history sweeps whose time varied by 16% (coefficient of variation),
the sample's mean correlated 0.98 with sweep time and the ratio of the
two varied by 5%.  ``scaled`` turns wall seconds into seconds at the
speed at which the sample takes ``REFERENCE_S``, its typical time on the
machine the benchmark was tuned on.  The sample costs under 1% of the
time it covers, on every commit alike, and it never touches driftscope,
so a change to the program cannot move it.

This module imports nothing beyond the standard library, so a fresh
interpreter can sample its own start-up.
"""

from __future__ import annotations

import signal
from time import perf_counter

PERIOD_S = 0.02
REFERENCE_S = 150e-6


class SpeedSampler:
    """Context manager that samples the machine's speed while it is open."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        # Float arithmetic only: it creates no object the garbage
        # collector tracks, so its time does not depend on the program's
        # heap, which an allocating loop's would through collections.
        began = perf_counter()
        total = 0.0
        for i in range(2000):
            total += i * 0.5
        self.samples.append(perf_counter() - began)

    def __enter__(self) -> "SpeedSampler":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def loop_s(self) -> float | None:
        """Mean time of the sampled loop, or None if nothing was sampled."""
        return sum(self.samples) / len(self.samples) if self.samples else None


def scaled(wall: float, loop_s: float | None) -> float:
    """``wall`` seconds at the reference speed; a measurement shorter than
    one sampling period is left as it was measured."""
    return wall * REFERENCE_S / loop_s if loop_s else wall
