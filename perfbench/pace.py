"""Host-speed index, sampled while a timed call runs.

A shared host's CPU speed swings by up to 1.7x in phases of one to several
tens of seconds, long enough to slow a whole 35-second window.  Runs
measured at different moments then differ by the host's phase as much as by
the program.  ``Pace`` samples the host's speed during the timed call: a
SIGALRM timer interrupts the program every ``period_s`` seconds and times a
fixed pure-Python loop (a tick) in the same thread.  The median tick tells
how fast the interpreter ran during that call; on a 2-vCPU VM its log
correlated at -0.91 with a run's frames/s across phases.

``normalise`` rescales a rate to the reference speed at which one tick takes
``REFERENCE_TICK_NS``, and subtracts the ticks' own time from the call's
wall time.  A change to the program moves the normalised rate as it moves
the raw one; the ticks do not depend on the program.
"""

from __future__ import annotations

import signal
import statistics
import time

# Median tick in the fastest phases seen on a shared 2-vCPU VM (CPython
# 3.11), where it ranged over 52-98 us: a scale only, so that normalised
# figures read close to raw ones in such a phase.
REFERENCE_TICK_NS = 55_000
TICK_LOOP = 1000


def _tick() -> int:
    start = time.perf_counter_ns()
    total = 0
    for i in range(TICK_LOOP):
        total += i * i
    return time.perf_counter_ns() - start


class Pace:
    """Context manager timing ticks every ``period_s`` seconds of wall time."""

    def __init__(self, period_s: float = 0.01) -> None:
        self.period_s = period_s
        self.ticks_ns: list[int] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.ticks_ns.append(_tick())

    def __enter__(self) -> "Pace":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def tick_ns(self) -> float:
        """Median tick; one tick taken now if the call was too short for any."""
        return statistics.median(self.ticks_ns) if self.ticks_ns else float(_tick())

    def normalise(self, wall_s: float) -> float:
        """``wall_s`` without the ticks, rescaled to the reference speed."""
        net_s = wall_s - sum(self.ticks_ns) / 1e9
        return net_s * REFERENCE_TICK_NS / self.tick_ns
