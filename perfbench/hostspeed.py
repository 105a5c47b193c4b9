"""Host-speed probe: a fixed pure-Python chunk timed between engine calls.

On a shared machine the CPU a process gets runs at changing speeds: the same
loop takes half as long again, at times more than twice as long, in phases
that last from seconds to minutes, with no CPU time stolen (the process's CPU
time tracks its wall time).  A run that falls into a slow phase is slow in
every replay, so neither medians nor minima over its replays remove the
phase.

:class:`Probe` times :func:`chunk` — dict updates on tuple keys, tuple
creation and list appends, the operations the engine spends its time on,
in no code of the program — at most every ``every_s`` seconds of the
engine's own work, in the same thread, so that its samples are spread over
the measured time like the engine's work is.  A probe time over
:data:`NOMINAL_S` is the host's slowdown at that moment; the benchmark
divides each measured engine time by the slowdown around it
(:func:`local_slowdowns`), so its times are those at the reference speed.
The engine's time follows the probe's with a slope of about 1.1-1.2 on a
log scale (correlation 0.8-0.9 over replays), so the correction removes most
of the host's drift but not all of it.
"""
from __future__ import annotations

import gc
import time

#: iterations of one probe chunk
ITERS = 2000
#: seconds one chunk takes at the reference speed (a fixed scale: about its
#: time between engine calls on the 4-core Xeon VM the benchmark was tuned on)
NOMINAL_S = 6e-4


def chunk() -> float:
    """Seconds one probe chunk takes now, with the cyclic GC paused so that
    no collection the engine's allocations are due is charged to the probe."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    counts: dict = {}
    rows = []
    for i in range(ITERS):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
        rows.append((key, i))
    took = time.perf_counter() - t0
    del counts, rows
    if enabled:
        gc.enable()
    return took


class Probe:
    """Probe samples taken at most every ``every_s`` seconds of engine time."""

    def __init__(self, every_s: float = 0.05) -> None:
        self.every_s = every_s
        #: seconds each probe chunk took
        self.samples: list[float] = []
        #: the tick (engine call, counted from 0) after which each was taken
        self.at: list[int] = []
        self._ticks = 0
        self._due = 0.0

    def tick(self, engine_s: float) -> None:
        """Count one engine call that took ``engine_s`` seconds, and take a
        sample if ``every_s`` seconds of work have passed since the last one
        (the first call always samples)."""
        self._due -= engine_s
        if self._due <= 0:
            self.samples.append(chunk())
            self.at.append(self._ticks)
            self._due = self.every_s
        self._ticks += 1

    def slowdown(self) -> float:
        """Mean probe time over :data:`NOMINAL_S`."""
        return sum(self.samples) / len(self.samples) / NOMINAL_S


#: samples on either side that :func:`local_slowdowns` averages (with a
#: sample every 50 ms of engine time, about half a second in all)
SMOOTH = 5


def local_slowdowns(samples: list[float], at: list[int], n: int) -> list[float]:
    """The host's slowdown during each of ticks ``0 .. n-1``: the mean of the
    ``2 * SMOOTH + 1`` samples centred on the last one taken before the tick
    (on the first one, for tick 0), over :data:`NOMINAL_S`.  Host phases
    change within a replay, so a tick is corrected by the speed around it."""
    means = []
    for j in range(len(samples)):
        window = samples[max(0, j - SMOOTH) : j + SMOOTH + 1]
        means.append(sum(window) / len(window) / NOMINAL_S)
    out = []
    j = 0
    for i in range(n):
        while j + 1 < len(at) and at[j + 1] < i:
            j += 1
        out.append(means[j])
    return out
