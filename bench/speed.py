"""Time a unit of work and scale its wall time by the machine's speed.

On a shared host a vCPU flips between a fast and a slow state, about a
factor of 2 apart, for seconds to minutes at a time, and CPU time slows
with wall time, so a bare wall time measures the neighbours as much as the
program.  While a timed unit (a set-up or an op) runs, an interval timer
interrupts it every PROBE_INTERVAL_S to time a fixed pure-Python probe;
the unit is also probed just before and just after.  The machine's mean
speed over the unit is the mean of REFERENCE_PROBE_S / probe time, since
the probes are spread evenly over wall time, and the unit's scaled time is

    scaled = (wall - time spent in probes) * mean(REFERENCE_PROBE_S / probe)

that is, the time the unit would take at the speed at which the probe takes
REFERENCE_PROBE_S.  The probe touches no library code, so a change to the
library moves the scaled time as it moves the wall time.  It runs with the
garbage collector off, so its time does not depend on how many objects the
library keeps alive.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

PROBE_INTERVAL_S = 0.05
# Warm probe time on a 2-vCPU shared VM (Intel Xeon, Python 3.11) in its
# fast state; it sets only the scale of the reported seconds.
REFERENCE_PROBE_S = 0.0007

_WORDS = [f"w{i % 61}" for i in range(2000)]


def probe_s() -> float:
    """Wall time of one run of the probe: tuple-keyed dict counting and
    float arithmetic, what the library spends its time on."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    counts: dict = {}
    total = 0.0
    previous = "<s>"
    for word in _WORDS:
        key = (previous, word)
        count = counts.get(key, 0) + 1
        counts[key] = count
        total += count / (len(word) + 1.0)
        previous = word
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


@dataclass
class Timing:
    wall_s: float = 0.0  # the unit's own wall time, probes excluded
    scaled_s: float = 0.0
    probes: list[float] = field(default_factory=list)


@contextmanager
def timed():
    """Time the block; fills in the yielded Timing when the block ends."""
    timing = Timing(probes=[probe_s()])
    inside: list[float] = []

    def on_alarm(signum, frame) -> None:
        inside.append(probe_s())

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    start = time.perf_counter()
    try:
        yield timing
    finally:
        stop = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    timing.probes += inside + [probe_s()]
    timing.wall_s = stop - start - sum(inside)
    timing.scaled_s = timing.wall_s * statistics.fmean(
        REFERENCE_PROBE_S / p for p in timing.probes
    )
