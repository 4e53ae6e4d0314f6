"""Machine speed probe: converts measured seconds into reference seconds.

The machine this benchmark was tuned on shares its cores with other tenants,
whose load slows it by up to 1.8x in phases that last from seconds to minutes;
medians of raw times moved by 20-30% between runs (NOTES.md).  A short fixed
probe runs in the same process right around every timed step, and the step's
time is multiplied by PROBE_REF_S over the probe time.  The factor depends on
the machine's state only, so it cancels in any comparison of two commits
measured on the same machine.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Typical probe time on the machine described in NOTES.md, so that reference
# seconds there read about like raw seconds.
PROBE_REF_S = 0.0045

_DATA = np.random.default_rng(0).random(2000)


def probe() -> float:
    """Median time of five repeats of a fixed mix of interpreter and numpy work."""
    times = []
    for _ in range(5):
        t0 = perf_counter()
        s = 0.0
        for i in range(20000):
            s += (i * 0.5) % 7.0
        for _ in range(100):
            s += float(np.sort(_DATA)[7] + np.exp(_DATA).sum())
        times.append(perf_counter() - t0)
    return statistics.median(times)


class SpeedProbe:
    """Scales in-process steps by the mean of the probes before and after."""

    def __init__(self):
        self.last = probe()

    def scale(self, seconds: float) -> float:
        """Reference seconds for a step of ``seconds`` that has just ended."""
        now = probe()
        factor = PROBE_REF_S / (0.5 * (self.last + now))
        self.last = now
        return seconds * factor
