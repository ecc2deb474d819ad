"""Core-speed probe: scales CPU seconds to a reference core.

On a shared host a core's speed moves with the load of other tenants
(caches, memory bandwidth, the sibling hyperthread), and CPU seconds move
with it.  On a 2-vCPU VM the probe below took 0.050 s in fast stretches
and 0.078 s in slow ones, switching every few seconds with no stolen
time, and the same cold solve took a median 1.74 to 2.51 CPU seconds in
six processes.  A fixed load that does not depend on the program, timed
between the measured operations, tracks that speed: CPU seconds times
``PROBE_REF_S`` over the run's mean probe are seconds on a core that runs
the probe in ``PROBE_REF_S``.  Scaled, the six medians spread half as
much (1.65 to 2.11 s).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Thread CPU seconds of one :func:`probe` on an idle 2.0 GHz vCPU of the
#: reference machine (the median of 60 probes).
PROBE_REF_S = 0.06


def probe() -> float:
    """Thread CPU seconds of a fixed load: a Python loop and numpy sorts.

    Thread time, so that threads the program leaves running do not count.
    """
    t0 = time.thread_time()
    s = 0
    for i in range(400_000):
        s += i * i % 7
    a = np.arange(100_000, dtype=np.float64)
    for _ in range(20):
        a = np.sort(a[::-1]) + 1.0
    return time.thread_time() - t0


def scale(probes) -> float:
    """Factor from this run's CPU seconds to reference seconds.

    The mean, not the median: CPU seconds add up over fast and slow
    stretches alike, and a median of a two-speed sample flips between
    the two.
    """
    return PROBE_REF_S / statistics.fmean(probes)
