"""A fixed pure-Python speed probe, to tell host drift from code change.

On the 2-core virtual machine this benchmark was built on, the speed of the
same Python code drifts by up to a factor of two within minutes, and raw
times of one workload spread by 25 to 30 % between runs of the same code.
Every benchmark process therefore times this loop after set-up and then
about once a second between its timed calls, and each time it reports is
scaled to a host on which the loop takes ``REFERENCE_MS``. The probe runs no
orelab code, so a change to orelab moves the scaled times as it moves the
raw ones.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_MS = 10.0
REPEATS = 3


def speed_probe_ms() -> float:
    """Median milliseconds of a few runs of a fixed integer loop."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1000


def scale(probe_ms: float) -> float:
    """Factor that turns seconds measured beside ``probe_ms`` into seconds
    on the reference host."""
    return REFERENCE_MS / probe_ms
