"""Correction of timings for the speed of a shared host.

On a shared two-vCPU host the same pure-Python work runs up to 1.6x slower
for minutes at a time, in CPU time as much as in wall time, and the two
vCPUs slow independently.  A median over one run cannot remove a slowdown
that lasts the whole run.  So the process is pinned to one CPU, a thread
times a fixed pure-Python loop on it every 0.05 s, and a time reported by
the benchmark is its raw wall time scaled by REF_PROBE_S over the mean
probe time during the same interval: seconds on a CPU that runs the probe
in REF_PROBE_S.  README.md gives the measured effect.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

# fastest probe time seen on the machine the bounds were set on
# (Intel Xeon, 2.1 GHz, Python 3.11.7)
REF_PROBE_S = 1.1e-3
INTERVAL_S = 0.05


def pin_to_one_cpu() -> None:
    """Run this process, its threads and its children on a single CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def probe_loop() -> int:
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


class SpeedProbe:
    """Probe samples (start, seconds); ``with`` runs the sampling thread."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> None:
        t0 = time.perf_counter()
        probe_loop()
        self.samples.append((t0, time.perf_counter() - t0))

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self.sample()

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def mean(self, t0: float = float("-inf"), t1: float = float("inf"),
             pad: float = 0.25) -> float:
        """Mean probe time over [t0 - pad, t1 + pad], or over all samples."""
        inside = [d for t, d in self.samples if t0 - pad <= t <= t1 + pad]
        return statistics.fmean(inside or [d for _, d in self.samples])

    def corrected(self, t0: float, t1: float) -> float:
        """The interval's length at the reference probe speed."""
        return (t1 - t0) * REF_PROBE_S / self.mean(t0, t1)
