"""Machine-speed measurements: the diagnostic reference kernel and the speed probe.

Wall times on a shared virtual machine move with the load of its
neighbours; on a 2-vCPU Xeon VM the same Fraction kernel took between
0.12 and 0.29 s within a minute.  `SpeedProbe` times a small fixed
Fraction loop every PROBE_INTERVAL_S seconds, in the thread that runs the
jobs, so each job can be converted to reference-speed seconds: its
wall time times PROBE_REF_S over the mean time of the probes that ran
during its runs or within PROBE_MARGIN_S of them.  The speed persists
for seconds, so the margin gives a job of a few milliseconds enough
probes.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import platform
import signal
import statistics
from fractions import Fraction
from time import perf_counter

PROBE_INTERVAL_S = 0.1
PROBE_MARGIN_S = 0.5
# The probe time of a reference-speed machine: one reference second is
# a second on a machine whose probe loop takes PROBE_REF_S.
PROBE_REF_S = 0.002


def _fraction_loop(n: int) -> Fraction:
    acc = Fraction(0)
    for k in range(1, n + 1):
        acc += Fraction(k % 89 + 1, k % 97 + 1)
    return acc


def fraction_kernel_s() -> float:
    """Seconds for a fixed pure-Fraction sum: the diagnostic machine reference."""
    t = perf_counter()
    _fraction_loop(60000)
    return perf_counter() - t


def machine_info() -> dict:
    model = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version()}


def probe_loops(count: int) -> list[float]:
    """Times of `count` probe loops run now, outside the SIGALRM probe."""
    times = []
    for _ in range(count):
        t = perf_counter()
        _fraction_loop(500)
        times.append(perf_counter() - t)
    return times


class SpeedProbe:
    """Times a 500-step Fraction loop from a SIGALRM handler while running."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _fire(self, signum, frame) -> None:
        t = perf_counter()
        _fraction_loop(500)
        self.durations.append(perf_counter() - t)
        self.starts.append(t)

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def within(self, intervals: list[tuple[float, float]], margin: float = 0.0) -> list[float]:
        """Times of the probes that started within `margin` of an interval."""
        picked = set()
        for start, end in intervals:
            lo = bisect.bisect_left(self.starts, start - margin)
            picked.update(range(lo, bisect.bisect_right(self.starts, end + margin)))
        return [self.durations[i] for i in sorted(picked)]


def reference_seconds(wall_s: float, probes: list[float]) -> float:
    """Wall seconds at reference speed, from the probe times around them.

    The mean, not the median, of the probe times: evenly spaced probes
    average the slowdown over the job as its wall time does, slow
    stretches included.
    """
    return wall_s * PROBE_REF_S / statistics.fmean(probes)
