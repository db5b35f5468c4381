"""Host speed sampled during a job, to take a shared host's slow spells out of job times.

On a shared machine the same code runs up to about 50% slower for seconds or
minutes at a time, and CPU time tracks wall time, so the slowdown is the
host's, not the job's.  ``HostClock`` times a fixed pure-Python loop from a
``SIGALRM`` interval timer every ``INTERVAL_S`` while a job runs, in the
job's own thread, so each sample sees the speed the job sees at that moment.
A job's adjusted time weights each stretch of its wall time by the speed
sampled in it: stretch × ``REFERENCE_S`` / loop time.  It is the time the
job would have taken had the host run throughout at the speed at which the
loop takes ``REFERENCE_S``.

Signal handlers run between bytecodes, so a long call into C (numpy)
delays a sample until it returns, and that stretch takes the speed sampled
after it.  A job too short for ``MIN_SAMPLES`` samples is scaled by the
median of loops timed just before and after it.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02
LOOP_N = 2000  # iterations per sample: 0.12 to 0.19 ms on the host below
# Loop time in the fast spells of a shared 2-vCPU Intel Xeon VM (Python 3.11.7);
# it only sets the scale of adjusted times, which are compared on one machine.
REFERENCE_S = 1.2e-4
MIN_SAMPLES = 10
EDGE_SAMPLES = 50


def loop_time() -> float:
    """Seconds taken by a fixed loop of small-int arithmetic."""
    start = time.perf_counter()
    acc = 0
    for i in range(LOOP_N):
        acc += i * i % 7
    return time.perf_counter() - start


class HostClock:
    """``with clock:`` samples the loop time every ``interval`` seconds until exit."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.stamps: list[float] = []  # time.monotonic() when each sample started
        self.samples: list[float] = []  # loop time of each sample
        self._busy = False
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self.stamps.append(time.monotonic())
            self.samples.append(loop_time())
        finally:
            self._busy = False

    def __enter__(self) -> "HostClock":
        self.stamps, self.samples = [], []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def adjusted(self, start: float, end: float, edges: list[float]) -> float:
        """Wall time from ``start`` to ``end`` (``time.monotonic()``) at the reference speed.

        Sample j covers the stretch since sample j - 1 (the first one since
        ``start``); the last sample also covers the rest up to ``end``.
        """
        pairs = [(t, d) for t, d in zip(self.stamps, self.samples) if start <= t <= end]
        if len(pairs) < MIN_SAMPLES:
            return (end - start) * REFERENCE_S / sorted(edges)[len(edges) // 2]
        bounds = [start] + [t for t, _ in pairs[1:]] + [end]
        return sum((b - a) * REFERENCE_S / d
                   for a, b, (_, d) in zip(bounds, bounds[1:], pairs))


def edge_samples() -> list[float]:
    """Loop times taken back to back, outside any job."""
    return [loop_time() for _ in range(EDGE_SAMPLES)]
