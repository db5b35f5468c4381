"""Host-speed scaling: each stretch of a job weighted by the speed sampled in it."""

import signal
import time

import pytest

import hostclock
from hostclock import REFERENCE_S, HostClock


def _clock(stamps, samples) -> HostClock:
    clock = HostClock()
    clock.stamps, clock.samples = list(stamps), list(samples)
    return clock


def test_each_stretch_takes_the_speed_of_the_sample_that_ends_it(monkeypatch):
    monkeypatch.setattr(hostclock, "MIN_SAMPLES", 2)
    # sample at 2 s covers [0, 6] at reference speed; the one at 6 s covers
    # [6, 10] at half speed, so those 4 s count as 2
    clock = _clock([2.0, 6.0], [REFERENCE_S, 2 * REFERENCE_S])
    assert clock.adjusted(0.0, 10.0, edges=[1.0]) == pytest.approx(8.0)


def test_samples_outside_the_job_are_ignored(monkeypatch):
    monkeypatch.setattr(hostclock, "MIN_SAMPLES", 2)
    clock = _clock([-1.0, 2.0, 6.0, 11.0], [1.0, REFERENCE_S, REFERENCE_S, 1.0])
    assert clock.adjusted(0.0, 10.0, edges=[1.0]) == pytest.approx(10.0)


def test_too_few_samples_fall_back_to_the_edge_median(monkeypatch):
    monkeypatch.setattr(hostclock, "MIN_SAMPLES", 3)
    clock = _clock([2.0, 6.0], [REFERENCE_S, REFERENCE_S])
    edges = [2 * REFERENCE_S, 4 * REFERENCE_S, 4 * REFERENCE_S]
    assert clock.adjusted(0.0, 10.0, edges) == pytest.approx(2.5)


def test_armed_clock_samples_and_restores_the_previous_handler():
    before = signal.getsignal(signal.SIGALRM)
    with HostClock(interval=0.002) as clock:
        stop = time.monotonic() + 0.1
        while time.monotonic() < stop:
            pass
    assert len(clock.samples) == len(clock.stamps) > 0
    assert all(d > 0 for d in clock.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
